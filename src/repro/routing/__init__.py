"""Routing schemes: P-LSR, D-LSR, bounded flooding, and baselines."""

from .base import RoutePlan, RouteQuery, RoutingContext, RoutingScheme
from .costs import Q_PENALTY
from .bellman_ford import bellman_ford_vectors, next_hop_table
from .link_state import LinkStateScheme
from .plsr import PLSRScheme
from .dlsr import DLSRScheme
from .flooding import (
    BFParameters,
    BoundedFloodingScheme,
    CRTEntry,
    FloodingError,
    FloodResult,
)
from .baselines import DisjointBackupScheme, NoBackupScheme, RandomBackupScheme
from .reactive import (
    NO_RESTORATION_PATH,
    REROUTED,
    ReactiveScheme,
    assess_reactive_recovery,
)

__all__ = [
    "RoutingScheme",
    "RoutingContext",
    "RouteQuery",
    "RoutePlan",
    "Q_PENALTY",
    "bellman_ford_vectors",
    "next_hop_table",
    "LinkStateScheme",
    "PLSRScheme",
    "DLSRScheme",
    "BoundedFloodingScheme",
    "BFParameters",
    "CRTEntry",
    "FloodResult",
    "FloodingError",
    "NoBackupScheme",
    "DisjointBackupScheme",
    "RandomBackupScheme",
    "ReactiveScheme",
    "assess_reactive_recovery",
    "REROUTED",
    "NO_RESTORATION_PATH",
]

"""Durable atomic JSON writes, for the server's and the campaign's
manifests: a reader sees the old document or the new one, never a
torn one.  The temp file is fsynced before the rename publishes it,
so a crash cannot leave the name on unwritten data.  The module
imports nothing from the package."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Union


def write_json_atomic(path: Union[str, Path], payload: Any) -> None:
    """Write ``payload`` as indented, key-sorted JSON to ``path``,
    durably and atomically (parent directories are created)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "w") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)

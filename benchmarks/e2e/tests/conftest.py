"""Self-tests of the end-to-end benchmark harness.

Run explicitly (they are not part of tier-1)::

    python -m pytest benchmarks/e2e/tests -q
"""

import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(E2E_DIR))

from common import require_source_tree  # noqa: E402

require_source_tree()

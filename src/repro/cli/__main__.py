"""Entry point for ``python -m repro.cli``."""

import sys

from . import main

if __name__ == "__main__":
    sys.exit(main())

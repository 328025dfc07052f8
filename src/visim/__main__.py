"""``python -m visim``: the command line of ``visim.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m searchbench``: the same command line as the ``searchbench`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

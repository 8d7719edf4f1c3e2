"""``python -m graphstrata``: the command line, see :mod:`graphstrata.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m quditlab``: the same command line as the ``quditlab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

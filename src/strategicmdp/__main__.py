"""``python -m strategicmdp``: the same command line as the ``strategicmdp`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

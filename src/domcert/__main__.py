"""`python -m domcert ...` runs the command line of `domcert.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m repro.cli``: the ``repro-agu`` command line."""

import sys

from repro.cli.main import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m ilw_lab <command> ...``: the same front end as ``ilw-lab``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

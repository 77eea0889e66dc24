"""``python -m monoweb``: the command-line interface of ``monoweb.cli``."""

import sys

from .cli import main

sys.exit(main())

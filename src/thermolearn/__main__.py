"""``python -m thermolearn SUBCOMMAND ...``: the ``thermolearn`` experiment runner."""

import sys

from .cli import main

sys.exit(main())

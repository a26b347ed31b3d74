"""``python -m longpred``: the experiment CLI of ``longpred.cli``."""

import sys

from .cli import main

sys.exit(main())

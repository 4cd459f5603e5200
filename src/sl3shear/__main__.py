"""``python -m sl3shear``: the command-line interface of :mod:`sl3shear.cli`."""

import sys

from .cli import main

sys.exit(main())

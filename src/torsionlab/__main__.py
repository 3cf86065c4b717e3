"""``python -m torsionlab``: the same command line as the ``torsionlab`` script."""

import sys

from .cli import main

sys.exit(main())

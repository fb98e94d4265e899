"""``python -m inclab``: the ``inclab`` command line."""

import sys

from .cli import main

sys.exit(main())

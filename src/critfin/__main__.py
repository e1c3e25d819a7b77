"""``python -m critfin``: the ``critfin`` command without an installed script."""

import sys

from .cli import main

sys.exit(main())

"""`python -m blockcs ...`: the command-line front end, as `blockcs ...`."""

import sys

from .cli import main

sys.exit(main())

"""Allow ``python -m repro``."""

import os
import sys

from repro.cli import main

try:
    status = main()
    sys.stdout.flush()
except BrokenPipeError:
    # The reader went away (``repro list | head``): point stdout at
    # devnull so the interpreter's exit-time flush cannot raise again.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(1)
sys.exit(status)

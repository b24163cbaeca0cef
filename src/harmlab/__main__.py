"""`python -m harmlab ...` runs the command line of harmlab.cli."""
import sys

from . import cli

sys.exit(cli.main())

"""`python -m gdfif` runs the `gdfif` command line."""

from .cli import entry

entry()

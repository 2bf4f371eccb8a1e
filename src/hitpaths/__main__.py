"""`python -m hitpaths`: the same command line as the `hitpaths` script."""

from .cli import main

main()

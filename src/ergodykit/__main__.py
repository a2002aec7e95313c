"""``python -m ergodykit``: the same command line as the ``ergodykit`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

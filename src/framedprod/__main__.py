"""``python -m framedprod``: the ``framedprod`` command line."""

from .cli import main

if __name__ == "__main__":
    main()

"""The process entry of `python -m apg` and of the installed `apg` script."""

import gc
import sys

from .cli import main


def run() -> int:
    """cli.main, then gc.freeze(): see the last paragraph of cli's docstring."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())

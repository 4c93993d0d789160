import gc
import sys


def run() -> None:
    """The process entry of ``solarcast`` and ``python -m solarcast``."""
    from .cli import main

    # the objects made at import live to exit; frozen, exit does not walk them
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()

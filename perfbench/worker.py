"""Fresh worker interpreter for one benchmark run; started by run.py.

Only the imports a solvsplit user pays for come before READY, so the spawn
to READY interval is the set-up time.  `--probe` stops right there.
"""

import time

import solvsplit
import solvsplit.cli

READY = time.monotonic()

if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["--probe"]:
        print(f"{READY!r} {solvsplit.__file__}")
        sys.exit(0)
    import loop

    sys.exit(loop.main(READY, sys.argv[1:]))

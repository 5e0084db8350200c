"""The reference chunk: a fixed pure-Python loop that measures how fast
the host runs Python right now.

A time divided by the chunk time taken next to it is a cost in reference
units, in which swings of the host's speed that slow both alike cancel
out.  A change to fqs does not change the loop, so the program's own
speed-ups and slow-downs still show in full.  This module imports only
``time``, so that importtime.py can load it without importing anything
fqs.cli would import.
"""

import time

REF_ITERATIONS = 500_000  # about 25 ms on the build host


def chunk() -> float:
    """Wall seconds of one pass of the loop."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i
    return time.perf_counter() - t0

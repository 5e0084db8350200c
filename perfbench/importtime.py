"""Times ``import fqs.cli`` inside a fresh interpreter, between reference
chunks, for run.py's ``setup_s``.

Usage: PYTHONPATH=<checkout>/src python3 importtime.py CHUNKS

Prints one line: the import's wall seconds, then the CHUNKS chunk times
before it and the CHUNKS after it.  Nothing but ``sys``, ``time`` and
refloop is imported before the timed import, so the figure holds every
module fqs.cli pulls in.
"""

import sys
import time

from refloop import chunk

n = int(sys.argv[1])
before = [chunk() for _ in range(n)]
t0 = time.perf_counter()
import fqs.cli  # noqa: E402,F401
elapsed = time.perf_counter() - t0
after = [chunk() for _ in range(n)]
print(" ".join(repr(t) for t in [elapsed] + before + after))

"""Time the server side of the audit on in-memory messages.

For each shape (silos d, groups G, grid size k) every silo summarizes
500 Beta(2 + g, 5) scores per group g with ``client_summarize`` (one
``numpy.random.default_rng(0)`` stream for the whole shape).  The
script then times ``server_audit`` at p = 2 and p = 1 and the decoding
of every encoded message, each as the best of --repeats runs, and prints
one JSON line with the seconds per shape.

Usage:
    python scripts/bench_server_audit.py
    python scripts/bench_server_audit.py --shapes 5,2,64 --repeats 1
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fqs import GridSpec, client_summarize, decode_message, encode_message, server_audit


def best_of(repeats, fn):
    """Smallest wall time of ``repeats`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def time_shape(d, groups, k, repeats):
    rng = np.random.default_rng(0)
    grid = GridSpec(k=k)
    messages = [
        client_summarize(f"s{j}", {f"g{g}": rng.beta(2 + g, 5, 500) for g in range(groups)}, grid)
        for j in range(d)
    ]
    blobs = [encode_message(m) for m in messages]
    return {
        "d": d,
        "groups": groups,
        "k": k,
        "server_audit_p2_s": best_of(repeats, lambda: server_audit(messages, 2)),
        "server_audit_p1_s": best_of(repeats, lambda: server_audit(messages, 1)),
        "decode_all_s": best_of(repeats, lambda: [decode_message(b) for b in blobs]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shapes", default="5,2,64;50,4,256;200,8,512",
                        help="semicolon-separated d,G,k triples")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    try:
        shapes = [tuple(int(x) for x in s.split(",")) for s in args.shapes.split(";")]
    except ValueError:
        parser.error("--shapes wants d,G,k integer triples")
    if args.repeats < 1 or any(len(s) != 3 for s in shapes):
        parser.error("--shapes wants d,G,k triples and --repeats at least 1")
    rows = [time_shape(d, g, k, args.repeats) for d, g, k in shapes]
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": args.repeats,
        "shapes": rows,
    }, sort_keys=True))


if __name__ == "__main__":
    main()

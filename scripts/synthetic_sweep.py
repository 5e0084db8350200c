"""Regenerate the synthetic accuracy/communication sweep tables.

Draws a two-group Beta population, scatters it across silos under each
allocation regime, and writes the three sweep CSVs (summary, per-replication,
smallest adequate grid) plus a JSON sidecar with the run settings.  Every
number is a deterministic function of --seed.

Usage:
    python scripts/synthetic_sweep.py --out results/sweep
    python scripts/synthetic_sweep.py --n 20000 --reps 200 --rho 0.8
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fqs import SweepSpec, run_sweep, synthetic_population, to_canonical_json
from fqs.serialize import write_csv
from fqs.sweep import K95_HEADER, REPLICATION_HEADER, SUMMARY_HEADER


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shapes", default="2,5,5,2",
                        help="Beta shapes a0,b0,a1,b1 for the two groups")
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ks", default="4,8,16,32,64,128")
    parser.add_argument("--ds", default="5")
    parser.add_argument("--regimes", default="random,positive,negative")
    parser.add_argument("--rho", type=float, default=0.5)
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--tau", type=float, default=0.01)
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument("--fine-k", type=int, default=2001)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    shapes = tuple(float(x) for x in args.shapes.split(","))
    if len(shapes) != 4:
        parser.error("--shapes wants four numbers a0,b0,a1,b1")
    data = synthetic_population(*shapes, args.n, args.seed)
    spec = SweepSpec(
        ks=tuple(int(x) for x in args.ks.split(",")),
        ds=tuple(int(x) for x in args.ds.split(",")),
        regimes=tuple(args.regimes.split(",")),
        rho=args.rho,
        replications=args.reps,
        base_seed=args.seed,
        tau=args.tau,
        delta=args.delta,
    )
    result = run_sweep(data, spec, fine_k=args.fine_k, jobs=args.jobs)

    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "sweep_summary.csv"),
              SUMMARY_HEADER, result.summary_rows)
    write_csv(os.path.join(args.out, "sweep_replications.csv"),
              REPLICATION_HEADER, result.replication_rows)
    write_csv(os.path.join(args.out, "k95.csv"), K95_HEADER, result.k95_rows)
    settings = vars(args) | {"u2_reference": result.u2_reference}
    with open(os.path.join(args.out, "settings.json"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(to_canonical_json(settings) + "\n")
    print(to_canonical_json({
        "out": args.out,
        "configurations": len(result.summary_rows),
        "u2_reference": result.u2_reference,
    }))


if __name__ == "__main__":
    main()

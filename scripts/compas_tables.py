"""Recompute the recidivism-score disparity tables from the public CSV.

Loads the two-year COMPAS scores file, audits the decile scores of the two
largest race groups on a fine grid, then re-runs the same audit through the
one-shot protocol with the rows scattered over a few silos at several sketch
sizes.  Prints one table per stage; --out also writes them as CSVs.

The CSV is not bundled.  Download compas-scores-two-years.csv from the
propublica/compas-analysis repository and place it under $FQS_DATA_DIR or
./data, or pass --csv.

Usage:
    python scripts/compas_tables.py
    python scripts/compas_tables.py --csv /data/compas-scores-two-years.csv
"""

import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fqs import (
    DatasetSpec,
    GridSpec,
    allocate_random,
    client_summarize,
    communication_budget,
    cramer_p_step,
    h_hat,
    load_dataset,
    server_audit,
    sketch_to_step_cdf,
    split_cells,
    u_hat,
    wasserstein_p_grid,
    write_csv,
)

GROUPS = ("African-American", "Caucasian")
CSV_NAMES = ("compas-scores-two-years.csv", "compas.csv")


def locate_csv(explicit):
    if explicit:
        return explicit
    candidates = []
    base = os.environ.get("FQS_DATA_DIR")
    if base:
        candidates.extend(os.path.join(base, name) for name in CSV_NAMES)
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    candidates.extend(os.path.join(here, "data", name) for name in CSV_NAMES)
    for path in candidates:
        if os.path.exists(path):
            return path
    sys.exit(
        "compas-scores-two-years.csv not found; place it under $FQS_DATA_DIR "
        "or ./data, or pass --csv (see the module docstring)"
    )


def centralized_rows(data, fine):
    counts = data.sample.counts()
    sk = data.sample.sketches(fine)
    w2 = wasserstein_p_grid(sk[GROUPS[0]], sk[GROUPS[1]], 2)
    c2 = cramer_p_step(
        sketch_to_step_cdf(sk[GROUPS[0]]), sketch_to_step_cdf(sk[GROUPS[1]]), 2
    )
    return [
        ["n_" + GROUPS[0], counts[GROUPS[0]]],
        ["n_" + GROUPS[1], counts[GROUPS[1]]],
        ["grid_k", fine.k],
        ["u2", u_hat(data.sample, fine, 2)],
        ["h2", h_hat(data.sample, fine, 2)],
        ["u1", u_hat(data.sample, fine, 1)],
        ["w2", w2],
        ["c2", c2],
    ]


def federated_rows(data, ks, silos, seed, u2_ref):
    labels = data.sample.labels
    assignment = allocate_random(data.codes, silos, seed)
    cells = split_cells(data.scores, data.codes, assignment - 1, silos, len(labels))
    rows = []
    for k in ks:
        grid = GridSpec(k=k)
        messages = [
            client_summarize(f"silo{j}", dict(zip(labels, cell)), grid)
            for j, cell in enumerate(cells, start=1)
        ]
        report = server_audit(messages, 2)
        alpha = report.weights.alpha
        fed_w2 = math.sqrt(report.g_hat / (alpha[GROUPS[0]] * alpha[GROUPS[1]]))
        rows.append([
            k,
            communication_budget(d=silos, k=k, groups=2),
            report.g_hat,
            report.h_hat,
            fed_w2,
            abs(report.g_hat - u2_ref) / u2_ref,
            report.v_mix,
            report.v_bar,
        ])
    return rows


def print_table(title, header, rows):
    print(f"\n== {title} ==")
    widths = [
        max(len(str(header[i])), *(len(_fmt(r[i])) for r in rows))
        for i in range(len(header))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--csv", help="path to the scores CSV")
    parser.add_argument("--fine-k", type=int, default=2001)
    parser.add_argument("--ks", default="8,32,128,512,2001",
                        help="sketch sizes for the federated stage")
    parser.add_argument("--silos", type=int, default=5)
    parser.add_argument("--seed", type=int, default=20)
    parser.add_argument("--out", help="directory for CSV copies of the tables")
    args = parser.parse_args(argv)

    data = load_dataset(DatasetSpec(
        path=locate_csv(args.csv),
        score_column="decile_score",
        group_column="race",
        groups=GROUPS,
        jitter=True,
        seed=args.seed,
    ))
    fine = GridSpec(k=args.fine_k)
    central = centralized_rows(data, fine)
    u2_ref = dict((row[0], row[1]) for row in central)["u2"]
    ks = tuple(int(x) for x in args.ks.split(","))
    federated = federated_rows(data, ks, args.silos, args.seed, u2_ref)

    central_header = ["quantity", "value"]
    federated_header = ["k", "budget", "g2_hat", "h2_hat", "w2_hat",
                        "rel_gap_u2", "v_mix", "v_bar"]
    print_table("centralized fine-grid audit", central_header, central)
    print_table(f"{args.silos}-silo one-shot protocol", federated_header,
                federated)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_csv(os.path.join(args.out, "centralized.csv"),
                  central_header, central)
        write_csv(os.path.join(args.out, "federated.csv"),
                  federated_header, federated)
        print(f"\nwrote {args.out}/centralized.csv and {args.out}/federated.csv")


if __name__ == "__main__":
    main()

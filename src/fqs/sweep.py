"""Monte Carlo sweeps over grid size, silo count and allocation regime.

One sweep fixes a dataset, scatters it across silos many times per
configuration, runs the one-round audit on each scatter and compares the
federated order-2 disparity against a fine-grid centralized reference.
Replications derive their seeds from (base seed, regime, d, k, replicate)
and results are merged in sorted key order, so the output is one
deterministic function of the inputs no matter how the pool schedules the
work.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .central import u_hat
from .datasets import IngestedData
from .errors import ValidationError
from .protocol import server_audit, client_summarize
from .rng import derive_key
from .scenario import (
    allocate_copula,
    allocate_random,
    dependence_diagnostics,
    margins_from_assignment,
    split_cells,
)
from .sketch import GridSpec

__all__ = ["SweepSpec", "SweepResult", "run_sweep"]

SUMMARY_HEADER = [
    "regime", "d", "k", "replications", "budget", "mae", "medae",
    "mean_g2", "q10_g2", "q50_g2", "q90_g2", "p_ok", "tau",
    "abs_spearman_mean", "abs_spearman_median", "u2_reference",
]
REPLICATION_HEADER = [
    "regime", "d", "k", "rep", "g2", "abs_err", "rel_err", "ok", "pearson", "spearman",
]
K95_HEADER = ["regime", "d", "tau", "target_prob", "k95"]


@dataclass(frozen=True)
class SweepSpec:
    """Sweep axes and targets; tau is the relative-error tolerance used by
    p_ok, delta the complement of the k95 success target."""

    ks: Tuple[int, ...]
    ds: Tuple[int, ...]
    regimes: Tuple[str, ...]
    rho: float
    replications: int
    base_seed: int
    tau: float = 0.01
    delta: float = 0.05

    def __post_init__(self):
        if not self.ks or not self.ds or not self.regimes:
            raise ValidationError("invalid-scenario", "ks, ds and regimes must be nonempty")
        if self.replications < 1:
            raise ValidationError("invalid-scenario", "need at least one replication")
        if not (0.0 < self.tau):
            raise ValidationError("invalid-scenario", "tau must be positive")
        if not (0.0 < self.delta < 1.0):
            raise ValidationError("delta-out-of-range", "delta must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class SweepResult:
    summary_rows: List[list]
    replication_rows: List[list]
    k95_rows: List[list]
    u2_reference: float


def _one_replication(data: IngestedData, regime: str, rho: float, d: int, k: int,
                     rep: int, base_seed: int, grid: GridSpec, ref: float, tau: float) -> dict:
    seed = derive_key(base_seed, "sweep-" + regime, d, k, rep)
    codes = data.codes
    if regime == "random":
        assignment = allocate_random(codes, d, seed)
    else:
        baseline = allocate_random(codes, d, seed)
        margins = margins_from_assignment(baseline, codes, d)
        assignment = allocate_copula(data.scores, codes, margins, rho, regime, seed)
    labels = data.sample.labels
    cells = split_cells(data.scores, codes, assignment - 1, d, len(labels))
    messages = [
        client_summarize(f"silo{j}", dict(zip(labels, cell)), grid)
        for j, cell in enumerate(cells, start=1)
        if any(c.size for c in cell)
    ]
    report = server_audit(messages, 2)
    g2 = report.g_hat
    abs_err = abs(g2 - ref)
    rel_err = abs_err / ref if ref > 0 else (0.0 if abs_err == 0.0 else float("inf"))
    try:
        corr = dependence_diagnostics(data.scores, assignment)
    except ValidationError:
        corr = {"pearson": None, "spearman": None}
    return {
        "key": (regime, d, k, rep),
        "g2": g2,
        "abs_err": abs_err,
        "rel_err": rel_err,
        "ok": int(rel_err <= tau),
        "pearson": corr["pearson"],
        "spearman": corr["spearman"],
    }


def run_sweep(data: IngestedData, spec: SweepSpec, fine_k: int = 2001, jobs: int = 1) -> SweepResult:
    ref = u_hat(data.sample, GridSpec(fine_k), 2)
    groups_n = len(data.sample.labels)
    keys = [
        (regime, d, k, rep)
        for regime in sorted(set(spec.regimes))
        for d in sorted(set(spec.ds))
        for k in sorted(set(spec.ks))
        for rep in range(spec.replications)
    ]
    grid_of = {k: GridSpec(k) for k in set(spec.ks)}

    def work(key):
        regime, d, k, rep = key
        return _one_replication(data, regime, spec.rho, d, k, rep, spec.base_seed,
                                grid_of[k], ref, spec.tau)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = {r["key"]: r for r in pool.map(work, keys)}
    else:
        results = {key: work(key) for key in keys}

    replication_rows = []
    for key in keys:
        r = results[key]
        replication_rows.append([
            key[0], key[1], key[2], key[3], r["g2"], r["abs_err"], r["rel_err"], r["ok"],
            "" if r["pearson"] is None else r["pearson"],
            "" if r["spearman"] is None else r["spearman"],
        ])

    summary_rows = []
    p_ok_table: Dict[Tuple[str, int, int], float] = {}
    for regime in sorted(set(spec.regimes)):
        for d in sorted(set(spec.ds)):
            for k in sorted(set(spec.ks)):
                chunk = [results[(regime, d, k, rep)] for rep in range(spec.replications)]
                g2s = np.asarray([c["g2"] for c in chunk])
                errs = np.asarray([c["abs_err"] for c in chunk])
                sp = np.asarray([abs(c["spearman"]) for c in chunk if c["spearman"] is not None])
                p_ok = float(np.mean([c["ok"] for c in chunk]))
                p_ok_table[(regime, d, k)] = p_ok
                summary_rows.append([
                    regime, d, k, spec.replications,
                    d * groups_n * (k + 1),
                    float(np.mean(errs)), float(np.median(errs)),
                    float(np.mean(g2s)),
                    float(np.quantile(g2s, 0.1)), float(np.quantile(g2s, 0.5)),
                    float(np.quantile(g2s, 0.9)),
                    p_ok, spec.tau,
                    float(np.mean(sp)) if sp.size else "",
                    float(np.median(sp)) if sp.size else "",
                    ref,
                ])

    k95_rows = []
    target = 1.0 - spec.delta
    for regime in sorted(set(spec.regimes)):
        for d in sorted(set(spec.ds)):
            k95 = -1
            for k in sorted(set(spec.ks)):
                if p_ok_table[(regime, d, k)] >= target:
                    k95 = k
                    break
            k95_rows.append([regime, d, spec.tau, target, k95])

    return SweepResult(
        summary_rows=summary_rows,
        replication_rows=replication_rows,
        k95_rows=k95_rows,
        u2_reference=ref,
    )

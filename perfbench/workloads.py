"""The four workloads: seeded inputs, command lines and output checks.

Every input file is written here from the benchmark's own numpy
generator, so the program under test receives only files.  Each
workload also computes, once at set-up, what a correct output must
contain, and returns a ``check`` that lists the problems of one
command's output (an empty list means the output is correct).

Floating-point results are compared with a ``math.fsum`` recomputation
within ``error_bound``.  Quantiles, weights and counts have exact
integer oracles and must match bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np

import wirefmt

# Unit roundoff of float64.
U = 2.0 ** -53


def error_bound(m: int, scale: float, p: int) -> float:
    """Largest accepted |program - oracle| for a power-unit functional.

    Each functional is a weighted mean of |a - b|^p with |a|, |b| <=
    ``scale``, where a and b are exact or weighted means of at most ``m``
    numbers summed naively (error <= m * U * scale each), and the outer
    sums are compensated (error a few U).  That gives roughly
    4 * (m + 2) * U * scale^p; the bound takes four times that.
    """
    return 16.0 * (m + 2) * U * scale ** p


@dataclass(frozen=True)
class Output:
    """What one command produced: its stdout and the files in its out dir."""

    stdout: str
    files: Dict[str, bytes]


@dataclass
class Prepared:
    """A workload ready to run: the command, its work and its checks."""

    argv: List[str]
    out_dir: Optional[str]  # relative to the work dir; emptied before each command
    work: int  # work units one command does
    work_unit: str
    check: Callable[[Output], List[str]]
    corrupt: Callable[[Output], Output]  # for the self-test: a wrong output


FULL = {
    "audit-wide": dict(silos=100, groups=6, k=256, counts=(100, 500), p=2),
    "audit-many-silos": dict(silos=2000, groups=2, k=16, counts=(10, 90), p=1),
    "silo-export": dict(rows=200_000, groups=4, silos=20, k=128),
    # 5 replications per configuration, not 10: a 20 s run then holds
    # about 7 commands instead of 3 or 4, and its median is steadier.
    "sweep": dict(rows=20_000, ks=(8, 16, 32, 64), ds=(5,),
                  regimes=("random", "positive", "negative"), reps=5),
}

SMOKE = {
    "audit-wide": dict(silos=5, groups=3, k=16, counts=(5, 30), p=2),
    "audit-many-silos": dict(silos=40, groups=2, k=8, counts=(3, 20), p=1),
    "silo-export": dict(rows=3000, groups=4, silos=5, k=16),
    "sweep": dict(rows=600, ks=(4, 8), ds=(3,), regimes=("random", "positive"), reps=2),
}

NAMES = tuple(FULL)


def generator(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**63, zlib.crc32(name.encode())]))


def lower_quantiles(sorted_x: np.ndarray, k: int) -> np.ndarray:
    """sorted_x[ceil((2l - 1) n / (2k)) - 1] for l = 1..k, in integers."""
    n = sorted_x.size
    ell = np.arange(1, k + 1, dtype=np.int64)
    return sorted_x[((2 * ell - 1) * n + 2 * k - 1) // (2 * k) - 1]


def _fsum_rows(a: np.ndarray) -> np.ndarray:
    return np.array([math.fsum(row) for row in a.tolist()])


def _near(problems: List[str], what: str, got, want: float, tol: float) -> None:
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        problems.append(f"{what}: got {got!r}, want {want!r} within {tol:.3g}")


def _json(out: Output, problems: List[str]):
    try:
        return json.loads(out.stdout)
    except ValueError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


# --- audit-wide and audit-many-silos: fqs federate -------------------------


def _weighted_lower_median(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per column of ``values`` (rows x levels): the smallest value whose
    cumulative integer weight w satisfies 2 * w >= total."""
    order = np.argsort(values, axis=0, kind="stable")
    cum = np.cumsum(weights[order], axis=0)
    pick = np.argmax(2 * cum >= weights.sum(), axis=0)
    return np.take_along_axis(values, order, axis=0)[pick, np.arange(values.shape[1])]


def _weighted_mean(values: np.ndarray, weights: List[float]) -> np.ndarray:
    """Per column of ``values`` (rows x levels), fsum of weight * value."""
    return _fsum_rows((values * np.asarray(weights)[:, None]).T)


def _power_mean(rows: np.ndarray, center: np.ndarray, alpha: List[float], p: int) -> float:
    """fsum over rows of alpha * mean over levels of |row - center|^p."""
    gaps = np.abs(rows - center)
    per_row = _fsum_rows(gaps if p == 1 else gaps * gaps) / rows.shape[1]
    return math.fsum(a * t for a, t in zip(alpha, per_row))


def audit_oracle(values: np.ndarray, counts: np.ndarray, p: int) -> dict:
    """Exact mixture quantiles and fsum values of every reported number.

    ``values`` is silos x groups x k sketch values, ``counts`` silos x
    groups cell counts, silos and groups in sorted id order.
    """
    d, G, k = values.shape
    group_n = counts.sum(axis=0)
    n = int(group_n.sum())
    alpha = [int(m) / n for m in group_n]
    cuts = np.unique(values)
    odd = 2 * np.arange(1, k + 1, dtype=np.int64) - 1
    mixture = np.empty((G, k))
    cum_at_cuts = np.empty((G, cuts.size), dtype=np.int64)
    for s in range(G):
        # sum_j n_j * c_j(x): every sketch value of silo j weighs n_j
        vals = values[:, s, :].ravel()
        order = np.argsort(vals, kind="stable")
        sorted_vals = vals[order]
        cum = np.cumsum(np.repeat(counts[:, s], k)[order])
        knots, first = np.unique(sorted_vals, return_index=True)
        at_knots = cum[np.append(first[1:], vals.size) - 1]
        mixture[s] = knots[np.searchsorted(2 * at_knots, odd * int(group_n[s]), side="left")]
        pos = np.searchsorted(sorted_vals, cuts, side="right")
        cum_at_cuts[s] = np.where(pos > 0, cum[np.maximum(pos - 1, 0)], 0)
    pooled = cum_at_cuts.sum(axis=0)
    if k * n * n >= 2**53:
        raise ValueError("workload too large for the exact CDF oracle")
    widths = np.diff(cuts)
    h_terms = []
    for s in range(G):
        num = cum_at_cuts[s] * n - pooled * int(group_n[s])  # exact in int64
        gap = np.abs(num[:-1].astype(np.float64) / float(k * int(group_n[s]) * n))
        h_terms.append(alpha[s] * math.fsum((widths * (gap if p == 1 else gap * gap)).tolist()))

    if p == 2:
        center = _weighted_mean(mixture, alpha)
    else:
        center = _weighted_lower_median(mixture, group_n)
    within = np.empty((G, k))
    for s in range(G):
        if p == 2:
            within[s] = _weighted_mean(values[:, s, :], [int(c) / int(group_n[s]) for c in counts[:, s]])
        else:
            within[s] = _weighted_lower_median(values[:, s, :], counts[:, s])
    out = {
        "alpha": alpha,
        "mixture": mixture,
        "center": center,
        "g_hat": _power_mean(mixture, center, alpha, p),
        "h_hat": math.fsum(h_terms),
        "tol": error_bound(max(d, G), max(float(np.max(np.abs(values))), float(cuts[-1] - cuts[0])), p),
        "center_tol": 4.0 * (G + 2) * U * float(np.max(np.abs(values))),
    }
    if p == 2:
        a = mixture - within
        b = within - center
        out["v_mix"] = _power_mean(mixture, within, alpha, 2)
        out["v_bar"] = _power_mean(within, center, alpha, 2)
        out["r"] = 2.0 * math.fsum(al * t for al, t in zip(alpha, _fsum_rows(a * b) / k))
    else:
        out["v1_mix"] = _power_mean(mixture, within, alpha, 1)
        out["v1_bar"] = _power_mean(within, center, alpha, 1)
    return out


def prepare_audit(name: str, workdir: str, seed: int, silos: int, groups: int, k: int,
                  counts: tuple, p: int) -> Prepared:
    rng = generator(name, seed)
    labels = [f"g{i}" for i in range(groups)]
    sids = [f"s{j:0{len(str(silos - 1))}d}" for j in range(silos)]
    shapes = rng.uniform(1.5, 6.0, size=(groups, 2))
    shift = rng.normal(0.0, 0.05, size=silos)
    cell_n = rng.integers(counts[0], counts[1] + 1, size=(silos, groups))
    values = np.empty((silos, groups, k))
    os.makedirs(os.path.join(workdir, "msgs"))
    for j, sid in enumerate(sids):
        cells = {}
        for s, lab in enumerate(labels):
            x = np.sort(rng.beta(shapes[s, 0], shapes[s, 1], size=cell_n[j, s]) + shift[j])
            values[j, s] = lower_quantiles(x, k)
            cells[lab] = (int(cell_n[j, s]), values[j, s])
        with open(os.path.join(workdir, "msgs", sid + ".fqs"), "wb") as fh:
            fh.write(wirefmt.pack(sid, k, cells))
    want = audit_oracle(values, cell_n, p)
    group_n = cell_n.sum(axis=0)
    n = int(group_n.sum())
    silo_n = cell_n.sum(axis=1)

    def check(out: Output) -> List[str]:
        problems: List[str] = []
        rep = _json(out, problems)
        if rep is None:
            return problems
        try:
            if rep["p"] != p or rep["grid"]["k"] != k or rep["grid"]["trim_epsilon"] != 0:
                problems.append("p or grid differs from the input")
            mq = rep["mixture_quantiles"]
            if sorted(mq) != labels:
                problems.append(f"mixture_quantiles groups {sorted(mq)} != {labels}")
            else:
                for s, lab in enumerate(labels):
                    got = np.asarray(mq[lab], dtype=np.float64)
                    if got.shape != (k,) or not np.array_equal(got, want["mixture"][s]):
                        problems.append(f"mixture_quantiles[{lab}] differ from the exact oracle")
            center = np.asarray(rep["barycenter_quantiles"], dtype=np.float64)
            if center.shape != (k,):
                problems.append("barycenter_quantiles has the wrong length")
            elif p == 1 and not np.array_equal(center, want["center"]):
                problems.append("barycenter_quantiles differ from the exact weighted median")
            elif p == 2 and not np.all(np.abs(center - want["center"]) <= want["center_tol"]):
                problems.append("barycenter_quantiles differ from the fsum weighted mean")
            w = rep["weights"]
            if w["alpha"] != dict(zip(labels, want["alpha"])):
                problems.append("weights.alpha differ from n_s / n")
            if w["pi"] != {lab: {sid: int(cell_n[j, s]) / int(group_n[s]) for j, sid in enumerate(sids)}
                           for s, lab in enumerate(labels)}:
                problems.append("weights.pi differ from n_sj / n_s")
            if w["beta"] != {sid: int(silo_n[j]) / n for j, sid in enumerate(sids)}:
                problems.append("weights.beta differ from n_j / n")
            tol = want["tol"]
            for key in ("g_hat", "h_hat") + (("v_mix", "v_bar", "r") if p == 2 else ("v1_mix", "v1_bar")):
                _near(problems, key, rep[key], want[key], tol)
            if p == 2:
                _near(problems, "g_hat - (v_mix + v_bar + r)",
                      rep["g_hat"] - (rep["v_mix"] + rep["v_bar"] + rep["r"]), 0.0, tol)
            meta = rep["metadata"]
            if (meta["silo_count"], meta["n_total"], meta["n_min"], meta["degenerate_cells"]) != (
                    silos, n, int(cell_n.min()), []) or meta["group_counts"] != dict(
                    zip(labels, (int(m) for m in group_n))):
                problems.append("metadata differs from the input")
        except (KeyError, TypeError, AttributeError) as exc:
            problems.append(f"report lacks an expected field: {exc!r}")
        return problems

    def corrupt(out: Output) -> Output:
        rep = json.loads(out.stdout)
        row = rep["mixture_quantiles"][labels[0]]
        ell = next(i for i in range(k - 1) if row[i] != row[i + 1])
        row[ell] = row[ell + 1]  # one mixture quantile shifted up by one level
        return replace(out, stdout=json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n")

    return Prepared(argv=["federate", "msgs", "--p", str(p)], out_dir=None,
                    work=silos * groups, work_unit="cells", check=check, corrupt=corrupt)


# --- score CSVs for silo-export and sweep -----------------------------------


def _write_rows(path: str, scores: np.ndarray, labels: np.ndarray) -> None:
    """CSV of (score, group); repr round-trips every float exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("score,group\n")
        fh.write("".join(f"{x!r},{g}\n" for x, g in zip(scores.tolist(), labels.tolist())))


# --- silo-export: fqs sketch -------------------------------------------------


def prepare_silo_export(name: str, workdir: str, seed: int, rows: int, groups: int, silos: int,
                        k: int) -> Prepared:
    rng = generator(name, seed)
    group_names = np.array([f"g{i}" for i in range(groups)])
    sids = np.array([f"silo{j:02d}" for j in range(1, silos + 1)])
    shapes = rng.uniform(1.5, 6.0, size=(groups, 2))
    group_ix = rng.choice(groups, size=rows, p=rng.dirichlet(np.full(groups, 4.0)))
    silo_ix = rng.integers(0, silos, size=rows)
    scores = rng.beta(shapes[group_ix, 0], shapes[group_ix, 1]) + rng.normal(0.0, 0.05, silos)[silo_ix]
    _write_rows(os.path.join(workdir, "rows.csv"), scores, group_names[group_ix])
    with open(os.path.join(workdir, "alloc.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("row,silo\n")
        fh.write("".join(f"{i},{sid}\n" for i, sid in enumerate(sids[silo_ix].tolist())))
    expected = {}
    for j, sid in enumerate(sids.tolist()):
        cells = {}
        for s, lab in enumerate(group_names.tolist()):
            x = np.sort(scores[(silo_ix == j) & (group_ix == s)])
            if x.size:
                cells[lab] = (x.size, lower_quantiles(x, k))
        expected[sid + ".fqs"] = (sid, cells)

    def check(out: Output) -> List[str]:
        problems: List[str] = []
        _json(out, problems)
        got = {f: b for f, b in out.files.items() if f.endswith(".fqs")}
        if sorted(got) != sorted(expected):
            return problems + [f"wrote {sorted(got)}, want {sorted(expected)}"]
        for fname, (sid, cells) in expected.items():
            try:
                msg = wirefmt.unpack(got[fname])
            except (ValueError, UnicodeDecodeError) as exc:
                problems.append(f"{fname}: {exc}")
                continue
            if (msg.silo_id, msg.k, msg.trim_epsilon) != (sid, k, 0.0):
                problems.append(f"{fname}: header {msg[:3]} != {(sid, k, 0.0)}")
            elif [g[0] for g in msg.groups] != sorted(cells):
                problems.append(f"{fname}: groups {[g[0] for g in msg.groups]} != {sorted(cells)}")
            else:
                for label, count, values in msg.groups:
                    if count != cells[label][0] or not np.array_equal(values, cells[label][1]):
                        problems.append(f"{fname}[{label}]: count or quantiles differ from the rows")
        return problems

    def corrupt(out: Output) -> Output:
        fname = min(expected)
        msg = wirefmt.unpack(out.files[fname])
        label, count, values = msg.groups[0]
        values = values.copy()
        ell = next(i for i in range(k - 1) if values[i] != values[i + 1])
        values[ell] = values[ell + 1]
        cells = {lab: (c, v) for lab, c, v in msg.groups}
        cells[label] = (count, values)
        return replace(out, files={**out.files, fname: wirefmt.pack(msg.silo_id, msg.k, cells)})

    argv = ["sketch", "--data", "rows.csv", "--score-col", "score", "--group-col", "group",
            "--allocation", "alloc.csv", "--grid-k", str(k), "--out", "out"]
    return Prepared(argv=argv, out_dir="out", work=rows, work_unit="rows", check=check,
                    corrupt=corrupt)


# --- sweep: fqs sweep --------------------------------------------------------

# The program's default --fine-k, the grid of the centralized reference.
SWEEP_FINE_K = 2001


def u2_reference(groups: List[np.ndarray], k: int) -> float:
    """Order-2 transport disparity of the grouped sample on the k-level grid."""
    n = sum(x.size for x in groups)
    alpha = [x.size / n for x in groups]
    rows = np.vstack([lower_quantiles(np.sort(x), k) for x in groups])
    return _power_mean(rows, _weighted_mean(rows, alpha), alpha, 2)


def prepare_sweep(name: str, workdir: str, seed: int, rows: int, ks: tuple, ds: tuple,
                  regimes: tuple, reps: int) -> Prepared:
    rng = generator(name, seed)
    n0 = int(rows * rng.uniform(0.35, 0.65))
    x0 = rng.beta(*rng.uniform(1.5, 6.0, size=2), size=n0)
    x1 = rng.beta(*rng.uniform(1.5, 6.0, size=2), size=rows - n0)
    perm = rng.permutation(rows)
    scores = np.concatenate([x0, x1])[perm]
    labels = np.array(["g0"] * n0 + ["g1"] * (rows - n0))[perm]
    _write_rows(os.path.join(workdir, "rows.csv"), scores, labels)
    want = u2_reference([x0, x1], SWEEP_FINE_K)
    tol = error_bound(2, float(np.max(np.abs(scores))), 2)
    configs = len(ks) * len(ds) * len(regimes)
    lines = {"sweep_summary.csv": 1 + configs, "sweep_replications.csv": 1 + configs * reps,
             "k95.csv": 1 + len(ds) * len(regimes)}

    def check(out: Output) -> List[str]:
        problems: List[str] = []
        rep = _json(out, problems)
        if rep is not None:
            _near(problems, "u2_reference", rep.get("u2_reference"), want, tol)
            if rep.get("configurations") != configs:
                problems.append(f"configurations {rep.get('configurations')!r} != {configs}")
        for fname, nlines in lines.items():
            got = out.files[fname].count(b"\n") if fname in out.files else None
            if got != nlines:
                problems.append(f"{fname} has {got} lines, want {nlines}")
        return problems

    def corrupt(out: Output) -> Output:
        rep = json.loads(out.stdout)
        rep["u2_reference"] *= 1.0 + 1e-9
        return replace(out, stdout=json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n")

    argv = ["sweep", "--data", "rows.csv", "--score-col", "score", "--group-col", "group",
            "--ks", ",".join(map(str, ks)), "--ds", ",".join(map(str, ds)),
            "--regimes", ",".join(regimes), "--rho", "0.5", "--reps", str(reps),
            "--jobs", "1", "--seed", str(seed % 2**31), "--out", "out"]
    return Prepared(argv=argv, out_dir="out", work=configs * reps, work_unit="replications",
                    check=check, corrupt=corrupt)


def prepare(name: str, workdir: str, seed: int, smoke: bool = False) -> Prepared:
    size = (SMOKE if smoke else FULL)[name]
    if name.startswith("audit-"):
        return prepare_audit(name, workdir, seed, **size)
    if name == "silo-export":
        return prepare_silo_export(name, workdir, seed, **size)
    return prepare_sweep(name, workdir, seed, **size)

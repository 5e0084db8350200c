"""Command line front end.

Subcommands mirror the library layers: ``ingest`` reads a CSV into a
grouped sample, ``audit`` computes the centralized functionals, ``sketch``
splits the rows across silos and writes one binary message per silo,
``federate`` aggregates message files into the audit report, ``bounds``
evaluates the finite-sample half-widths, ``simulate`` draws one allocation
and ``sweep`` runs the Monte Carlo study.

Exit codes: 0 on success, 2 when inputs violate a documented precondition,
3 when an input file is malformed.  Every command is deterministic given
its ``--seed``: reruns produce byte-identical output.
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Dict, Optional, Tuple

import click
import numpy as np

from .bounds import (
    BoundInputs,
    communication_budget,
    dkw_bound,
    g2_error_scale,
    hp_quantile_bound,
    weight_bounds,
)
from .central import h_hat, u_hat
from .datasets import (
    DatasetSpec,
    IngestedData,
    _csv_records,
    _sorted_codes,
    load_dataset,
    resolve_data_path,
    synthetic_population,
)
from .distances import cramer_p_step, wasserstein_p_grid
from .errors import AuditError, ValidationError, exit_code_for
from .protocol import client_summarize, report_to_dict, server_audit
from .scenario import (
    allocate_copula,
    allocate_random,
    dependence_diagnostics,
    margins_from_assignment,
    split_cells,
)
from .serialize import format_float, to_canonical_json, write_csv
from .sketch import GridSpec, sketch_to_step_cdf
from .sweep import (
    K95_HEADER,
    REPLICATION_HEADER,
    SUMMARY_HEADER,
    SweepSpec,
    run_sweep,
)
from .wire import decode_message, encode_message, message_to_json

SYNTHETIC_DEFAULT = "2,5,5,2"


# Output is written to sys.stdout / sys.stderr directly: click.echo caches a wrapper per
# stream that keeps every redirected buffer of an in-process call alive.
def guarded(fn):
    """Map package errors to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except AuditError as exc:
            sys.stderr.write(f"error [{exc.code}]: {exc.message}\n")
            sys.exit(exit_code_for(exc))

    return wrapper


def dataset_options(fn):
    fn = click.option("--jitter/--no-jitter", default=False, show_default=True,
                      help="subtract a seeded Uniform(0,1) draw from every score")(fn)
    fn = click.option("--groups", "groups_csv", default="",
                      help="comma-separated group whitelist (default: all groups)")(fn)
    fn = click.option("--group-col", required=False, default=None, help="group column name")(fn)
    fn = click.option("--score-col", required=False, default=None, help="score column name")(fn)
    fn = click.option("--data", default=None,
                      help="CSV path (bare names are also looked up under $FQS_DATA_DIR)")(fn)
    return fn


def synthetic_options(fn):
    fn = click.option("--n", "synthetic_n", type=int, default=10000, show_default=True,
                      help="total synthetic sample size (split evenly between two groups)")(fn)
    fn = click.option("--synthetic", "synthetic_shapes", default=None, is_flag=False,
                      flag_value=SYNTHETIC_DEFAULT,
                      help="draw scores from two Beta laws 'a0,b0,a1,b1' instead of reading --data "
                           f"(bare flag uses {SYNTHETIC_DEFAULT})")(fn)
    return fn


def grid_options(fn):
    fn = click.option("--trim-eps", type=float, default=0.0, show_default=True,
                      help="trim level of the quantile grid")(fn)
    fn = click.option("--grid-k", type=int, default=64, show_default=True, help="grid size k")(fn)
    return fn


def _parse_groups(groups_csv: str) -> Tuple[str, ...]:
    return tuple(g.strip() for g in groups_csv.split(",") if g.strip()) if groups_csv else ()


def _load_input(data, score_col, group_col, groups_csv, jitter, seed,
                synthetic_shapes=None, synthetic_n=10000) -> IngestedData:
    if synthetic_shapes is not None:
        if data is not None:
            raise ValidationError("invalid-scenario", "--data and --synthetic are mutually exclusive")
        try:
            a0, b0, a1, b1 = (float(x) for x in synthetic_shapes.split(","))
        except ValueError:
            raise ValidationError("invalid-scenario",
                                  f"--synthetic wants 'a0,b0,a1,b1', got {synthetic_shapes!r}") from None
        return synthetic_population(a0, b0, a1, b1, synthetic_n, seed)
    if data is None:
        raise ValidationError("missing-file", "either --data or --synthetic is required")
    if not score_col or not group_col:
        raise ValidationError("missing-column", "--score-col and --group-col are required with --data")
    spec = DatasetSpec(path=data, score_column=score_col, group_column=group_col,
                       groups=_parse_groups(groups_csv), jitter=jitter, seed=seed)
    return load_dataset(spec)


def _emit(obj: dict, out: Optional[str], fmt: str, stem: str) -> None:
    text = to_canonical_json(obj)
    sys.stdout.write(text + "\n")
    if out:
        os.makedirs(out, exist_ok=True)
        if fmt == "json":
            with open(os.path.join(out, stem + ".json"), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text + "\n")
        else:
            rows = sorted(_flatten(obj).items())
            write_csv(os.path.join(out, stem + ".csv"), ["key", "value"], rows)


def _flatten(obj, prefix="") -> Dict[str, object]:
    """Dotted-key view of a nested dict; list-valued leaves are dropped."""
    flat: Dict[str, object] = {}
    if isinstance(obj, dict):
        for key in obj:
            flat.update(_flatten(obj[key], f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        return {}
    else:
        flat[prefix[:-1]] = "" if obj is None else obj
    return flat


@click.group()
def main():
    """Disparity audits of score distributions from quantile sketches."""


@main.command()
@dataset_options
@synthetic_options
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default=None, help="directory for the normalized CSV")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@guarded
def ingest(data, score_col, group_col, groups_csv, jitter, seed, synthetic_shapes, synthetic_n,
           out, fmt):
    """Read a dataset CSV, filter to the group whitelist, report counts."""
    loaded = _load_input(data, score_col, group_col, groups_csv, jitter, seed,
                         synthetic_shapes, synthetic_n)
    if out:
        os.makedirs(out, exist_ok=True)
        labels = loaded.sample.labels
        rows = zip([format_float(x) for x in loaded.scores], [labels[c] for c in loaded.codes.tolist()])
        write_csv(os.path.join(out, "ingested.csv"), ["score", "group"], rows)
    _emit({"n": loaded.scores.size, "groups": loaded.sample.counts()}, None, fmt, "ingest")


@main.command()
@dataset_options
@synthetic_options
@grid_options
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--p", type=click.Choice(["1", "2"]), default="2", show_default=True)
@click.option("--out", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@guarded
def audit(data, score_col, group_col, groups_csv, jitter, seed, synthetic_shapes, synthetic_n,
          grid_k, trim_eps, p, out, fmt):
    """Centralized disparity functionals of one dataset."""
    loaded = _load_input(data, score_col, group_col, groups_csv, jitter, seed,
                         synthetic_shapes, synthetic_n)
    sample = loaded.sample
    grid = GridSpec(k=grid_k, trim_epsilon=trim_eps)
    p = int(p)
    result = {
        "p": p,
        "grid": {"k": grid.k, "trim_epsilon": grid.trim_epsilon},
        "n": sample.total,
        "groups": sample.counts(),
        "alpha": {lab: a for lab, a in zip(sample.labels, sample.alpha())},
        "u_hat": u_hat(sample, grid, p),
        "h_hat": h_hat(sample, grid, p),
    }
    if len(sample.labels) == 2:
        lab0, lab1 = sample.labels
        sk = sample.sketches(grid)
        result["w_p"] = wasserstein_p_grid(sk[lab0], sk[lab1], p)
        result["c_p"] = cramer_p_step(sketch_to_step_cdf(sk[lab0]), sketch_to_step_cdf(sk[lab1]), p)
        result["mean_gap"] = abs(float(np.mean(sample.groups[lab0])) - float(np.mean(sample.groups[lab1])))
    _emit(result, out, fmt, "audit")


def _read_allocation_csv(path: str, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted silo ids and each data row's index into them, from a
    ``row,silo`` CSV that names every row id 0..n-1 exactly once."""
    rows = []
    silos = []
    first_seen: Dict[str, int] = {}
    for lineno, (raw, sid) in _csv_records(path, ("row", "silo"), "allocation CSV"):
        if raw is None or sid is None:
            raise ValidationError("missing-column", f"allocation CSV row {lineno} is short")
        try:
            ix = int(raw)
        except ValueError:
            raise ValidationError("invalid-row-id",
                                  f"allocation CSV row {lineno}: bad row id {raw!r}") from None
        if not 0 <= ix < n:
            raise ValidationError("margin-mismatch",
                                  f"allocation CSV row {lineno}: row id {ix} is outside 0..{n - 1}")
        rows.append(ix)
        silos.append(first_seen.setdefault(sid, len(first_seen)))
    seen = np.bincount(np.asarray(rows, dtype=np.int64), minlength=n)
    if np.any(seen != 1):
        bad = int(np.flatnonzero(seen != 1)[0])
        raise ValidationError("margin-mismatch", f"allocation must cover rows 0..{n - 1} exactly once; "
                                                 f"row id {bad} appears {int(seen[bad])} times")
    sids, codes = _sorted_codes(list(first_seen), silos)
    silo = np.empty(n, dtype=np.int64)
    silo[rows] = codes
    return sids, silo


@main.command()
@dataset_options
@synthetic_options
@grid_options
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--allocation", default=None, help="CSV (row,silo) mapping rows to silos")
@click.option("--d", "d_silos", type=int, default=None, help="random allocation over this many silos")
@click.option("--emit-json", is_flag=True, default=False, help="also write .json mirrors")
@click.option("--out", required=True)
@guarded
def sketch(data, score_col, group_col, groups_csv, jitter, seed, synthetic_shapes, synthetic_n,
           grid_k, trim_eps, allocation, d_silos, emit_json, out):
    """Split rows across silos and write one .fqs message per silo."""
    loaded = _load_input(data, score_col, group_col, groups_csv, jitter, seed,
                         synthetic_shapes, synthetic_n)
    codes = loaded.codes
    if (allocation is None) == (d_silos is None):
        raise ValidationError("invalid-scenario", "pass exactly one of --allocation or --d")
    if allocation is not None:
        sids, silo = _read_allocation_csv(resolve_data_path(allocation), codes.size)
    else:
        used, silo = np.unique(allocate_random(codes, d_silos, seed), return_inverse=True)
        sids, silo = _sorted_codes([f"silo{j}" for j in used.tolist()], silo)
    labels = loaded.sample.labels
    cells = split_cells(loaded.scores, codes, silo, sids.size, len(labels))
    grid = GridSpec(k=grid_k, trim_epsilon=trim_eps)
    os.makedirs(out, exist_ok=True)
    written = []
    info = {}
    for sid, cell in zip(sids.tolist(), cells):
        if not all(c.isalnum() or c in "-_." for c in sid):
            raise ValidationError("invalid-silo-id", f"silo id {sid!r} is not filename-safe")
        msg = client_summarize(sid, dict(zip(labels, cell)), grid)
        path = os.path.join(out, f"{sid}.fqs")
        with open(path, "wb") as fh:
            fh.write(encode_message(msg))
        written.append(path)
        if emit_json:
            with open(os.path.join(out, f"{sid}.json"), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(message_to_json(msg) + "\n")
        info[sid] = {lab: sk.count for lab, sk in msg.entries.items()}
    _emit({"k": grid.k, "trim_epsilon": grid.trim_epsilon, "silos": info, "files": written},
          None, "json", "sketch")


@main.command()
@click.argument("messages", nargs=-1, required=True)
@click.option("--p", type=click.Choice(["1", "2"]), default="2", show_default=True)
@click.option("--out", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@guarded
def federate(messages, p, out, fmt):
    """Aggregate .fqs message files (or directories of them) into a report."""
    paths = []
    for m in messages:
        if os.path.isdir(m):
            paths.extend(os.path.join(m, f) for f in sorted(os.listdir(m)) if f.endswith(".fqs"))
        else:
            paths.append(m)
    decoded = []
    for path in paths:
        with open(resolve_data_path(path), "rb") as fh:
            data = fh.read()
        try:
            decoded.append(decode_message(data))
        except AuditError as exc:
            raise type(exc)(exc.code, f"{path}: {exc.message}") from None
    report = server_audit(decoded, int(p))
    _emit(report_to_dict(report), out, fmt, "report")


@main.command()
@click.option("--n", type=int, required=True, help="total number of individuals")
@click.option("--n-min", type=int, required=True, help="smallest per-(silo,group) cell")
@click.option("--n-group-min", type=int, default=None, help="smallest group total (default: n-min)")
@click.option("--grid-k", type=int, default=64, show_default=True)
@click.option("--d", type=int, required=True, help="number of silos")
@click.option("--groups", "n_groups", type=int, default=2, show_default=True)
@click.option("--delta", type=float, default=0.05, show_default=True)
@click.option("--m-eps", type=float, default=1.0, show_default=True)
@click.option("--eps", type=float, default=0.0, show_default=True)
@click.option("--c-eps", type=float, default=1.0, show_default=True,
              help="multiplier for the non-rigorous order-2 error scale")
@click.option("--out", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@guarded
def bounds(n, n_min, n_group_min, grid_k, d, n_groups, delta, m_eps, eps, c_eps, out, fmt):
    """Evaluate the finite-sample half-width calculators."""
    inp = BoundInputs(n=n, n_min=n_min, n_group_min=n_group_min if n_group_min is not None else n_min,
                      k=grid_k, d=d, groups=n_groups, delta=delta, m_eps=m_eps, eps=eps)
    result = {
        "inputs": {"n": inp.n, "n_min": inp.n_min, "n_group_min": inp.n_group_min, "k": inp.k,
                   "d": inp.d, "groups": inp.groups, "delta": inp.delta, "m_eps": inp.m_eps,
                   "eps": inp.eps},
        "dkw_bound": dkw_bound(n, delta),
        "hp_quantile_bound": hp_quantile_bound(inp),
        "weight_bounds": weight_bounds(inp),
        "communication_budget": communication_budget(d, grid_k, n_groups),
        "g2_error_scale_non_rigorous": g2_error_scale(inp, c_eps),
    }
    _emit(result, out, fmt, "bounds")


def parse_scenario_config(text: str) -> Dict[str, str]:
    """Parse 'key = value' lines; '#' starts a comment; keys lowercase."""
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError("invalid-scenario", f"config line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip().lower()] = value.strip()
    return out


def _read_margins_csv(path: str, labels) -> np.ndarray:
    rows = []
    for lineno, counts in _csv_records(path, labels, "margins CSV"):
        row = []
        for lab, cell in zip(labels, counts):
            try:
                row.append(int(cell))
            except (TypeError, ValueError):
                raise ValidationError("margin-mismatch", f"margins CSV row {lineno}: group {lab!r} "
                                                         f"count {cell!r} is not an integer") from None
        rows.append(row)
    if not rows:
        raise ValidationError("no-rows", "margins CSV has no silo rows")
    return np.asarray(rows, dtype=np.int64)


@main.command()
@dataset_options
@synthetic_options
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--regime", type=click.Choice(["random", "positive", "negative"]), default="random",
              show_default=True)
@click.option("--rho", type=float, default=0.0, show_default=True)
@click.option("--d", "d_silos", type=int, default=5, show_default=True)
@click.option("--margins", "margins_path", default=None,
              help="margins CSV (one row per silo, one column per group); default: a seeded baseline")
@click.option("--config", "config_path", default=None,
              help="key=value file overriding regime/rho/d/seed/margins")
@click.option("--out", required=True)
@guarded
def simulate(data, score_col, group_col, groups_csv, jitter, seed, synthetic_shapes, synthetic_n,
             regime, rho, d_silos, margins_path, config_path, out):
    """Draw one allocation of rows to silos and write it as CSV."""
    if config_path:
        with open(resolve_data_path(config_path), "r", encoding="utf-8") as fh:
            cfg = parse_scenario_config(fh.read())
        regime = cfg.get("regime", regime)
        rho = float(cfg.get("rho", rho))
        d_silos = int(cfg.get("d", d_silos))
        seed = int(cfg.get("seed", seed))
        margins_path = cfg.get("margins", margins_path)
        if margins_path in ("baseline", ""):
            margins_path = None
    loaded = _load_input(data, score_col, group_col, groups_csv, jitter, seed,
                         synthetic_shapes, synthetic_n)
    codes = loaded.codes
    labels = list(loaded.sample.labels)
    if regime == "random" and margins_path is None:
        assignment = allocate_random(codes, d_silos, seed)
    else:
        if margins_path is None:
            margins = margins_from_assignment(allocate_random(codes, d_silos, seed), codes, d_silos)
        else:
            margins = _read_margins_csv(resolve_data_path(margins_path), labels)
            d_silos = int(margins.shape[0])
        assignment = allocate_copula(loaded.scores, codes, margins, rho, regime, seed)
    os.makedirs(out, exist_ok=True)
    write_csv(os.path.join(out, "allocation.csv"), ["row", "silo"],
              [(i, int(s)) for i, s in enumerate(assignment)])
    realized = margins_from_assignment(assignment, codes, d_silos)
    write_csv(os.path.join(out, "margins.csv"), ["silo"] + labels,
              [[j + 1] + realized[j].tolist() for j in range(realized.shape[0])])
    try:
        corr = dependence_diagnostics(loaded.scores, assignment)
        pearson, spearman = corr["pearson"], corr["spearman"]
    except ValidationError:
        pearson = spearman = None
    _emit({"regime": regime, "rho": rho, "d": d_silos, "seed": seed, "n": int(codes.size),
           "pearson": pearson, "spearman": spearman}, None, "json", "simulate")


@main.command()
@dataset_options
@synthetic_options
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--ks", default="8,16,32,64", show_default=True, help="comma-separated grid sizes")
@click.option("--ds", default="5", show_default=True, help="comma-separated silo counts")
@click.option("--regimes", default="random,positive,negative", show_default=True)
@click.option("--rho", type=float, default=0.5, show_default=True)
@click.option("--reps", type=int, default=50, show_default=True)
@click.option("--tau", type=float, default=0.01, show_default=True)
@click.option("--delta", type=float, default=0.05, show_default=True)
@click.option("--fine-k", type=int, default=2001, show_default=True,
              help="grid size of the centralized reference")
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--out", required=True)
@guarded
def sweep(data, score_col, group_col, groups_csv, jitter, seed, synthetic_shapes, synthetic_n,
          ks, ds, regimes, rho, reps, tau, delta, fine_k, jobs, out):
    """Monte Carlo sweep over (k, d, regime); writes three CSV tables."""
    loaded = _load_input(data, score_col, group_col, groups_csv, jitter, seed,
                         synthetic_shapes, synthetic_n)
    try:
        k_list = tuple(int(x) for x in ks.split(",") if x.strip())
        d_list = tuple(int(x) for x in ds.split(",") if x.strip())
    except ValueError:
        raise ValidationError("invalid-scenario", "--ks and --ds want comma-separated integers") from None
    regime_list = tuple(r.strip() for r in regimes.split(",") if r.strip())
    spec = SweepSpec(ks=k_list, ds=d_list, regimes=regime_list, rho=rho,
                     replications=reps, base_seed=seed, tau=tau, delta=delta)
    result = run_sweep(loaded, spec, fine_k=fine_k, jobs=jobs)
    os.makedirs(out, exist_ok=True)
    files = {
        "summary": os.path.join(out, "sweep_summary.csv"),
        "replications": os.path.join(out, "sweep_replications.csv"),
        "k95": os.path.join(out, "k95.csv"),
    }
    write_csv(files["summary"], SUMMARY_HEADER, result.summary_rows)
    write_csv(files["replications"], REPLICATION_HEADER, result.replication_rows)
    write_csv(files["k95"], K95_HEADER, result.k95_rows)
    _emit({"u2_reference": result.u2_reference, "files": files,
           "configurations": len(result.summary_rows)}, None, "json", "sweep")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Benchmark of the fqs command line, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test

A run writes the workload's inputs from ``--seed`` into a work
directory under ``.perfbench-out/``, works out the correct outputs, then
starts ``worker.py`` in a fresh interpreter.  The worker drives the real
``fqs`` command in a closed loop (one caller, ``--jobs 1``, BLAS pinned
to one thread) for about ``--seconds``.  Every command's output is
checked afterwards.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced commands
alternate and the metrics are the per-layer ones.  The full record of a
run (every command's wall and CPU time, load averages, tail
percentiles, host facts; spans when traced) goes to
``.perfbench-out/`` in the checkout.  ``--workload all`` runs the four
workloads untraced and prints by name every end-to-end metric, the raw
wall-clock ``op_s.p50`` and ``work_per_s``, and ``failed_ops``.
``--self-test`` runs all four at a tiny size, checks that every check
passes, and checks that a corrupted output is counted as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# Before numpy is imported here or in any child.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import COUNTERS, LAYERS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

END_TO_END_UNITS = {"op_cost.p50": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# Raw wall-clock figures: in every run record and printed by --workload all,
# but not end-to-end metrics, because host speed swings make them unsteady.
WALL_UNITS = {"op_s.p50": "s", "work_per_s": "1/s"}
PER_LAYER_UNITS = {"cli.self_s": "s"}
for _layer in LAYERS:
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
    PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
PER_LAYER_UNITS.update({"sketch.step_cdfs_per_cell": "ratio", "sketch.mixtures_per_group": "ratio"})
PER_LAYER_UNITS.update((key, "B" if ".bytes" in key else "count") for key in COUNTERS)
PER_LAYER_UNITS["trace.overhead"] = "ratio"

SETUP_REPEATS = 7
SETUP_CHUNKS = 4  # reference chunks before and after each timed import
SETUP_REF_S = 0.025  # the reference chunk's time on the build host
RUN_LIMIT_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
    env.pop("PYTHONSTARTUP", None)
    return env


def measure_setup(workdir: str) -> dict:
    """Time ``import fqs.cli`` in SETUP_REPEATS + 1 fresh interpreters.

    Each child times its own import between reference chunks
    (importtime.py), so neither interpreter start-up nor this process's
    wait for the child is in the figure.  ``setup_s`` is the median of
    import time over chunk time, times SETUP_REF_S: the import's seconds
    on a host whose chunk takes SETUP_REF_S.  The first child, which may
    compile bytecode, is not kept."""
    cmd = [sys.executable, os.path.join(HERE, "importtime.py"), str(SETUP_CHUNKS)]
    imports, refs = [], []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(cmd, env=child_env(), cwd=workdir, check=True, timeout=60,
                              capture_output=True, text=True)
        elapsed, *chunks = map(float, proc.stdout.split())
        if i:
            imports.append(elapsed)
            refs.append((statistics.median(chunks[:SETUP_CHUNKS])
                         + statistics.median(chunks[SETUP_CHUNKS:])) / 2)
    return {"setup_s": SETUP_REF_S * statistics.median(t / r for t, r in zip(imports, refs)),
            "import_s": imports, "ref_s": refs}


def failures(commands: list, problems: dict) -> list:
    """(command index, reason) for every command that failed: nonzero
    exit, exception, an output that fails its check, or an output that
    differs from the run's first command."""
    out = []
    for i, c in enumerate(commands):
        if c["exit"] != 0 or c["error"]:
            reason = c["error"] or f"exit {c['exit']}: {c['stderr'].strip()}"
        elif problems[c["output"]]:
            reason = problems[c["output"]][0]
        elif c["output"] != commands[0]["output"]:
            reason = "output differs from the first command's"
        else:
            continue
        out.append((i, reason))
    return out


def _check(prep: workloads.Prepared, out: workloads.Output) -> list:
    try:
        return prep.check(out)
    except Exception as exc:  # an output the check cannot read is a wrong output
        return [f"check failed on this output: {exc!r}"]


def _tail(values: list) -> dict:
    s = sorted(values)
    return {"n": len(s), "p50": statistics.median(s), "p90": s[min(len(s) - 1, int(0.9 * len(s)))],
            "max": s[-1], "min": s[0]}


def host_facts() -> dict:
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "machine": platform.machine()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    started = time.monotonic()
    load_start = os.getloadavg()
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        prep = workloads.prepare(name, workdir, seed, smoke)
        setup = None if trace else measure_setup(workdir)
        spec = {
            "src": SRC, "workdir": workdir, "argv": prep.argv, "out_dir": prep.out_dir,
            "seconds": seconds, "trace": trace, "min_commands": 4 if trace else 3,
            "outputs": os.path.join(workdir, "outputs"),
            "result": os.path.join(workdir, "result.json"),
            "spans": os.path.join(OUT, f"{name}-seed{seed}{'-smoke' if smoke else ''}.spans.json.gz"),
        }
        with open(os.path.join(workdir, "spec.json"), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        budget = RUN_LIMIT_S - (time.monotonic() - started)
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                                   os.path.join(workdir, "spec.json")],
                                  env=child_env(), cwd=workdir, timeout=budget,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name}: worker did not finish within {budget:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{name}: worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        outputs = {}
        for key in os.listdir(spec["outputs"]):
            base = os.path.join(spec["outputs"], key)
            with open(os.path.join(base, "stdout.txt"), encoding="utf-8", newline="") as fh:
                stdout = fh.read()
            files = {}
            for fname in os.listdir(os.path.join(base, "files")):
                with open(os.path.join(base, "files", fname), "rb") as fh:
                    files[fname] = fh.read()
            outputs[int(key)] = workloads.Output(stdout, files)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = {key: _check(prep, out) for key, out in outputs.items()}
    commands = result["commands"]
    failed = failures(commands, problems)
    timed_ix = [i for i, c in enumerate(commands) if not c["warmup"] and not c["traced"]]
    timed = [commands[i] for i in timed_ix]
    walls = [c["wall_s"] for c in timed]
    passed = len(set(timed_ix) - {i for i, _ in failed})
    wall_metrics = {"op_s.p50": statistics.median(walls), "work_per_s": prep.work * passed / sum(walls)}
    if trace:
        traced = [c for c in commands if c["traced"]]
        metrics = {key: statistics.median(c["layers"][key] for c in traced)
                   for key in PER_LAYER_UNITS if key != "trace.overhead"}
        metrics["trace.overhead"] = (statistics.median(c["wall_s"] for c in traced)
                                     / statistics.median(walls) - 1.0)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "op_cost.p50": statistics.median(c["wall_s"] / c["ref_s"] for c in timed),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = END_TO_END_UNITS
    line = {"correct": not failed, "attempted": len(commands), "failed": len(failed),
            "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units}}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "argv": prep.argv, "work_per_command": prep.work, "work_unit": prep.work_unit,
        "host": host_facts(), "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "op_s": _tail(walls), "cpu_s": _tail([c["cpu_s"] for c in timed]),
        "ref_s": None if trace else _tail([c["ref_s"] for c in timed]), "wall_metrics": wall_metrics,
        "setup": setup, "failed_ops": len(failed) / len(commands),
        "failures": failed, "problems": {k: v[:5] for k, v in problems.items() if v},
        "result": line, "commands": commands,
    }
    if trace:
        record["hook_errors"] = result["hook_errors"]
        record["functions"] = result["functions"]
        record["spans_file"] = os.path.relpath(spec["spans"], ROOT)
    record_path = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {"line": line, "record": record, "prep": prep, "outputs": outputs, "problems": problems}


def run_all(seed: int, seconds: float) -> int:
    summary = {}
    for name in workloads.NAMES:
        res = run_workload(name, seed, seconds, trace=False)
        rec, line = res["record"], res["line"]
        shown = dict(line["metrics"])
        shown.update((key, {"value": value, "unit": WALL_UNITS[key]})
                     for key, value in rec["wall_metrics"].items())
        for key, m in shown.items():
            print(f"{name:18s} {key:12s} {m['value']:.6g} {m['unit']}")
        print(f"{name:18s} {'failed_ops':12s} {rec['failed_ops']:.6g} "
              f"({line['failed']} of {line['attempted']} commands)")
        summary[name] = dict(line, metrics=shown, failed_ops=rec["failed_ops"])
    print(json.dumps(summary))
    return 0


def self_test() -> int:
    ok = True

    def expect(cond: bool, what: str) -> None:
        nonlocal ok
        ok &= bool(cond)
        print(f"{'ok  ' if cond else 'FAIL'} {what}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
           and {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
           and {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS,
           "BENCHMARK.json lists the workloads and metrics this script reports")

    for name in workloads.NAMES:
        plain = run_workload(name, seed=1, seconds=0.5, trace=False, smoke=True)
        expect(plain["line"]["correct"] and plain["line"]["failed"] == 0,
               f"{name}: every check passes ({plain['record']['failures'] or 'no failures'})")
        traced = run_workload(name, seed=1, seconds=0.5, trace=True, smoke=True)
        expect(traced["line"]["correct"], f"{name}: traced stdout equals untraced stdout")
        expect(set(traced["line"]["metrics"]) == set(PER_LAYER_UNITS), f"{name}: every per-layer metric")
        wrong = plain["prep"].corrupt(plain["outputs"][0])
        caught = plain["prep"].check(wrong)
        commands = [dict(c) for c in plain["record"]["commands"]]
        commands[-1]["output"] = "corrupted"
        counted = failures(commands, dict(plain["problems"], corrupted=caught))
        expect(caught and [i for i, _ in counted] == [len(commands) - 1],
               f"{name}: a corrupted output is counted in failed_ops ({caught[:1]})")
    print("SELF-TEST", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fqs", "cli.py")):
        print(f"error: no fqs sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload or --self-test is required")
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(res["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

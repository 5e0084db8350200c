"""Closed-loop command runner, started by run.py in a fresh interpreter.

One caller: the next command starts only after the last one returns.
Each command is ``fqs.cli.main(argv, standalone_mode=False)`` with
stdout captured, timed by wall and CPU clock.  The first command warms
caches and is not timed.  Without tracing, reference chunks run between
commands; with tracing, untraced and traced commands alternate.  Every
distinct output (stdout plus the files of the out dir) is saved once,
and each command records which one it gave, so run.py can check them
all.

Usage: python3 worker.py SPEC.json  (writes the result file the spec names)
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time

import refloop


# REF_CHUNKS reference chunks (see refloop.py) run between untraced
# commands; a command's wall time divided by the chunk time around it is
# its cost in reference units.  Fewer chunks per gap estimate the speed
# too coarsely: on silo-export on the 2-core build host, 2 chunks left a
# run-to-run spread of 0.10 and 8 chunks 0.04.
REF_CHUNKS = 8


def _reference() -> float:
    """Median time of REF_CHUNKS chunks run back to back."""
    return statistics.median(refloop.chunk() for _ in range(REF_CHUNKS))


def _run_one(main, argv):
    out, err = io.StringIO(), io.StringIO()
    exit_code, error = 0, None
    t0, c0 = time.perf_counter_ns(), time.process_time_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=list(argv), prog_name="fqs", standalone_mode=False)
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a failed command is counted, not fatal
            exit_code, error = 1, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter_ns() - t0, time.process_time_ns() - c0
    return out.getvalue(), err.getvalue(), exit_code, error, wall, cpu


def _collect(out_dir):
    if out_dir is None or not os.path.isdir(out_dir):
        return {}
    files = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                files[name] = fh.read()
    return files


def _peak_rss_kb() -> int:
    """This process's own peak RSS.  ru_maxrss is not used: it keeps the
    parent's peak across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import fqs.cli

    if not os.path.abspath(fqs.cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        print(f"fqs imported from {fqs.cli.__file__}, not {spec['src']}", file=sys.stderr)
        return 2
    os.chdir(spec["workdir"])
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()

    out_dir, seconds = spec["out_dir"], spec["seconds"]
    digests = {}
    commands = []
    spent = 0.0
    while True:
        index = len(commands)
        warmup = index == 0
        traced = tracer is not None and index % 2 == 0 and not warmup
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        if traced:
            tracer.install()
            first_span = tracer.mark()
        load = os.getloadavg()[0]
        stdout, stderr, code, error, wall, cpu = _run_one(fqs.cli.main, spec["argv"])
        if traced:
            tracer.uninstall()
        files = _collect(out_dir)
        h = hashlib.sha256(stdout.encode("utf-8"))
        for name, data in files.items():
            h.update(b"\0" + name.encode("utf-8") + b"\0" + len(data).to_bytes(8, "little") + data)
        digest = h.hexdigest()
        if digest not in digests:
            digests[digest] = len(digests)
            keep = os.path.join(spec["outputs"], str(digests[digest]))
            os.makedirs(os.path.join(keep, "files"))
            with open(os.path.join(keep, "stdout.txt"), "w", encoding="utf-8", newline="") as fh:
                fh.write(stdout)
            for name, data in files.items():
                with open(os.path.join(keep, "files", name), "wb") as fh:
                    fh.write(data)
        rec = {"warmup": warmup, "traced": traced, "wall_s": wall / 1e9, "cpu_s": cpu / 1e9,
               "exit": code, "error": error, "stderr": stderr[-500:], "output": digests[digest],
               "loadavg_1m": load}
        if traced:
            rec["first_span"] = first_span
            rec["layers"] = tracer.command_summary(first_span, wall)
        commands.append(rec)
        if tracer is None:
            ref_after = _reference()
            if not warmup:
                rec["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
        if warmup:
            continue
        spent += wall / 1e9
        timed = [c["wall_s"] for c in commands if not c["warmup"]]
        typical = sorted(timed)[len(timed) // 2]
        if len(timed) >= spec["min_commands"] and spent + typical > seconds:
            break

    result = {"commands": commands, "peak_rss_kb": _peak_rss_kb()}
    if tracer is not None:
        result["hook_errors"] = tracer.hook_errors
        result["functions"] = tracer.names
        with gzip.open(spec["spans"], "wt", encoding="utf-8") as fh:
            json.dump({"functions": tracer.names,
                       "fields": ["function", "parent", "start_ns", "end_ns"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

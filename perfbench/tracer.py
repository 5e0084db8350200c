"""Spans around every public function of the fqs layers, recorded from outside.

``Tracer.install`` wraps each non-underscore function defined in a layer
module and rebinds every ``fqs.*`` module attribute that refers to the
same function object, so calls through ``from .sketch import ...`` names
are caught too.  Functions are found at run time: a function a later
version deletes simply records nothing.  ``uninstall`` restores the
originals.  Spans stay in memory; ``command_summary`` folds one
command's spans into per-layer self times, call counts and counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

LAYERS = ("sketch", "numerics", "distances", "central", "protocol", "wire", "serialize",
          "scenario", "sweep", "datasets")

# Reported counters; "cells" and "groups_aggregated" only feed the ratios.
COUNTERS = ("sketch.mixture_knots", "sketch.rows_sorted", "numerics.elements",
            "wire.bytes_decoded", "wire.bytes_encoded", "serialize.bytes_out",
            "datasets.rows_read", "scenario.rows_allocated")
_ALL_COUNTERS = COUNTERS + ("cells", "groups_aggregated")


def _messages(args, kwargs):
    return args[0] if args else kwargs["messages"]


# Work counted at a function boundary: layer.function -> hook(args, kwargs, result)
# returning {counter: increment}.
HOOKS: Dict[str, Callable[..., Dict[str, int]]] = {
    "protocol.server_audit": lambda a, kw, r: {
        "cells": sum(len(m.entries) for m in _messages(a, kw)),
        "groups_aggregated": len({lab for m in _messages(a, kw) for lab in m.entries}),
    },
    "sketch.mix_step_cdfs": lambda a, kw, r: {"sketch.mixture_knots": r.knots.size},
    "sketch.build_sketch": lambda a, kw, r: {"sketch.rows_sorted": r.count},
    "numerics.neumaier_sum": lambda a, kw, r: {"numerics.elements": np.size(a[0])},
    "numerics.neumaier_cumsum": lambda a, kw, r: {"numerics.elements": np.size(a[0])},
    "wire.decode_message": lambda a, kw, r: {"wire.bytes_decoded": len(a[0])},
    "wire.encode_message": lambda a, kw, r: {"wire.bytes_encoded": len(r)},
    "serialize.to_canonical_json": lambda a, kw, r: {"serialize.bytes_out": len(r.encode("utf-8"))},
    "serialize.write_csv": lambda a, kw, r: {"serialize.bytes_out": os.path.getsize(a[0])},
    "datasets.load_dataset": lambda a, kw, r: {"datasets.rows_read": r.scores.size},
    "scenario.allocate_random": lambda a, kw, r: {"scenario.rows_allocated": np.size(r)},
    "scenario.allocate_copula": lambda a, kw, r: {"scenario.rows_allocated": np.size(r)},
}


class Tracer:
    def __init__(self) -> None:
        # one span: (function index, parent span id or -1, start ns, end ns)
        self.spans: List[Tuple[int, int, int, int]] = []
        self.names: List[str] = []  # "layer.function" per function index
        self.counters: Dict[str, int] = dict.fromkeys(_ALL_COUNTERS, 0)
        self.hook_errors = 0
        self._stack: List[int] = []
        self._bindings: List[Tuple[object, str, Callable, Callable]] = []
        self._find_functions()

    def _find_functions(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module("fqs." + layer)
            except ImportError:
                continue
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    self.names.append(f"{layer}.{name}")
                    wrappers[fn] = self._wrap(fn, len(self.names) - 1)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "fqs" or modname.startswith("fqs.")):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._bindings.append((mod, attr, val, wrappers[val]))

    def _wrap(self, fn: Callable, index: int) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = HOOKS.get(self.names[index])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[span_id] = (index, parent, start, clock())
                stack.pop()
            if hook is not None:
                try:
                    for key, inc in hook(args, kwargs, result).items():
                        self.counters[key] += int(inc)
                except Exception:  # an API change must not break the command
                    self.hook_errors += 1
            return result

        return wrapper

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def mark(self) -> int:
        """Start of a command: reset counters and return the first span id."""
        self.counters = dict.fromkeys(_ALL_COUNTERS, 0)
        return len(self.spans)

    def command_summary(self, first_span: int, wall_ns: int) -> Dict[str, float]:
        """Per-layer self seconds and calls, counters and ratios of one command."""
        self_ns = dict.fromkeys(LAYERS, 0)
        calls = dict.fromkeys(LAYERS, 0)
        per_fn = [0] * len(self.names)
        top_ns = 0
        for index, parent, start, end in self.spans[first_span:]:
            layer = self.names[index].split(".", 1)[0]
            dur = end - start
            self_ns[layer] += dur
            calls[layer] += 1
            per_fn[index] += 1
            if parent < 0:
                top_ns += dur
            else:
                self_ns[self.names[self.spans[parent][0]].split(".", 1)[0]] -= dur
        out: Dict[str, float] = {"cli.self_s": (wall_ns - top_ns) / 1e9}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
            out[f"{layer}.calls"] = calls[layer]
        count = dict(zip(self.names, per_fn))
        c = self.counters
        out["sketch.step_cdfs_per_cell"] = (
            count.get("sketch.sketch_to_step_cdf", 0) / c["cells"] if c["cells"] else 0.0)
        out["sketch.mixtures_per_group"] = (
            count.get("sketch.mix_step_cdfs", 0) / c["groups_aggregated"] if c["groups_aggregated"] else 0.0)
        out.update((key, c[key]) for key in COUNTERS)
        return out

"""Traced passes: wrappers around symreach's public layer functions.

``Tracer.install`` rebinds each function everywhere a symreach module
holds it (the defining module and every ``from .x import f`` site, such
as ``symreach.reach`` and ``symreach.cli``), so calls inside the program go
through the wrapper.  A wrapper records a span (name, start, end, parent)
in memory and updates the counters of its layer; ``uninstall`` restores
the originals.  A function a later refactor removes is skipped, and its
metrics are absent from the result.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, metric prefix); Grid.boxes_to_cells is a method
TARGETS = [
    ("dynamics", "simulate_batch", "dynamics.simulate_batch"),
    ("geom", "fm_feasible", "geom.fm_feasible"),
    ("geom", "occupied_cells", "geom.occupied_cells"),
    ("geom", "Grid.boxes_to_cells", "geom.boxes_to_cells"),
    ("reach", "mode_reach", "reach.mode_reach"),
    ("reach", "compute_reachset", "reach.compute_reachset"),
    ("reach", "check_fixed_point", "reach.check_fixed_point"),
    ("reach", "transform_back", "reach.transform_back"),
    ("reach", "unbounded_verif", "reach.unbounded_verif"),
    ("abstraction", "construct_virtual_model",
     "abstraction.construct_virtual_model"),
    ("scenarios", "load_scenario", "scenarios.load_scenario"),
    ("scenarios", "build_automaton", "scenarios.build_automaton"),
    ("scenarios", "build_map", "scenarios.build_map"),
    ("cli", "write_reachtube_csv", "cli.write_reachtube_csv"),
    ("cli", "run", "cli.run"),
]

# reported per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "dynamics.simulate_batch.self_s": ("s", "lower"),
    "dynamics.simulate_batch.calls": ("count", "lower"),
    "dynamics.rk4_row_steps": ("count", "lower"),
    "dynamics.batch_rows_max": ("count", "higher"),
    "geom.fm_feasible.self_s": ("s", "lower"),
    "geom.fm_feasible.calls": ("count", "lower"),
    "geom.occupied_cells.self_s": ("s", "lower"),
    "geom.occupied_cells.calls": ("count", "lower"),
    "geom.boxes_to_cells.self_s": ("s", "lower"),
    "geom.boxes_to_cells.calls": ("count", "lower"),
    "geom.boxes_to_cells.boxes_in": ("count", "lower"),
    "reach.mode_reach.self_s": ("s", "lower"),
    "reach.mode_reach.calls": ("count", "lower"),
    "reach.co": ("count", "lower"),
    "reach.re": ("count", "higher"),
    "reach.cp": ("count", "higher"),
    "reach.tube_hit_ratio": ("ratio", "higher"),
    "reach.compute_reachset.calls": ("count", "lower"),
    "reach.check_fixed_point.self_s": ("s", "lower"),
    "reach.transform_back.self_s": ("s", "lower"),
    "reach.transform_back.segments": ("count", "lower"),
    "reach.unbounded_verif.self_s": ("s", "lower"),
    "abstraction.construct_virtual_model.calls": ("count", "lower"),
    "abstraction.construct_virtual_model.self_s": ("s", "lower"),
    "scenarios.load_scenario.self_s": ("s", "lower"),
    "scenarios.build_automaton.self_s": ("s", "lower"),
    "scenarios.build_map.self_s": ("s", "lower"),
    "cli.write_reachtube_csv.self_s": ("s", "lower"),
    "cli.csv_rows": ("count", "lower"),
    "cli.csv_bytes": ("B", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _simulate_batch(c, args, res):
    rows, samples = res.shape[0], res.shape[1]
    c["dynamics.rk4_row_steps"] += rows * (samples - 1)
    c["dynamics.batch_rows_max"] = max(c["dynamics.batch_rows_max"], rows)


def _boxes_to_cells(c, args, res):
    c["geom.boxes_to_cells.boxes_in"] += np.atleast_2d(args[1]).shape[0]


def _compute_reachset(c, args, res):
    c["reach.co"] += res.metrics.co
    c["reach.re"] += res.metrics.re
    c["reach.cp"] += res.metrics.cp


def _transform_back(c, args, res):
    c["reach.transform_back.segments"] += len(res)


def _write_csv(c, args, res):
    c["cli.csv_rows"] += len(args[1])
    c["cli.csv_bytes"] += os.path.getsize(args[0])


# counters derived from a wrapped call: prefix -> (fn(counters, args,
# result), the counter names it fills)
COUNT_HOOKS = {
    "dynamics.simulate_batch": (_simulate_batch, ("dynamics.rk4_row_steps",
                                                  "dynamics.batch_rows_max")),
    "geom.boxes_to_cells": (_boxes_to_cells, ("geom.boxes_to_cells.boxes_in",)),
    "reach.compute_reachset": (_compute_reachset, ("reach.co", "reach.re",
                                                   "reach.cp")),
    "reach.transform_back": (_transform_back, ("reach.transform_back.segments",)),
    "cli.write_reachtube_csv": (_write_csv, ("cli.csv_rows", "cli.csv_bytes")),
}


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent] of this pass
        self.counters = Counter()
        self._stack = []
        self._restore = []
        self.wrapped = set()

    def _wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name, (None,))[0]
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, res)
            return res

        return wrapper

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if n == "symreach" or n.startswith("symreach.")]
        for module, attr, name in TARGETS:
            owner = sys.modules.get(f"symreach.{module}")
            *path, last = attr.split(".")
            for p in path:
                owner = getattr(owner, p, None)
            orig = getattr(owner, last, None)
            if not callable(orig):
                continue
            w = self._wrap(name, orig)
            self.wrapped.add(name)
            holders = [owner] if path else [
                m for m in mods if any(v is orig for v in vars(m).values())]
            for h in holders:
                for k, v in list(vars(h).items()):
                    if v is orig:
                        setattr(h, k, w)
                        self._restore.append((h, k, orig))

    def uninstall(self) -> None:
        for h, k, orig in reversed(self._restore):
            setattr(h, k, orig)
        self._restore.clear()

    def op_span(self, name: str):
        """Open a top-level span for one operation; returns its closer."""
        span = [f"op:{name}", time.perf_counter(), 0.0, -1]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)

        def close():
            span[2] = time.perf_counter()
            self._stack.pop()
        return close

    def take_pass(self):
        """Per-layer figures of the pass traced since the last call, and its
        spans; both are then reset for the next pass."""
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return layer_metrics(spans, counters, self.wrapped), spans


def layer_metrics(spans, counters, wrapped) -> dict:
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s, calls = defaultdict(float), Counter()
    for (name, t0, t1, _), c in zip(spans, child):
        self_s[name] += (t1 - t0) - c
        calls[name] += 1
    out = {}
    for name in wrapped:
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
        for k in COUNT_HOOKS.get(name, (None, ()))[1]:
            out[k] = counters.get(k, 0)
    if "reach.compute_reachset" in wrapped:
        base = out["reach.co"] + out["reach.re"]
        out["reach.tube_hit_ratio"] = out["reach.re"] / base if base else 0.0
    return {k: v for k, v in out.items() if k in PER_LAYER}

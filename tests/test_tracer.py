"""The benchmark's tracer (``perfbench/tracing.py``, loaded from its file
and left as it is) around an in-process one-scenario matrix and one run:
no counting hook raises, every per-layer metric is reported, and the
figures are strict JSON."""

import importlib.util
import json
import os
import shutil

from symreach.cli import main

from conftest import scenario_path

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_matrix_and_run(tmp_path, capsys):
    tracing = _tracing()
    raised = []

    def recording(hook):
        def call(*args):
            try:
                return hook(*args)
            except Exception as exc:
                raised.append(exc)
                raise
        return call

    for name, (hook, filled) in list(tracing.COUNT_HOOKS.items()):
        tracing.COUNT_HOOKS[name] = (recording(hook), filled)
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    shutil.copy(scenario_path("rectangle_road.scn"), scenarios)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["matrix", str(scenarios), "--maps", "t",
                     "--out", str(tmp_path / "m")]) == 0
        assert main(["run", scenario_path("infinite_s.scn"),
                     "--out", str(tmp_path / "r")]) == 0
    finally:
        tracer.uninstall()
    assert raised == []
    assert capsys.readouterr().err == ""   # no row failed
    layers, _ = tracer.take_pass()
    assert set(tracing.PER_LAYER) - set(layers) == {"trace.overhead_s"}
    json.dumps(layers, allow_nan=False)
    # the matrix's walks go in lockstep, the run's through compute_reachset
    assert layers["reach.compute_reachset.calls"] == 1
    assert layers["reach.mode_reach.calls"] > 0
    assert layers["dynamics.batch_rows_max"] > 0
    assert layers["cli.csv_rows"] > 0

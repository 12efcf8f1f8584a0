"""Scenario loading, run artifacts, the batch matrix, and exit codes."""

import glob
import json
import math
import os
import pickle
import signal
import time

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symreach.cli import main, run, run_matrix, format_table
from symreach.scenarios import (ScenarioError, build_automaton, build_map,
                                load_scenario)

from conftest import scenario_path


class TestLoadScenario:
    def test_shipped_rectangle_values(self):
        s = load_scenario(scenario_path("rectangle.scn"))
        assert s.name == "rectangle"
        assert s.mode_style == "waypoint"
        assert np.allclose(s.eps0, [1.0, 1.4])
        assert np.allclose(s.eps1, [0.6, 1.0])
        a = build_automaton(s)
        assert len(a.modes) == 4

    def test_defaults_applied(self, tmp_path):
        p = tmp_path / "min.scn"
        p.write_text(json.dumps({
            "schema_version": 1, "name": "m", "dynamics": "robot",
            "mode_style": "road", "path_kind": "s_shaped"}))
        s = load_scenario(str(p))
        assert s.dt == 0.01
        assert np.allclose(s.cell_width, [0.2, 0.2, np.pi / 16])

    def test_negative_cell_width_rejected(self, tmp_path):
        p = tmp_path / "bad.scn"
        p.write_text(json.dumps({
            "schema_version": 1, "name": "b", "dynamics": "robot",
            "mode_style": "road", "path_kind": "s_shaped",
            "grid_width": [-0.2, 0.2, 0.2]}))
        with pytest.raises(ScenarioError, match="grid_width"):
            load_scenario(str(p))

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "bad.scn"
        p.write_text(json.dumps({
            "schema_version": 1, "name": "b", "dynamics": "robot",
            "mode_style": "road", "path_kind": "s_shaped", "wat": 1}))
        with pytest.raises(ScenarioError, match="wat"):
            load_scenario(str(p))

    def test_missing_schema_version_rejected(self, tmp_path):
        p = tmp_path / "bad.scn"
        p.write_text(json.dumps({
            "name": "b", "dynamics": "robot",
            "mode_style": "road", "path_kind": "s_shaped"}))
        with pytest.raises(ScenarioError, match="schema_version"):
            load_scenario(str(p))

    def test_broken_custom_chain_rejected(self, tmp_path):
        p = tmp_path / "bad.scn"
        p.write_text(json.dumps({
            "schema_version": 1, "name": "b", "dynamics": "robot",
            "mode_style": "road", "path_kind": "custom",
            "geometry": {"roads": [[0, 0, 3, 0], [4, 0, 6, 0]]}}))
        from symreach.automaton import DisconnectedPath
        with pytest.raises(DisconnectedPath):
            build_automaton(load_scenario(str(p)))

    def test_dynamics_constants_file(self, tmp_path):
        side = tmp_path / "consts.json"
        side.write_text(json.dumps({"v": 2.0, "L": 0.7}))
        p = tmp_path / "s.scn"
        p.write_text(json.dumps({
            "schema_version": 1, "name": "s", "dynamics": "robot",
            "mode_style": "road", "path_kind": "s_shaped",
            "dynamics_file": "consts.json"}))
        s = load_scenario(str(p))
        assert s.speed == 2.0 and s.length == 0.7


class TestRunArtifacts:
    def test_rectangle_report_structure(self, tmp_path):
        s = load_scenario(scenario_path("rectangle.scn"))
        rep = run(s, str(tmp_path / "out"))
        assert rep.n_modes_v == 1 and rep.n_edges_v == 1
        for f in ("av_structure.txt", "reachtube.csv", "metrics.txt",
                  "report.json"):
            assert os.path.exists(tmp_path / "out" / f)
        cols = rep.columns()
        assert cols["#m/e"] == "1/1"
        assert set(cols) >= {"#co", "#re", "#cp", "#tot.", "time", "error"}

    def test_csv_deterministic(self, tmp_path):
        s = load_scenario(scenario_path("s_shaped.scn"))
        run(s, str(tmp_path / "a"))
        run(s, str(tmp_path / "b"))
        csv_a = (tmp_path / "a" / "reachtube.csv").read_bytes()
        csv_b = (tmp_path / "b" / "reachtube.csv").read_bytes()
        assert csv_a == csv_b
        ma = [l for l in (tmp_path / "a" / "metrics.txt").read_text().splitlines()
              if not l.startswith("time_s")]
        mb = [l for l in (tmp_path / "b" / "metrics.txt").read_text().splitlines()
              if not l.startswith("time_s")]
        assert ma == mb

    def test_csv_header_and_provenance(self, tmp_path):
        s = load_scenario(scenario_path("s_shaped.scn"))
        run(s, str(tmp_path / "out"))
        lines = (tmp_path / "out" / "reachtube.csv").read_text().splitlines()
        assert lines[0] == ("path_index,virtual_mode_index,t_lo,t_hi,"
                            "lo_0,lo_1,lo_2,hi_0,hi_1,hi_2,provenance")
        provs = {l.rsplit(",", 1)[1] for l in lines[1:]}
        assert provs <= {"co", "re", "cp"}
        assert "cp" in provs


class TestMatrix:
    def test_empty_method_list_empty_table(self, tmp_path):
        reports = run_matrix([scenario_path("s_shaped.scn")], [], ["t"],
                             str(tmp_path / "m"))
        assert reports == []
        assert format_table(reports).count("\n") == 0

    def test_ns_row_computed_once(self, tmp_path, monkeypatch):
        # the NS row's report carries the error baseline of the other rows;
        # rows may run in forked workers, so walks are appended to a file
        import symreach.cli as cli
        log = tmp_path / "calls"
        log.touch()
        real = cli.walk

        def counting(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(args[4] + "\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "walk", counting)
        reports = run_matrix([scenario_path("s_shaped.scn")],
                             ["ns", "sc", "sv"], ["t", "tr"],
                             str(tmp_path / "m"))
        calls = log.read_text().split()
        assert sorted(calls) == ["ns", "sc", "sc", "sv", "sv"]
        assert all(r.columns()["error"] != "-" for r in reports[1:])


def _without_time(name: str, data: bytes) -> bytes:
    """A row file with its wall-time field dropped."""
    if name == "report.json":
        report = json.loads(data)
        report.pop("time")
        return json.dumps(report, sort_keys=True).encode()
    if name == "metrics.txt":
        return b"\n".join(line for line in data.split(b"\n")
                          if not line.startswith(b"time_s"))
    return data


def _robot_rows(name: str) -> list:
    """A robot scenario's NS, SC/T and SV/T rows, as ``run_matrix`` makes
    them."""
    from dataclasses import replace
    base = load_scenario(scenario_path(f"{name}.scn"))
    return [(f"{name}-ns", replace(base, method="ns"))] + [
        (f"{name}-{m}-t", replace(base, method=m, map_kind="t"))
        for m in ("sc", "sv")]


def _standalone_rows(rows, out) -> None:
    """Each row through ``run``, the symmetry rows with the NS baseline."""
    baseline = None
    for tag, s in rows:
        rep = run(s, str(out / tag), baseline)
        baseline = baseline or rep.init_volumes


class TestLockstepRows:
    """A scenario task's walks go in lockstep rounds; each row writes what
    it writes on its own."""

    @pytest.mark.parametrize("name,calls", [
        ("rectangle", 9), ("rectangle_road", 6), ("s_shaped", 16)])
    def test_merged_calls_and_standalone_files(self, tmp_path, monkeypatch,
                                               name, calls):
        # 18, 12 and 21 calls when the rows walk one after another (and
        # SV found SC's batches in a store)
        import symreach.cli as cli
        import symreach.reach as reach
        rows = _robot_rows(name)
        real = reach.simulate_batch
        made = []

        def counting(*args):
            made.append(args[1].shape[0])
            return real(*args)

        monkeypatch.setattr(reach, "simulate_batch", counting)
        outcome = cli._run_scenario(rows, str(tmp_path / "task"))
        monkeypatch.setattr(reach, "simulate_batch", real)
        assert [type(o) for o in outcome] == [cli.RunReport] * 3
        assert len(made) == calls
        _standalone_rows(rows, tmp_path / "alone")
        for tag, _ in rows:
            files = sorted(os.listdir(tmp_path / "task" / tag))
            assert files == sorted(os.listdir(tmp_path / "alone" / tag))
            assert {"report.json", "reachtube.csv"} <= set(files)
            for f in files:
                got = (tmp_path / "task" / tag / f).read_bytes()
                want = (tmp_path / "alone" / tag / f).read_bytes()
                assert _without_time(f, got) == _without_time(f, want), f

    @pytest.mark.parametrize("failing", ["ns", "sc", "sv"])
    def test_raising_walk_fails_its_row_alone(self, tmp_path, monkeypatch,
                                              failing):
        # the walk raises after its first segment, when the others have
        # taken one merged round with it
        import symreach.cli as cli
        rows = _robot_rows("rectangle_road")
        real = cli.walk

        def walk(*args, **kw):
            steps = real(*args, **kw)
            if args[4] != failing:
                return steps

            def broken():
                yield next(steps)
                raise RuntimeError("walk failed")
            return broken()

        monkeypatch.setattr(cli, "walk", walk)
        outcome = cli._run_scenario(rows, str(tmp_path / "task"))
        monkeypatch.setattr(cli, "walk", real)
        _standalone_rows(rows, tmp_path / "alone")
        for (tag, s), got in zip(rows, outcome):
            files = sorted(os.listdir(tmp_path / "task" / tag))
            if s.method == failing:
                assert isinstance(got, RuntimeError)
                assert "report.json" not in files
                continue
            assert isinstance(got, cli.RunReport)
            # a failed NS row leaves no baseline: no error column then
            assert (got.metrics.error_pct is None) == (
                failing == "ns" or s.method == "ns")
            assert files == sorted(os.listdir(tmp_path / "alone" / tag))
            for f in files:
                if failing == "ns" and f in ("report.json", "metrics.txt"):
                    continue   # the error column, checked above
                want = (tmp_path / "alone" / tag / f).read_bytes()
                assert _without_time(f, (tmp_path / "task" / tag /
                                         f).read_bytes()) == \
                    _without_time(f, want), f"{tag}/{f}"


def _table_without_time(text: str) -> list:
    rows = [line.split() for line in text.rstrip("\n").split("\n")]
    at = rows[0].index("time")
    return [row[:at] + row[at + 1:] for row in rows]


def _no_child_left():
    """No child of this process is left, exited or running, but
    multiprocessing's resource tracker: a spawn-context pool run earlier in
    the session (``golden.collect``) starts it, and it outlives the pool."""
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker._pid
    if tracker is None:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return
    children = []
    for f in glob.glob("/proc/self/task/*/children"):
        with open(f) as fh:
            children += map(int, fh.read().split())
    assert children == [tracker]


def _fork_each_outcomes(tmp_path, work=lambda i: -i):
    """``cli._fork_each`` over the tasks 0..4, part files in ``tmp_path``."""
    from symreach import cli
    return cli._fork_each(range(5), work, str(tmp_path / "task"))


class TestMatrixRowsAtOnce:
    """Rows run here and in forked children; the outputs are the serial
    runs' outputs."""

    def test_rows_equal_serial_runs(self, tmp_path, monkeypatch):
        from dataclasses import replace
        import symreach.cli as cli
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        log = tmp_path / "pids"
        log.touch()
        real = cli._finish

        def logged(row, result, ns_baseline=None):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(row, result, ns_baseline)

        monkeypatch.setattr(cli, "_finish", logged)
        names = ("s_shaped", "koch")
        reports = run_matrix([scenario_path(f"{n}.scn") for n in names],
                             ["ns", "sc", "sv"], ["t", "tr"],
                             str(tmp_path / "m"))
        monkeypatch.setattr(cli, "_finish", real)
        _no_child_left()
        pids = log.read_text().split()
        assert len(pids) == 10 and set(pids) - {str(os.getpid())}

        serial = []
        for name in names:
            base = load_scenario(scenario_path(f"{name}.scn"))
            ns = run(replace(base, method="ns"), str(tmp_path / "s" /
                                                     f"{name}-ns"))
            serial.append(ns)
            for method in ("sc", "sv"):
                for mk in ("t", "tr"):
                    tag = f"{name}-{method}-{mk}"
                    serial.append(run(
                        replace(base, method=method, map_kind=mk),
                        str(tmp_path / "s" / tag),
                        ns_baseline=ns.init_volumes))
        assert [(r.scenario, r.method, r.map_kind) for r in reports] == \
            [(r.scenario, r.method, r.map_kind) for r in serial]
        rows = sorted(os.listdir(tmp_path / "s"))
        assert sorted(d for d in os.listdir(tmp_path / "m")
                      if d != "matrix.txt") == rows
        for row in rows:
            files = sorted(os.listdir(tmp_path / "s" / row))
            assert sorted(os.listdir(tmp_path / "m" / row)) == files
            for f in files:
                got = (tmp_path / "m" / row / f).read_bytes()
                want = (tmp_path / "s" / row / f).read_bytes()
                assert _without_time(f, got) == _without_time(f, want), \
                    f"{row}/{f}"
        assert _table_without_time(
            (tmp_path / "m" / "matrix.txt").read_text()) == \
            _table_without_time(format_table(serial))

    def test_dead_row_runs_here(self, tmp_path, monkeypatch):
        # with four CPUs, the first three scenarios go to children, and
        # every child dies, at a different row: killed by a signal (NS),
        # exiting non-zero (SC), or raising SystemExit (SV); each such
        # scenario then runs in the caller, whose code after the matrix
        # runs once.  A child interpreter with a timeout runs it: a hang
        # must fail, not stall the suite
        import subprocess
        import sys
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            __import__("symreach").__file__)))
        paths = [scenario_path(f"{name}.scn") for name in
                 ("koch", "rectangle_road", "random", "rectangle")]
        code = f"""
import os, signal, sys
sys.path.insert(0, {src!r})
from symreach import cli
os.sched_getaffinity = lambda pid: {{0, 1, 2, 3}}
parent, real = os.getpid(), cli._finish
dies = {{"koch": "ns", "rectangle_road": "sc", "random": "sv"}}

def finish(row, result, ns_baseline=None):
    s = row[0]
    if os.getpid() != parent and dies.get(s.name) == s.method:
        with open({str(tmp_path / "died")!r}, "a") as fh:
            fh.write(s.method + "\\n")
        if s.method == "ns":
            os.kill(os.getpid(), signal.SIGKILL)
        if s.method == "sc":
            os._exit(1)
        raise SystemExit(0)
    return real(row, result, ns_baseline)

cli._finish = finish
reports = cli.run_matrix({paths!r}, ["ns", "sc", "sv"], ["t"],
                         {str(tmp_path / "m")!r})
print(os.getpid() == parent)
print([(r.method, r.columns()["error"]) for r in reports])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""
        proc = subprocess.run([sys.executable, "-c", code], timeout=120,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        import ast
        once, rows, left = proc.stdout.splitlines()[-3:]
        assert (once, left) == ("True", "no child left")
        rows = ast.literal_eval(rows)
        assert [m for m, _ in rows] == ["ns", "sc", "sv"] * 4
        assert all((m == "ns") == (e == "-") for m, e in rows)
        assert sorted((tmp_path / "died").read_text().split()) == [
            "ns", "sc", "sv"]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        run_matrix(paths, ["ns", "sc", "sv"], ["t"], str(tmp_path / "s"))
        for row in os.listdir(tmp_path / "s"):
            if row == "matrix.txt":
                continue
            for f in os.listdir(tmp_path / "s" / row):
                got = (tmp_path / "m" / row / f).read_bytes()
                want = (tmp_path / "s" / row / f).read_bytes()
                assert _without_time(f, got) == _without_time(f, want)
        assert _table_without_time(
            (tmp_path / "m" / "matrix.txt").read_text()) == \
            _table_without_time((tmp_path / "s" / "matrix.txt").read_text())

    def test_scheduler_stress(self, tmp_path):
        # more workers than cores, a short switch interval and rows of
        # random length: every row runs once, after its NS row and with
        # its baseline, five matrices in a row; a lost update would hang,
        # so a child interpreter runs it under a timeout
        import ast
        import subprocess
        import sys
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            __import__("symreach").__file__)))
        code = f"""
import os, random, sys, time
sys.path.insert(0, {src!r})
from symreach import cli
from symreach.reach import Metrics
os.sched_getaffinity = lambda pid: set(range(5))
sys.setswitchinterval(1e-6)
log = {str(tmp_path / "log")!r}

def finish(row, result, ns_baseline=None):
    s, out_dir = row[:2]
    time.sleep(random.random() * 0.02)
    tag = os.path.basename(out_dir)
    with open(log, "a") as fh:
        fh.write(f"{{tag}} {{ns_baseline}}\\n")
    return cli.RunReport(s.name, s.method, s.map_kind, None, None,
                         Metrics(), "n/a",
                         [float(len(s.name))] if s.method == "ns" else None)

def no_walk(*args, **kw):
    return iter(())

cli._start = lambda s, out_dir: ((s, out_dir), ())
cli.walk = no_walk
cli._finish = finish
scn = {os.path.dirname(scenario_path("koch.scn"))!r}
paths = sorted(os.path.join(scn, f) for f in os.listdir(scn))
for k in range(5):
    reports = cli.run_matrix(paths, ["ns", "sc", "sv"], ["t", "tr"],
                             os.path.join({str(tmp_path)!r}, f"m{{k}}"))
    print([(r.scenario, r.method, r.map_kind) for r in reports])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("children 0")
"""
        proc = subprocess.run([sys.executable, "-c", code], timeout=120,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        *tables, children = proc.stdout.splitlines()
        assert children == "children 0"
        rows = [line for line in tables if line.startswith("[")]
        assert len(rows) == 5 and len(set(rows)) == 1
        order = ast.literal_eval(rows[0])
        names = [n for n, m, _ in order if m == "ns"]
        assert len(order) == 33 and len(names) == 7
        runs = (tmp_path / "log").read_text().splitlines()
        assert len(runs) == 5 * 33
        for name, method, mk in order:
            tag = f"{name}-ns" if method == "ns" else f"{name}-{method}-{mk}"
            want = "None" if method == "ns" else str([float(len(name))])
            assert runs.count(f"{tag} {want}") == 5, tag

    def test_one_cpu_forks_nothing(self, tmp_path, monkeypatch):
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", fork)
        reports = run_matrix([scenario_path("rectangle_road.scn")],
                             ["ns", "sc", "sv"], ["t"], str(tmp_path / "m"))
        assert [r.method for r in reports] == ["ns", "sc", "sv"]
        assert forks == []
        _no_child_left()

    def test_one_task_per_cpu(self, tmp_path, monkeypatch):
        # two CPUs and five tasks ready at once: this process runs tasks
        # beside one line of children, whose second child starts only once
        # the first has exited, so no more than two tasks ever run
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        log = tmp_path / "log"

        def work(i):
            t0 = time.monotonic()
            time.sleep(0.1)
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {t0} {time.monotonic()}\n")
            return -i

        assert _fork_each_outcomes(tmp_path, work) == \
            [-i for i in range(5)]
        spans = [line.split() for line in log.read_text().splitlines()]
        assert {pid for pid, _, _ in spans} - {str(os.getpid())}
        for _, t0, _ in spans:
            assert sum(float(a) <= float(t0) < float(b)
                       for _, a, b in spans) <= 2
        assert os.listdir(tmp_path) == ["log"]
        _no_child_left()

    def test_cli_imports_no_thread_or_pool(self):
        import ast
        import symreach.cli as cli
        with open(cli.__file__) as fh:
            tree = ast.parse(fh.read())
        names = {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names}
        names |= {node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module}
        assert not {n.split(".")[0] for n in names} & {
            "threading", "concurrent", "multiprocessing"}


class TestForkEach:
    """A task whose child dies, or that cannot be forked, runs here; a
    raising caller leaves no child and no part file; one CPU, or a
    platform without the affinity call or fork, forks nothing."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Three CPUs; the forks this process makes."""
        made = []
        real_fork = os.fork

        def fork():
            made.append(1)
            return real_fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "fork", fork)
        return made

    @pytest.mark.parametrize("how", ["before", "partial", "killed"])
    def test_dead_child_task_runs_here(self, tmp_path, monkeypatch, forks,
                                       how):
        def dying(outcome, fh):   # only children pickle
            if how == "before":
                os._exit(1)
            fh.write(pickle.dumps(outcome)[:3])
            fh.flush()
            if how == "partial":
                os._exit(1)
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(pickle, "dump", dying)
        assert _fork_each_outcomes(tmp_path) == \
            [-i for i in range(5)]
        assert len(forks) >= 2 and os.listdir(tmp_path) == []
        _no_child_left()

    def test_fork_failure_task_runs_here(self, tmp_path, monkeypatch):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "fork", no_fork)
        assert _fork_each_outcomes(tmp_path) == [-i for i in range(5)]
        assert os.listdir(tmp_path) == []

    def test_raising_caller_kills_its_children(self, tmp_path, monkeypatch,
                                               forks):
        # the children stall halfway through their part files; an alarm
        # raises in the caller while it waits for them
        def stalled(outcome, fh):
            fh.write(pickle.dumps(outcome)[:3])
            fh.flush()
            time.sleep(60)

        monkeypatch.setattr(pickle, "dump", stalled)
        def alarm(signum, frame):
            raise RuntimeError("caller failed")

        previous = signal.signal(signal.SIGALRM, alarm)
        t0 = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pytest.raises(RuntimeError, match="caller failed"):
                _fork_each_outcomes(tmp_path)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - t0 < 30
        assert len(forks) >= 2 and os.listdir(tmp_path) == []
        _no_child_left()

    @pytest.mark.parametrize("missing", [None, "sched_getaffinity", "fork"])
    def test_nothing_forked(self, monkeypatch, tmp_path, missing):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0} if missing is None else {0, 1})
        forks = []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1))
        if missing:
            monkeypatch.delattr(os, missing)
        assert _fork_each_outcomes(tmp_path) == [-i for i in range(5)]
        assert forks == []

    def test_matrix_rows_fork_no_writer(self, monkeypatch, tmp_path):
        # each fork is logged, from every process, with the pid of the
        # process that forked
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        log = tmp_path / "forks"
        log.touch()
        real_fork = os.fork

        def fork():
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        reports = run_matrix([scenario_path("rectangle_road.scn"),
                              scenario_path("rectangle.scn")],
                             ["ns", "sc", "sv"], ["t"], str(tmp_path / "m"))
        assert [r.method for r in reports] == ["ns", "sc", "sv"] * 2
        # one fork, here: rectangle_road's child, which forked nothing;
        # rectangle's rows ran here beside it
        assert log.read_text().split() == [str(os.getpid())]
        # a run forks nothing
        assert main(["run", scenario_path("rectangle_road.scn"),
                     "--out", str(tmp_path / "r")]) == 0
        assert log.read_text().split() == [str(os.getpid())]
        _no_child_left()


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        assert main(["run", "/nonexistent.scn"]) == 3

    def test_ok_run(self, tmp_path, capsys):
        code = main(["run", scenario_path("s_shaped.scn"),
                     "--out", str(tmp_path / "o")])
        assert code == 0

    def test_unknown_verdict_exit_code(self, tmp_path, capsys):
        raw = json.loads(open(scenario_path("s_shaped.scn")).read())
        raw["unsafe"] = [[[-1.0, -1.0, -6.3], [1.0, 1.0, 6.3]]]
        p = tmp_path / "unsafe.scn"
        p.write_text(json.dumps(raw))
        code = main(["run", str(p), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("method", ["ns", "sc"])
    def test_unbounded_scenario_unknown_without_verifier(self, tmp_path,
                                                         capsys, method):
        # the unsafe box lies on road 20, beyond the 16 materialized roads
        # that ns and sc walk; only the sv verifier looks past them.  The
        # matrix runs ns and sc rows of an infinite scenario; the command
        # line rejects them (test_bad_override_is_input_error)
        from dataclasses import replace
        raw = json.loads(open(scenario_path("infinite_s.scn")).read())
        raw["unsafe"] = [[[5.5, 159.5, -6.3], [6.5, 160.5, 6.3]]]
        p = tmp_path / "road20.scn"
        p.write_text(json.dumps(raw))
        out = tmp_path / "o"
        rep = run(replace(load_scenario(str(p)), method=method), str(out))
        assert rep.verdict == "Unknown"
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "Unknown"

    @pytest.mark.parametrize("jmax", [[], ["--jmax", "5"]])
    def test_unbounded_sv_without_fixed_point_exits_4(self, tmp_path, capsys,
                                                      monkeypatch, jmax):
        # the sv walk of an infinite path spends its whole segment budget,
        # whatever --jmax says, and no tube is written
        import symreach.reach as reach
        from symreach.abstraction import construct_virtual_model
        monkeypatch.setattr(reach, "check_fixed_point", lambda *args: False)
        s = load_scenario(scenario_path("infinite_s.scn"))
        va = construct_virtual_model(build_automaton(s), build_map(s, s.dyn()))
        budget = 10 * len(va.auto.modes) * len(va.auto.edges)
        out = tmp_path / "o"
        assert main(["run", scenario_path("infinite_s.scn"), *jmax,
                     "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"numerical failure: no fixed point within {budget} segments\n")
        assert not (out / "reachtube.csv").exists()

    @pytest.mark.parametrize("dt", ["1e-300", "1e-7"])
    @pytest.mark.parametrize("cmd", ["run", "check-fsr"])
    def test_step_of_too_many_samples_is_input_error(self, tmp_path, capsys,
                                                     dt, cmd):
        # rejected before a sample is allocated: 1e-300 asked numpy for an
        # array of 5e300 rows, and 1e-7 would integrate 5e7 steps
        argv = [cmd, scenario_path("rectangle.scn")]
        if cmd == "run":
            argv += ["--dt", dt, "--out", str(tmp_path / "o")]
        else:
            argv = [cmd, str(_edited(tmp_path, "rectangle.scn",
                                     {"dt": float(dt)}))]
        t0 = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"input error: dt: {float(dt)!r} takes ")
        assert err.endswith("more than 20,000 per segment\n")
        assert not (tmp_path / "o" / "reachtube.csv").exists()

    def test_step_at_the_sample_ceiling_builds(self):
        # the longest time bound over dt may reach the ceiling, not pass it
        from dataclasses import replace
        from symreach.scenarios import MAX_SEGMENT_STEPS
        s = load_scenario(scenario_path("s_shaped.scn"))
        T = max(build_automaton(s).time_bounds)
        build_automaton(replace(s, dt=T / MAX_SEGMENT_STEPS))
        with pytest.raises(ScenarioError, match="^dt: "):
            build_automaton(replace(s, dt=T / MAX_SEGMENT_STEPS * 0.999))

    def test_unbounded_sv_without_unsafe_set_is_na(self, tmp_path, capsys):
        out = tmp_path / "o"
        p = _edited(tmp_path, "infinite_s.scn", {"unsafe": []})
        assert main(["run", str(p), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())[
            "verdict"] == "n/a"

    @pytest.mark.parametrize("override,rule", [
        (["--dt", "0"], "dt: must be positive"),
        (["--dt", "-0.01"], "dt: must be positive"),
        (["--dt", "nan"], "dt: must be positive"),
        (["--dt", "abc"], "--dt: 'abc' is not a number"),
        (["--grid", "0"], "grid_width: need three positive entries"),
        (["--jmax", "abc"], "jmax: 'abc' is not an integer or 'inf'"),
        (["--jmax", "-2"], "jmax: must be nonnegative or 'inf'"),
        (["--method", "ns"], "infinite scenarios need method sv"),
        (["--method", "sc"], "infinite scenarios need method sv"),
    ])
    def test_bad_override_is_input_error(self, tmp_path, capsys, override,
                                         rule):
        # the command line's overrides meet the same field rules as a file
        out = tmp_path / "o"
        code = main(["run", scenario_path("infinite_s.scn"), *override,
                     "--out", str(out)])
        assert code == 3
        assert f"input error: command line: {rule}" in capsys.readouterr().err
        assert not (out / "reachtube.csv").exists()

    def test_valid_overrides_run(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["run", scenario_path("s_shaped_linear.scn"), "--method",
                     "ns", "--grid", "0.2", "--dt", "0.02", "--jmax", "2",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["sym"] == "NS" and report["#co"] > 0

    @pytest.mark.parametrize("name", sorted(
        f for f in os.listdir(os.path.join(os.path.dirname(__file__), "..",
                                           "scenarios"))
        if f.endswith(".scn")))
    def test_shipped_scenarios_pass_the_field_rules(self, name):
        from symreach.scenarios import validate_scenario
        s = load_scenario(scenario_path(name))
        assert validate_scenario(s, "command line") is s

    def test_unpackable_cells_are_input_error(self, tmp_path, capsys):
        # no domain: the default one admits a start whose cells lie beyond
        # the packable index range of the grid
        raw = json.loads(open(scenario_path("s_shaped.scn")).read())
        raw["init_center"] = [300000.0, 0.0, 0.0]
        del raw["domain"]
        p = tmp_path / "far.scn"
        p.write_text(json.dumps(raw))
        code = main(["run", str(p), "--method", "ns",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "input error: cell index exceeds" in capsys.readouterr().err

    def test_disconnected_road_chain_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.scn"
        p.write_text(json.dumps({
            "schema_version": 1, "name": "b", "dynamics": "robot",
            "mode_style": "road", "path_kind": "custom",
            "geometry": {"roads": [[0, 0, 3, 0], [4, 0, 6, 0]]}}))
        code = main(["run", str(p), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "input error: road 0 does not end" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,rule", [
        (["run", "rectangle_road.scn", "--out", "{file}"], "File exists"),
        (["matrix", "{missing}"], "No such file or directory"),
        (["matrix", "koch.scn"], "Not a directory"),
    ])
    def test_unusable_path_is_input_error(self, tmp_path, capsys, argv, rule):
        (tmp_path / "file").touch()
        argv = [scenario_path(a) if a.endswith(".scn") else
                a.format(file=tmp_path / "file", missing=tmp_path / "none")
                for a in argv]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and rule in err

    @pytest.mark.parametrize("methods,maps,rule", [
        ("sv,zz", "q", "--methods: invalid choice: 'zz'"),
        ("ns,sc", "t,q", "--maps: invalid choice: 'q'"),
        ("", "t", "--methods: invalid choice: ''"),
        ("sv,sv,ns", "t,t", "--methods: repeated choice 'sv'"),
        ("sv", "t,tr,t", "--maps: repeated choice 't'"),
    ])
    def test_unknown_matrix_entry_is_input_error(self, tmp_path, capsys,
                                                 methods, maps, rule):
        # rejected before any row runs: no row directory, no table
        out = tmp_path / "m"
        code = main(["matrix", os.path.dirname(scenario_path("koch.scn")),
                     "--methods", methods, "--maps", maps, "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"input error: command line: {rule}")
        assert "failed" not in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "{scn}", "--out", "{out}"],
        ["check-equivariance", "{scn}", "--samples", "1"]])
    def test_custom_map_missing_a_path_mode_is_input_error(self, tmp_path,
                                                           capsys, argv):
        raw = json.loads(open(scenario_path("s_shaped.scn")).read())
        raw["map"] = "custom"
        raw["custom_map"] = [{
            "mode": [0.0, 0.0, 0.0, 1.0], "gamma_A": np.eye(3).tolist(),
            "gamma_b": [0.0] * 3, "rho_A": np.eye(4).tolist(),
            "rho_b": [0.0] * 4}]
        p = tmp_path / "custom.scn"
        p.write_text(json.dumps(raw))
        assert main([a.format(scn=p, out=tmp_path / "o") for a in argv]) == 3
        assert capsys.readouterr().err == (
            "input error: custom_map: no entry for path mode "
            "[0.0, 0.0, 12.0, 0.0]\n")

    @pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b",
                                      "road/"])
    def test_name_of_more_than_one_path_component_is_input_error(
            self, tmp_path, capsys, name):
        raw = json.loads(open(scenario_path("rectangle_road.scn")).read())
        raw["name"] = name
        p = tmp_path / "named.scn"
        p.write_text(json.dumps(raw))
        code = main(["run", str(p), "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"input error: {p}: name: must be one path component\n")

    def test_matrix_writes_nothing_outside_out(self, tmp_path, capsys):
        # one file is skipped, the other runs: exit 0, as with no skip
        raw = json.loads(open(scenario_path("rectangle_road.scn")).read())
        (tmp_path / "scn").mkdir()
        (tmp_path / "scn" / "a.scn").write_text(json.dumps(raw))
        raw["name"] = "../escaped"
        (tmp_path / "scn" / "r.scn").write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["matrix", str(tmp_path / "scn"), "--methods", "ns",
                     "--maps", "t", "--out", str(out / "m")]) == 0
        assert "name: must be one path component" in capsys.readouterr().err
        assert os.listdir(out) == ["m"]
        assert sorted(os.listdir(out / "m")) == ["matrix.txt",
                                                 "rectangle_road-ns"]

    def test_matrix_of_skipped_files_only_is_input_error(self, tmp_path,
                                                          capsys):
        (tmp_path / "scn").mkdir()
        (tmp_path / "scn" / "bad.scn").write_text(json.dumps({"name": 1}))
        out = tmp_path / "out"
        assert main(["matrix", str(tmp_path / "scn"),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "bad.scn: schema_version: required" in err
        assert err.endswith(
            "input error: none of the 1 scenario files loaded\n")
        assert not out.exists()

    def test_check_equivariance_cli(self, capsys):
        code = main(["check-equivariance", scenario_path("s_shaped.scn"),
                     "--samples", "200"])
        assert code == 0
        assert "residual" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,rule", [
        (["check-fsr", "s_shaped_linear.scn", "--samples", "0"],
         "--samples: must be at least 1, got 0"),
        (["check-fsr", "s_shaped_linear.scn", "--samples", "-3"],
         "--samples: must be at least 1, got -3"),
        (["check-fsr", "s_shaped_linear.scn", "--transitions", "-1"],
         "--transitions: must be at least 0, got -1"),
        (["check-equivariance", "s_shaped.scn", "--samples", "0"],
         "--samples: must be at least 1, got 0"),
        (["check-equivariance", "s_shaped.scn", "--samples", "-1"],
         "--samples: must be at least 1, got -1"),
    ])
    def test_checker_count_out_of_range_is_input_error(self, capsys, argv,
                                                       rule):
        # no sample would make the check vacuous, a negative count raised
        argv = [scenario_path(a) if a.endswith(".scn") else a for a in argv]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == f"input error: command line: {rule}\n"
        assert captured.out == ""

    def test_check_fsr_without_transitions(self, capsys):
        code = main(["check-fsr", scenario_path("s_shaped_linear.scn"),
                     "--samples", "5", "--transitions", "0"])
        assert code == 0
        assert "5 executions, 0 violations" in capsys.readouterr().out

    def test_check_fsr_cli(self, capsys):
        code = main(["check-fsr", scenario_path("s_shaped_linear.scn"),
                     "--samples", "10", "--transitions", "4"])
        assert code == 0
        assert "0 violations" in capsys.readouterr().out


class TestCustomMap:
    def test_identity_custom_map_keeps_structure(self, tmp_path):
        import numpy as np
        from symreach.abstraction import construct_virtual_model
        from symreach.scenarios import s_shaped_roads
        roads = s_shaped_roads()
        table = []
        eye3 = np.eye(3).tolist()
        eye4 = np.eye(4).tolist()
        for (src, dst) in roads:
            table.append({
                "mode": np.concatenate([src, dst]).tolist(),
                "gamma_A": eye3, "gamma_b": [0.0, 0.0, 0.0],
                "rho_A": eye4, "rho_b": [0.0, 0.0, 0.0, 0.0]})
        raw = json.loads(open(scenario_path("s_shaped.scn")).read())
        raw["map"] = "custom"
        raw["custom_map"] = table
        p = tmp_path / "custom.scn"
        p.write_text(json.dumps(raw))
        s = load_scenario(str(p))
        a = build_automaton(s)
        phi = build_map(s, s.dyn())
        va = construct_virtual_model(a, phi)
        assert len(va.auto.modes) == 16 and len(va.auto.edges) == 15

    def test_broken_custom_map_fails_fast(self, tmp_path):
        import numpy as np
        from symreach.scenarios import s_shaped_roads
        from symreach.symmetry import EquivarianceError
        roads = s_shaped_roads()
        table = []
        rot = [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        eye4 = np.eye(4).tolist()
        for (src, dst) in roads:
            table.append({
                "mode": np.concatenate([src, dst]).tolist(),
                "gamma_A": rot, "gamma_b": [0.0, 0.0, 0.0],
                "rho_A": eye4, "rho_b": [0.0, 0.0, 0.0, 0.0]})
        raw = json.loads(open(scenario_path("s_shaped.scn")).read())
        raw["map"] = "custom"
        raw["custom_map"] = table
        p = tmp_path / "broken.scn"
        p.write_text(json.dumps(raw))
        s = load_scenario(str(p))
        phi = build_map(s, s.dyn())
        with pytest.raises(EquivarianceError):
            phi.pair(np.concatenate(roads[0]))


# ---------------------------------------------------------------------------
# reachtube.csv bytes against the seed's per-row writer
# ---------------------------------------------------------------------------

def _ref_fmt(x):
    return repr(float(x))


def _ref_write_reachtube_csv(path, rows):
    header = ["path_index", "virtual_mode_index", "t_lo", "t_hi",
              "lo_0", "lo_1", "lo_2", "hi_0", "hi_1", "hi_2", "provenance"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, (int, str))
                              else _ref_fmt(v) for v in row) + "\n")


def _ref_emit(rows, index, vmode, profile, dt, provenance):
    k = profile.shape[0]
    for i in range(k):
        t_lo = 0.0 if i == 0 else (i - 1) * dt
        t_hi = 0.0 if i == 0 else min(i * dt, (k - 1) * dt)
        lo = profile[i, :, 0]
        hi = profile[i, :, 1]
        rows.append((index, vmode, t_lo, t_hi,
                     lo[0], lo[1], lo[2], hi[0], hi[1], hi[2],
                     provenance))


def _ref_tube_rows(result, tb):
    rows = []
    if tb is not None:
        computed = {seg.index: seg for seg in result.segments}
        for seg in tb:
            prov = "cp" if seg.index not in computed else (
                "co" if computed[seg.index].n_fresh else "re")
            _ref_emit(rows, seg.index, seg.vmode, seg.profile, result.dt,
                      prov)
    else:
        for seg in result.segments:
            prov = "co" if seg.n_fresh else "re"
            _ref_emit(rows, seg.index, seg.mode_key, seg.profile, result.dt,
                      prov)
    return rows


def _csv_pair(tmp_path, segments, rows):
    """The writer's bytes for ``segments`` and the seed's for ``rows``."""
    from symreach.cli import write_reachtube_csv
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_reachtube_csv(str(new), segments)
    _ref_write_reachtube_csv(str(ref), rows)
    return new.read_bytes(), ref.read_bytes()


def _segment_csv_pair(tmp_path, segments):
    rows = []
    for seg in segments:
        _ref_emit(rows, seg.index, seg.vmode, seg.profile, seg.dt,
                  seg.provenance)
    return _csv_pair(tmp_path, segments, rows)


def _scenario_result(name, method, map_kind="t"):
    from dataclasses import replace
    from symreach.reach import compute_reachset, transform_back
    s = replace(load_scenario(scenario_path(name)), method=method,
                map_kind=map_kind)
    a = build_automaton(s)
    phi = build_map(s, s.dyn()) if method != "ns" else None
    res = compute_reachset(a, s.jmax, s.grid(), s.dt, method, phi=phi,
                           emit_segments=s.emit_segments)
    tb = None
    if method == "sv" and res.fixed_point:
        tb = transform_back(res.dct, phi, a, res.va, res.grid,
                            range(res.requested_segments))
    return res, tb


def _synthetic_result(profiles, dt=0.01):
    from symreach.geom import CellSet
    from symreach.reach import Metrics, ReachResult, SegmentRecord
    segs = [SegmentRecord(i, i % 2, CellSet(dim=3), CellSet(dim=3), prof,
                          1.0, n_fresh=i % 2)
            for i, prof in enumerate(profiles)]
    return ReachResult("ns", segs, Metrics(), None, dt)


def _in_window(profile):
    """Whether every bound is ±0.0 or 1e-4 <= |x| < 1e16."""
    mag = np.abs(profile)
    return bool(((profile == 0) | ((mag >= 1e-4) & (mag < 1e16))).all())


class TestReachtubeCsvMatchesReference:
    @pytest.mark.parametrize("name,method,map_kind", [
        ("infinite_s.scn", "sv", "t"), ("infinite_s.scn", "sv", "tr"),
        ("koch.scn", "sv", "tr"), ("rectangle_road.scn", "sv", "t"),
        ("rectangle_road.scn", "ns", "t")])
    def test_scenario(self, tmp_path, name, method, map_kind):
        from symreach.cli import _tube_rows
        res, tb = _scenario_result(name, method, map_kind)
        segments = _tube_rows(res, tb)
        if name == "infinite_s.scn":
            # copied segments repeat whole column blocks
            assert res.metrics.cp >= 94
        if name == "koch.scn":
            assert res.metrics.cp > 0 and any(seg.reboxed for seg in tb)
        if method == "sv":
            # koch SV/TR (5.88e-05) and rectangle_road SV/T (2.22e-16)
            # hold segments outside orjson's window; infinite_s none
            assert any(not _in_window(seg.profile) for seg in segments) \
                == (name != "infinite_s.scn")
        new, ref = _csv_pair(tmp_path, segments, _ref_tube_rows(res, tb))
        assert new == ref and new.count(b"\n") > 1000
        assert (b",cp\n" in new) == (method == "sv")

    def test_negative_zero_and_one_row_profiles(self, tmp_path):
        from symreach.cli import _tube_rows
        rng = np.random.default_rng(3)
        signed = rng.normal(size=(7, 3, 2))
        signed[2, 1, 0] = -0.0
        signed[4, :, 1] = -0.0
        signed[5, 0, 0] = 1e-300
        signed[6, 2, 1] = 123456789.125
        one_row = np.array([[[-0.0, 0.0], [0.1, 0.3], [-2.5, 1e16]]])
        res = _synthetic_result([signed, one_row, signed[:3]], dt=0.1)
        new, ref = _csv_pair(tmp_path, _tube_rows(res, None),
                             _ref_tube_rows(res, None))
        assert new == ref
        assert b",-0.0," in new
        assert new.splitlines()[8].startswith(b"1,1,0.0,0.0,-0.0,")

    def test_synthetic_blocks(self, tmp_path):
        # repeated blocks, -0.0 beside 0.0, longer and one-row profiles, an
        # empty one, and mixed steps, 1e-05 among them (times outside the
        # window)
        from symreach.cli import TubeSegment
        rng = np.random.default_rng(5)
        base = rng.normal(size=(4, 3, 2))
        base[:, 1, 0] = base[:, 0, 0]            # lo_1 repeats lo_0
        zero = base.copy()
        zero[0, 0, 0] = zero[0, 1, 0] = 0.0
        neg = zero.copy()
        neg[0, 0, 0] = -0.0                      # equal to zero's but -0.0
        longer = rng.normal(size=(5, 3, 2))
        longer[2, 1, 1] = 1e-300
        one_row = np.array([[[-0.0, 0.0], [0.1, 0.3], [-2.5, 1e16]]])
        profiles = [base, base, base, zero, neg, longer, longer[:3],
                    longer[:3], one_row, np.zeros((0, 3, 2)), one_row,
                    -longer, longer[:2]]
        segments = [TubeSegment(i, i % 3, prof,
                                1e-05 if i == 12 else 0.1 if i % 2 else 0.25,
                                ("co", "re", "cp")[i % 3], False)
                    for i, prof in enumerate(profiles)]
        new, ref = _segment_csv_pair(tmp_path, segments)
        assert new == ref
        rows = new.decode().splitlines()[1:]
        assert len(rows) == 3 * 4 + 2 * 4 + 5 + 2 * 3 + 2 + 5 + 2
        assert rows[16].startswith("4,1,0.0,0.0,-0.0,0.0,")
        assert rows[12].startswith("3,0,0.0,0.0,0.0,0.0,")
        assert rows[-1].startswith("12,0,0.0,1e-05,")

    @pytest.mark.parametrize("x", [
        np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e16, 0), 1e16, 5e-324,
        -1e-05, 2.220446049250313e-16])
    def test_window_edges(self, tmp_path, x):
        from symreach.cli import TubeSegment
        rng = np.random.default_rng(8)
        segments = []
        for i in range(6):   # x in each bound column, one segment each
            prof = rng.normal(size=(3, 3, 2))
            prof[1, i % 3, i // 3] = x
            segments.append(TubeSegment(i, 0, prof, 0.01, "cp", False))
        new, ref = _segment_csv_pair(tmp_path, segments)
        assert new == ref
        assert new.count(f",{float(x)!r},".encode()) == 6
        assert new.count(f",{float(x)!r},cp\n".encode()) == 1


def test_raising_writer_leaves_no_csv(tmp_path, monkeypatch):
    from symreach import cli
    rows = cli._segment_rows

    def failing(seg, times):
        if seg.index == 2:
            raise KeyboardInterrupt
        return rows(seg, times)

    monkeypatch.setattr(cli, "_segment_rows", failing)
    segments = [cli.TubeSegment(i, 0, np.ones((4, 3, 2)), 0.1, "co", False)
                for i in range(3)]
    with pytest.raises(KeyboardInterrupt):
        cli.write_reachtube_csv(str(tmp_path / "reachtube.csv"), segments)
    assert os.listdir(tmp_path) == []


def _window_floats():
    """Float64 values with 1e-4 <= |x| < 1e16, or ±0.0: drawn by
    hypothesis, as random mantissas of each binary exponent, and as short
    decimals."""
    def signed(x):
        return st.sampled_from([x, -x])

    bits = st.tuples(st.integers(-14, 53), st.integers(0, (1 << 52) - 1)) \
        .map(lambda t: math.ldexp(1 + t[1] / (1 << 52), t[0]))
    decimals = st.tuples(st.integers(1, 10 ** 9), st.integers(0, 12)) \
        .map(lambda t: t[0] / 10 ** t[1])
    return st.one_of(st.floats(1e-4, 1e16, exclude_max=True), bits,
                     decimals).filter(lambda x: 1e-4 <= x < 1e16) \
        .flatmap(signed) | st.sampled_from([0.0, -0.0])


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(xs=st.lists(_window_floats(), min_size=1, max_size=64))
def test_orjson_spells_window_floats_as_repr(xs):
    # the golden table pins the numpy and Python builds only; this pins
    # orjson's float text inside the window the writer hands it
    text = orjson.dumps(np.array(xs), option=orjson.OPT_SERIALIZE_NUMPY)
    assert text == repr(xs).replace(", ", ",").encode()


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(st.floats() | _window_floats(), min_size=6 * k,
             max_size=6 * k),
    st.sampled_from([0.01, 0.25, 1e-05, 5e15]))))
def test_writer_spells_any_float_as_repr(tmp_path_factory, data):
    # values outside the window (subnormals, 1e-05, 1e+16, NaN, infinities)
    # go through repr; so do times outside it (steps 1e-05 and 5e15)
    from symreach.cli import TubeSegment
    xs, dt = data
    profile = np.array(xs).reshape(-1, 3, 2)
    segments = [TubeSegment(0, 0, profile, dt, "co", False),
                TubeSegment(1, 0, np.ones_like(profile), dt, "cp", False)]
    new, ref = _segment_csv_pair(tmp_path_factory.getbasetemp(), segments)
    assert new == ref


def test_only_cli_imports_orjson():
    # the set-up path (scenarios, automaton, map, virtual automaton) does
    # not load the CSV writer's dependency
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        __import__("symreach").__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import symreach, "
            "symreach.scenarios, symreach.abstraction; "
            "print('orjson' in sys.modules); import symreach.cli; "
            "print('orjson' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


class TestTransformedCellsRead:
    """Transformed-back cells are gridded only when a verdict reads them."""

    @pytest.fixture
    def reads(self, monkeypatch):
        from symreach.reach import TransformedSegment
        got = []
        real = TransformedSegment.cells.func

        def counting(seg):
            got.append(seg.index)
            return real(seg)

        monkeypatch.setattr(TransformedSegment, "cells", property(counting))
        return got

    @pytest.mark.parametrize("name", ["s_shaped.scn", "infinite_s.scn"])
    def test_no_verdict_reads_no_cells(self, tmp_path, reads, name):
        rep = run(load_scenario(scenario_path(name)), str(tmp_path / "o"))
        assert rep.metrics.cp > 0 and reads == []

    @pytest.mark.parametrize("box,verdict,read", [
        ([[-1.0, -1.0, -6.3], [1.0, 1.0, 6.3]], "Unknown", [0]),
        ([[100.0, 100.0, -6.3], [101.0, 101.0, 6.3]], "Safe", list(range(16))),
    ])
    def test_verdict_stops_at_first_hit(self, tmp_path, reads, box, verdict,
                                        read):
        raw = json.loads(open(scenario_path("s_shaped.scn")).read())
        raw["unsafe"] = [box]
        p = tmp_path / "unsafe.scn"
        p.write_text(json.dumps(raw))
        rep = run(load_scenario(str(p)), str(tmp_path / "o"))
        assert rep.verdict == verdict and reads == read


class TestTubeCellsRead:
    """Whole segment tubes are gridded only when something reads them."""

    @pytest.fixture
    def grids(self, monkeypatch, tmp_path):
        """A function giving the key of every tube read from the cache, and
        the function that called ``_boxes_cells`` on a whole tube
        (``mode_reach`` or a read).  Matrix rows may run in forked workers,
        so every process appends its records to one file."""
        import ast
        import sys
        import symreach.reach as reach
        log = tmp_path / "grids"
        log.touch()
        real_value = reach.TubeCells.value.func
        real_boxes = reach._boxes_cells

        def record(kind, item):
            with open(log, "a") as fh:
                fh.write(f"{kind} {item!r}\n")

        def value(tc):
            record("read", tc.key)
            return real_value(tc)

        def boxes_cells(lo, hi, g):
            caller = sys._getframe(1).f_code.co_name
            if caller in ("mode_reach", "value"):
                record("whole", caller)
            return real_boxes(lo, hi, g)

        def recorded():
            reads, whole = [], []
            for line in log.read_text().splitlines():
                kind, item = line.split(" ", 1)
                (reads if kind == "read" else whole).append(
                    ast.literal_eval(item))
            return reads, whole

        monkeypatch.setattr(reach.TubeCells, "value", property(value))
        monkeypatch.setattr(reach, "_boxes_cells", boxes_cells)
        return recorded

    def test_robot_matrix_without_unsafe_set_grids_no_tube(self, tmp_path,
                                                           grids):
        reports = run_matrix([scenario_path(f) for f in (
            "rectangle.scn", "rectangle_road.scn", "s_shaped.scn")],
            ["ns", "sc", "sv"], ["t"], str(tmp_path / "m"))
        assert len(reports) == 9
        assert all(r.verdict == "n/a" for r in reports)
        assert grids() == ([], [])

    @pytest.mark.parametrize("box,verdict,read", [
        ([[-1.0, -1.0, -6.3], [1.0, 1.0, 6.3]], "Unknown", 1),
        ([[100.0, 100.0, -6.3], [101.0, 101.0, 6.3]], "Safe", 16),
    ])
    def test_ns_verdict_grids_up_to_the_first_hit(self, tmp_path, grids, box,
                                                  verdict, read):
        from dataclasses import replace
        from symreach.geom import HyperRect
        s = replace(load_scenario(scenario_path("s_shaped.scn")), method="ns",
                    unsafe=[HyperRect(np.array(box[0]), np.array(box[1]))])
        rep = run(s, str(tmp_path / "o"))
        reads, whole = grids()
        a = build_automaton(s)
        assert rep.verdict == verdict
        assert reads == [("c", a.path_mode_index(i)) for i in range(read)]
        assert whole == ["value"] * read


class TestRunReport:
    def test_reboxed_count(self, tmp_path):
        # TR maps rotate koch's roads, so transform-back re-boxes segments
        from dataclasses import replace
        s = load_scenario(scenario_path("koch.scn"))
        for method in ("sv", "sc"):
            out = tmp_path / f"koch-{method}-tr"
            rep = run(replace(s, method=method, map_kind="tr"), str(out))
            assert rep.reboxed > 0
            assert json.loads((out / "report.json").read_text())[
                "reboxed"] == rep.reboxed
        for name, method in [("koch.scn", "sv"), ("koch.scn", "sc"),
                             ("s_shaped.scn", "sv"), ("s_shaped.scn", "ns")]:
            rep = run(replace(load_scenario(scenario_path(name)),
                              method=method, map_kind="t"),
                      str(tmp_path / f"{name}-{method}"))
            assert rep.reboxed == 0


class TestEmitSegments:
    @pytest.mark.parametrize("value", [-3, 0])
    def test_non_positive_rejected(self, tmp_path, capsys, value):
        raw = json.loads(open(scenario_path("infinite_s.scn")).read())
        raw["emit_segments"] = value
        p = tmp_path / "emit.scn"
        p.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError, match="emit_segments"):
            load_scenario(str(p))
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 3
        assert "emit_segments" in capsys.readouterr().err
        assert not (out / "reachtube.csv").exists()

    def test_shipped_value_loads(self):
        assert load_scenario(scenario_path("infinite_s.scn")).emit_segments == 100


class TestUnreadableFields:
    @pytest.mark.parametrize("field,value,rule", [
        ("dt", "abc", "dt: cannot read 'abc'"),
        ("eps0", "x", "eps0: cannot read 'x'"),
        ("seed", "x", "seed: cannot read 'x'"),
        ("jmax", 2.5, "jmax: 2.5 is not an integer or 'inf'"),
        ("geometry", {"leg_x": "abc"}, "geometry.leg_x: cannot read 'abc'"),
        ("geometry", {"roads": 2.5}, "geometry.roads: cannot read 2.5"),
        ("geometry", [1, 2], "geometry: cannot read [1, 2] (not an object)"),
        ("geometry", {"start": [1.0, 2.0, 3.0]},
         "geometry.start: cannot read [1.0, 2.0, 3.0]"),
        ("geometry", {"leg_x": 12.0, "leg_X": 5.0},
         "geometry: unknown fields: ['leg_X']"),
        ("infinite", "no", "infinite: cannot read 'no' (not true or false)"),
        ("seed", -1, "seed: must be nonnegative"),
        ("loops", -1, "loops: must be at least 1"),
        ("loops", 0, "loops: must be at least 1"),
        ("geometry", {"roads": 0}, "geometry.roads: must be at least 1"),
        ("time_slack", float("nan"), "time_slack: must be finite"),
        ("time_slack", float("inf"), "time_slack: must be finite"),
        ("target_axis", 5, "target_axis: must be 0 or 1"),
        ("time_bounds", [], "time_bounds: must be one or more positive"),
        ("custom_map", 5, "custom_map: must be a list of objects"),
        ("custom_map", [5], "custom_map: must be a list of objects"),
        ("schema_version", True, "schema_version: missing or unsupported"),
        ("schema_version", "1", "schema_version: missing or unsupported"),
    ])
    def test_field_is_input_error(self, tmp_path, capsys, field, value, rule):
        raw = json.loads(open(scenario_path("s_shaped.scn")).read())
        raw[field] = value
        p = tmp_path / "bad.scn"
        p.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 3
        assert f"input error: {p}: {rule}" in capsys.readouterr().err
        assert not (out / "reachtube.csv").exists()

    @pytest.mark.parametrize("name", sorted(
        f for f in os.listdir(os.path.join(os.path.dirname(__file__), "..",
                                           "scenarios"))
        if f.endswith(".scn")))
    def test_shipped_geometry_builds_the_same_roads(self, name):
        # the converted geometry gives the roads the file's own values give
        from dataclasses import replace
        from symreach.scenarios import build_roads
        s = load_scenario(scenario_path(name))
        raw = json.loads(open(scenario_path(name)).read())
        want = build_roads(replace(s, geometry=raw.get("geometry", {})))
        got = build_roads(s)
        assert len(got) == len(want) > 0
        for (a, b), (c, d) in zip(got, want):
            assert np.array_equal(a, c) and np.array_equal(b, d)
        assert s.infinite is (name == "infinite_s.scn")

    def test_whole_jmax_still_loads(self, tmp_path):
        raw = json.loads(open(scenario_path("s_shaped.scn")).read())
        raw["jmax"] = 3.0
        p = tmp_path / "j.scn"
        p.write_text(json.dumps(raw))
        assert load_scenario(str(p)).jmax == 3

    def test_fractional_jmax_override_is_input_error(self, tmp_path, capsys):
        code = main(["run", scenario_path("s_shaped.scn"), "--jmax", "2.5",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "jmax: '2.5' is not an integer" in capsys.readouterr().err


def _edited(tmp_path, name, changes):
    """Shipped scenario ``name`` with its top-level fields set as in
    ``changes`` (a ``geometry`` value replaces the whole object), written
    to a new file."""
    raw = json.loads(open(scenario_path(name)).read())
    raw.update(changes)
    p = tmp_path / f"edited-{name}"
    p.write_text(json.dumps(raw))
    return p


class TestBuiltInputIsInputError:
    """Field rules of the path kinds other than s_shaped, and input errors
    that show only once the roads, waypoints or map are built: exit 3 with
    the rule named and no traceback."""

    @pytest.mark.parametrize("name,changes,rule", [
        ("random.scn", {"geometry": {"roads": 0}},
         "geometry.roads: must be at least 1"),
        ("random.scn", {"geometry": {"len_range": [8, 2]}},
         "geometry.len_range: need finite lo <= hi"),
        ("rectangle.scn", {"geometry": {"waypoints": [[0.0, 0.0]]}},
         "geometry.waypoints: need at least 2 finite 2-d or 3-d points"),
        ("s_shaped.scn", {"mode_style": "waypoint", "geometry": {"roads": 1}},
         "waypoint modes need at least 2 waypoints, the path gives 1"),
        ("s_shaped.scn", {"time_bounds": [1.0, 2.0, 3.0]},
         "time_bounds: 3 entries, need 16"),
        ("rectangle.scn", {"time_bounds": [5.0, 3.3]},
         "time_bounds: 2 entries, need 1 or 4"),
        ("s_shaped.scn", {"time_slack": -100},
         "time_slack: -100.0 leaves a time bound <= 0"),
        ("koch.scn", {"target_axis": 5}, "target_axis: must be 0 or 1"),
        ("s_shaped.scn", {"path_kind": "custom", "map": "tr", "geometry": {
            "roads": [[0, 0, 3, 0], [3, 0, 3, 0], [3, 0, 3, 4]]}},
         "road 1 has zero length: the tr map needs its direction"),
        ("infinite_s.scn", {"geometry": {"roads": 3}},
         "infinite runs need at least one period (4 roads)"),
    ])
    def test_run_exits_3(self, tmp_path, capsys, name, changes, rule):
        p = _edited(tmp_path, name, changes)
        out = tmp_path / "o"
        assert main(["run", str(p), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and rule in err
        assert not (out / "reachtube.csv").exists()


class TestRobotWaypointsAre2d:
    """``geometry.waypoints`` takes 2-d or 3-d points, but a robot path
    needs 2-d ones, and so does a road rectangle, whose approach road
    starts at the 2-d ``approach_src``: every command exits 3 and names
    the field."""

    WAYPOINTS = [[-2.4, -1.4, 0.0], [0.6, -1.4, 0.0], [0.6, 3.6, 0.0],
                 [-2.4, 3.6, 0.0]]
    ROBOT = "geometry.waypoints: robot paths need 2-d points"
    ROAD = "geometry.waypoints: a road rectangle needs 2-d points"

    @pytest.mark.parametrize("name,changes,rule", [
        pytest.param("rectangle.scn", {"path_kind": "custom"}, ROBOT,
                     id="rectangle.scn-custom"),
        pytest.param("rectangle.scn", {"path_kind": "rectangle"}, ROBOT,
                     id="rectangle.scn-rectangle"),
        pytest.param("rectangle_road.scn", {"path_kind": "rectangle"}, ROBOT,
                     id="rectangle_road.scn-rectangle"),
        pytest.param("rectangle_road.scn", {"dynamics": "linear3d"}, ROAD,
                     id="rectangle_road.scn-linear3d")])
    @pytest.mark.parametrize("argv", [
        ["run", "{scn}", "--method", "ns", "--out", "{out}"],
        ["run", "{scn}", "--method", "sc", "--out", "{out}"],
        ["run", "{scn}", "--method", "sv", "--out", "{out}"],
        ["check-fsr", "{scn}", "--samples", "2"],
        ["check-equivariance", "{scn}", "--samples", "2"],
        ["matrix", "{dir}", "--out", "{out}"]])
    def test_every_command_exits_3(self, tmp_path, capsys, name, changes,
                                   rule, argv):
        p = _edited(tmp_path, name, {
            **changes, "geometry": {"waypoints": self.WAYPOINTS}})
        out = tmp_path / "o"
        assert main([a.format(scn=p, dir=tmp_path, out=out)
                     for a in argv]) == 3
        err = capsys.readouterr().err
        assert rule in err
        assert err.splitlines()[-1].startswith("input error: ")
        assert not out.exists()

    def test_linear3d_waypoint_rectangle_runs(self, tmp_path, capsys):
        # waypoint modes leave out the approach road, so 3-d points serve
        p = _edited(tmp_path, "rectangle.scn", {
            "dynamics": "linear3d", "geometry": {"waypoints": self.WAYPOINTS}})
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 0


class TestUnreachedPathIndex:
    """A tube that never reaches a guard (short time bounds, or a step
    longer than the time bound), and an sv copy count beyond a finite
    path: sv's fixed point holds with no inflow, and its copies stop at
    the first path index no execution reaches, where the ns walk stops."""

    @pytest.mark.parametrize("changes", [
        {"time_bounds": [0.5] * 5}, {"dt": 1e9}, {"emit_segments": 100}])
    def test_sv_writes_the_ns_segments(self, tmp_path, capsys, changes):
        p = _edited(tmp_path, "rectangle_road.scn", changes)
        written = {}
        for method in ("ns", "sc", "sv"):
            out = tmp_path / method
            assert main(["run", str(p), "--method", method,
                         "--out", str(out)]) == 0
            rows = (out / "reachtube.csv").read_text().splitlines()[1:]
            written[method] = sorted({int(r.split(",")[0]) for r in rows})
        assert written["sv"] == written["ns"]

"""Command-line front end: scenario runs, batch matrices, and the sampled
abstraction checkers.

Exit codes: 0 verdict Safe or plain success, 2 verdict Unknown, 3 input
error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import select
import signal
import sys
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np
import orjson

from .abstraction import check_fsr, construct_virtual_model, dump_structure
from .automaton import DisconnectedPath
from .dynamics import NumericalBlowup
from .geom import GeometryError
from .reach import (DegenerateBaseline, Metrics, NoFixedPoint, ReachResult,
                    TransformedSegment, compute_reachset, overapprox_error,
                    time_window, transform_back, verdict, walk, walk_together)
from .scenarios import (RUN_FLAGS, Scenario, ScenarioError, build_automaton,
                        build_map, load_scenario, override)
from .symmetry import EquivarianceError, check_equivariance

EXIT_OK = 0
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


@dataclass
class RunReport:
    """One row of the results table; mirrors the statistics columns
    (#m/e, #co, #re, #cp, #tot., time, error)."""

    scenario: str
    method: str
    map_kind: Optional[str]
    n_modes_v: Optional[int]
    n_edges_v: Optional[int]
    metrics: Metrics
    verdict: str  # Safe | Unknown | n/a
    init_volumes: Optional[List[float]] = None   # per path index, NS only
    reboxed: int = 0        # written segments re-boxed by a non-axis map

    def columns(self) -> dict:
        err = self.metrics.error_pct
        return {
            "scenario": self.scenario,
            "Phi": self.map_kind or "-",
            "sym": self.method.upper(),
            "#m/e": (f"{self.n_modes_v}/{self.n_edges_v}"
                     if self.n_modes_v is not None else "-"),
            "#co": self.metrics.co,
            "#re": self.metrics.re,
            "#cp": self.metrics.cp,
            "#tot.": self.metrics.tot,
            "time": round(self.metrics.wall_time, 3),
            "error": ("-" if err is None else round(err, 2)),
            "verdict": self.verdict,
            "reboxed": self.reboxed,
        }


class TubeSegment(NamedTuple):
    """One segment of ``reachtube.csv``: its time profile (k, n, 2), the
    sampling step of its rows, where it came from (co computed, re
    retrieved, cp copied) and whether a non-axis map re-boxed it."""

    index: int
    vmode: int
    profile: np.ndarray
    dt: float
    provenance: str
    reboxed: bool


CSV_HEADER = (b"path_index,virtual_mode_index,t_lo,t_hi,"
              b"lo_0,lo_1,lo_2,hi_0,hi_1,hi_2,provenance\n")


def write_reachtube_csv(path: str, segments: Sequence[TubeSegment]) -> None:
    """The header, then one row per profile row of each segment, floats as
    ``repr(float)`` (``_segment_rows``).  If writing raises, the file is
    gone."""
    times: Dict[Tuple[int, float], np.ndarray] = {}
    try:
        with open(path, "wb") as fh:
            fh.write(CSV_HEADER)
            for seg in segments:
                if seg.profile.shape[0]:
                    fh.write(_segment_rows(seg, times))
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(path)
        raise


def _segment_rows(seg: TubeSegment,
                  times: Dict[Tuple[int, float], np.ndarray]) -> bytes:
    """A segment's rows, formatted as one (k, 8) block of t_lo, t_hi,
    lo_0..2, hi_0..2 between ``index,vmode,`` and ``,provenance``.  orjson
    spells a float64 as ``repr`` does when it is ±0.0 or when
    1e-4 <= |x| < 1e16 (it writes 0.00001 for 1e-05, 1e16 for 1e+16, null
    for NaN), so a block holding any other value is formatted by ``repr``.
    The time columns, ``times``, are shared by every segment of the same
    row count and step."""
    k = seg.profile.shape[0]
    t = times.get((k, seg.dt))
    if t is None:
        t = times[k, seg.dt] = np.array(
            [time_window(i, k, seg.dt) for i in range(k)])
    block = np.concatenate([t, seg.profile[:, :, 0], seg.profile[:, :, 1]],
                           axis=1)
    mag = np.abs(block)
    if ((block == 0) | ((mag >= 1e-4) & (mag < 1e16))).all():
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
    else:
        text = repr(block.tolist()).replace(", ", ",").encode()
    head = f"{seg.index},{seg.vmode},".encode()
    tail = f",{seg.provenance}\n".encode()
    return head + (tail + head).join(text[2:-2].split(b"],[")) + tail


def _fork_each(tasks: Sequence, work: Callable[[Any], Any],
               prefix: str) -> list:
    """``work(task)`` for each task of ``tasks``, in task order.  This
    process runs the last task left.  Each further CPU of its affinity
    mask (none where the platform has no ``fork`` or no affinity call) has
    a line of at most two children, the second waiting for the first to
    exit; a child takes the first task left and pickles its outcome to a
    part file ``<prefix>.<pid>.part``, which this process unpickles and
    deletes.  Children are reaped between tasks here, or awaited when no
    task is left.  A task whose child failed or could not be forked runs
    here.  If this process raises, it kills and reaps every child and
    deletes every part file."""
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    outcomes: list = [None] * len(tasks)
    ready = deque(range(len(tasks)))
    lines: List[List[int]] = \
        [[] for _ in range(len(os.sched_getaffinity(0)) - 1 if forks else 0)]
    children: Dict[int, tuple] = {}   # pipe read end -> (pid, i, line)
    try:
        while ready or children:
            while len(ready) > 1 and lines:
                line = min(lines, key=len)
                child = None if len(line) > 1 else \
                    _fork(tasks[ready[0]], work, prefix, line[-1:])
                if child is None:   # every line full, or no process
                    break
                line.append(child[0])
                children[child[0]] = child[1], ready.popleft(), line
            if ready:
                i = ready.pop()
                outcomes[i] = work(tasks[i])
            # a child's pipe reads end of file once the child has exited
            for fd in select.select(list(children), [], [],
                                    None if children and not ready else 0)[0]:
                pid, i, line = children.pop(fd)
                line.remove(fd)
                os.close(fd)
                part = f"{prefix}.{pid}.part"
                try:
                    failed = os.wait4(pid, 0)[1] != 0
                    if not failed:
                        with open(part, "rb") as fh:
                            outcomes[i] = pickle.load(fh)
                finally:
                    with suppress(FileNotFoundError):
                        os.remove(part)
                if failed:
                    outcomes[i] = work(tasks[i])
    finally:
        for fd, (pid, _, _) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            os.close(fd)
            with suppress(FileNotFoundError):
                os.remove(f"{prefix}.{pid}.part")
    return outcomes


def _fork(task, work, prefix: str,
          after: List[int]) -> Optional[Tuple[int, int]]:
    """A child for ``task``, which starts once the pipes ``after`` read
    end of file: the read end of a pipe whose write end only the child
    holds, and its pid; None when no process can be had.  The child exits,
    0 only after a full write, and never returns."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        status = 1
        try:
            for fd in after:   # end of file: the child ahead has exited
                os.read(fd, 1)
            outcome = work(task)
            fd = os.open(f"{prefix}.{os.getpid()}.part",
                         os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            with open(fd, "wb") as fh:
                pickle.dump(outcome, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return r, pid


def _tube_rows(result: ReachResult,
               tb: Optional[List[TransformedSegment]]) -> List[TubeSegment]:
    """The written segments: the transformed-back segments ``tb`` when
    given (sv at its fixed point), else the walked segments."""
    if tb is None:
        return [TubeSegment(seg.index, seg.mode_key, seg.profile, result.dt,
                            "co" if seg.n_fresh else "re", seg.reboxed)
                for seg in result.segments]
    computed = {seg.index: seg for seg in result.segments}
    out = []
    for seg in tb:
        walked = computed.get(seg.index)
        prov = ("cp" if walked is None
                else "co" if walked.n_fresh else "re")
        out.append(TubeSegment(seg.index, seg.vmode, seg.profile, result.dt,
                               prov, seg.reboxed))
    return out


def _start(s: Scenario, out_dir: str) -> tuple:
    """Build the automaton and map, write the abstract-automaton dump, and
    return the row (``_finish``'s first argument) and the arguments of its
    walk (``walk`` or ``compute_reachset``)."""
    os.makedirs(out_dir, exist_ok=True)
    a = build_automaton(s)
    phi = None
    va = None
    if s.method in ("sc", "sv"):
        phi = build_map(s, s.dyn())
        va = construct_virtual_model(a, phi)
        with open(os.path.join(out_dir, "av_structure.txt"), "w") as fh:
            fh.write(dump_structure(va) + "\n")

    # an infinite sv run walks the whole path, to its fixed point
    J = None if s.infinite and s.method == "sv" else s.jmax
    return (s, out_dir, a, phi, va), (a, J, s.grid(), s.dt, s.method, phi,
                                      va, None, None, s.emit_segments)


def _finish(row: tuple, result: ReachResult,
            ns_baseline: Optional[List[float]] = None) -> RunReport:
    """Transform back, decide the verdict, and write the reachtube CSV,
    metrics and report files.  An NS report carries its per-index initial
    volumes, the error baseline of the symmetry rows (``ns_baseline``)."""
    s, out_dir, a, phi, va = row
    tb = None
    if result.method == "sv" and result.fixed_point:
        tb = transform_back(result.dct, phi, a, result.va, result.grid,
                            range(result.requested_segments
                                  or len(result.segments)))
    safety, _ = verdict(result, s.unsafe_region(), a, phi, tb, s.infinite)

    if ns_baseline is not None and s.method in ("sc", "sv"):
        try:
            vols = result.per_index_init_volumes(a, n=len(ns_baseline))
            result.metrics.error_pct = overapprox_error(ns_baseline, vols)
        except (DegenerateBaseline, ValueError):
            result.metrics.error_pct = None

    segments = _tube_rows(result, tb)
    write_reachtube_csv(os.path.join(out_dir, "reachtube.csv"), segments)

    m = result.metrics
    with open(os.path.join(out_dir, "metrics.txt"), "w") as fh:
        fh.write(f"co {m.co}\nre {m.re}\ncp {m.cp}\ntot {m.tot}\n"
                 f"time_s {m.wall_time:.6f}\n"
                 f"error_pct {'-' if m.error_pct is None else round(m.error_pct, 6)}\n")

    report = RunReport(s.name, s.method, s.map_kind if phi else None,
                       len(va.auto.modes) if va else None,
                       len(va.auto.edges) if va else None,
                       m, safety,
                       result.per_index_init_volumes(a)
                       if s.method == "ns" else None,
                       sum(seg.reboxed for seg in segments))
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report.columns(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def run(s: Scenario, out_dir: str,
        ns_baseline: Optional[List[float]] = None) -> RunReport:
    """Build the automaton and map, run the selected method, and write the
    abstract-automaton dump, reachtube CSV, metrics and report files
    (``_start``, ``compute_reachset``, ``_finish``)."""
    row, args = _start(s, out_dir)
    return _finish(row, compute_reachset(*args), ns_baseline)


def format_table(reports: List[RunReport]) -> str:
    cols = ["scenario", "Phi", "sym", "#m/e", "#co", "#re", "#cp", "#tot.",
            "time", "error", "verdict"]
    rows = [[str(r.columns()[c]) for c in cols] for r in reports]
    widths = [max(len(c), *(len(row[i]) for row in rows)) if rows else len(c)
              for i, c in enumerate(cols)]
    out = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    for row in rows:
        out.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(out)


def _run_scenario(rows: List[Tuple[str, Scenario]],
                  out_dir: str) -> list:
    """Each row's RunReport, or the exception it raised, in order.  The
    rows' walks go in lockstep (``walk_together``), so batches they share
    are integrated once and batches of one horizon in one call; then the
    rows are finished in order, and an NS row's initial volumes are the
    error baseline of the rows after it."""
    started, walks = [], []
    for tag, s in rows:
        try:
            row, args = _start(s, os.path.join(out_dir, tag))
            walks.append(walk(*args))
        except Exception as exc:  # keep the matrix going
            row = exc
        started.append(row)
    results = iter(walk_together(walks))
    outcome: list = []
    baseline = None
    for (_, s), row in zip(rows, started):
        result = row if isinstance(row, Exception) else next(results)
        if not isinstance(result, Exception):
            try:
                result = _finish(row, result, baseline)
            except Exception as exc:
                result = exc
        outcome.append(result)
        if s.method == "ns":   # a failed NS row leaves no baseline
            baseline = getattr(result, "init_volumes", None)
    return outcome


def run_matrix(scenario_paths: List[str], methods: List[str],
               maps: List[str], out_dir: str) -> List[RunReport]:
    """Cross-product of runs at each scenario's own grid and step; NS rows
    carry no map, and feed the error column of their scenario's other rows.
    Each scenario's rows run in one process (``_run_scenario``), and
    ``_fork_each`` runs the scenarios at once; a forked scenario pickles
    its outcomes.  Per-row failures are recorded and the matrix goes on.
    Reports, the table and the failure lines come out in row order once
    every row has finished.  Raises ``ScenarioError`` when no scenario
    file loads."""
    scenarios: List[List[Tuple[str, Scenario]]] = []
    skipped = 0
    for path in scenario_paths:
        try:
            base = load_scenario(path)
        except ScenarioError as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
            skipped += 1
            continue
        rows = [(f"{base.name}-ns", replace(base, method="ns"))] \
            if "ns" in methods else []
        for method in methods:
            if method == "ns":
                continue
            for mk in maps:
                s = replace(base, method=method, map_kind=mk)
                if s.mode_style == "waypoint" and mk == "tr":
                    continue
                rows.append((f"{s.name}-{method}-{mk}", s))
        if rows:
            scenarios.append(rows)
    if skipped == len(scenario_paths):
        raise ScenarioError(f"none of the {skipped} scenario files loaded")
    os.makedirs(out_dir, exist_ok=True)
    outcomes = _fork_each(scenarios,
                          lambda rows: _run_scenario(rows, out_dir),
                          os.path.join(out_dir, "scenario"))
    reports: List[RunReport] = []
    for rows, results in zip(scenarios, outcomes):
        for (tag, _), result in zip(rows, results):
            if isinstance(result, RunReport):
                reports.append(result)
            else:
                print(f"row {tag} failed: {result}", file=sys.stderr)
    table = format_table(reports)
    with open(os.path.join(out_dir, "matrix.txt"), "w") as fh:
        fh.write(table + "\n")
    print(table)
    return reports


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _choices(flag: str, text: str, allowed: Sequence[str]) -> List[str]:
    """The comma-separated entries of ``text``, each one of ``allowed`` and
    none repeated."""
    items = text.split(",")
    for i, item in enumerate(items):
        if item not in allowed:
            raise ScenarioError(f"command line: {flag}: invalid choice: "
                                f"{item!r} (choose from "
                                f"{', '.join(allowed)})")
        if item in items[:i]:
            raise ScenarioError(f"command line: {flag}: repeated choice "
                                f"{item!r}")
    return items


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="symreach",
        description="Symmetry-abstraction reachability and safety "
                    "verification for waypoint-following vehicles.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--method", choices=["ns", "sc", "sv"])
    p_run.add_argument("--map", choices=["t", "tr"])
    p_run.add_argument("--grid", help="position cell width override")
    p_run.add_argument("--dt", help="integration step override")
    p_run.add_argument("--jmax", help="transition bound or 'inf'")
    p_run.add_argument("--out", default="out")

    p_mat = sub.add_parser("matrix", help="run a directory of scenarios "
                                          "across methods and maps")
    p_mat.add_argument("dir")
    p_mat.add_argument("--methods", default="ns,sc,sv")
    p_mat.add_argument("--maps", default="t,tr")
    p_mat.add_argument("--out", default="out")

    p_fsr = sub.add_parser("check-fsr", help="sampled forward-simulation "
                                             "check of the abstraction")
    p_fsr.add_argument("scenario")
    p_fsr.add_argument("--samples", type=int, default=50)
    p_fsr.add_argument("--seed", type=int, default=0)
    p_fsr.add_argument("--transitions", type=int, default=8)

    p_eq = sub.add_parser("check-equivariance",
                          help="numerical equivariance residuals of the "
                               "scenario's symmetry family")
    p_eq.add_argument("scenario")
    p_eq.add_argument("--samples", type=int, default=1000)
    p_eq.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    try:
        if args.cmd == "run":
            s = override(load_scenario(args.scenario),
                         {flag: getattr(args, flag[2:]) for flag in RUN_FLAGS})
            report = run(s, args.out)
            print(format_table([report]))
            return EXIT_UNKNOWN if report.verdict == "Unknown" else EXIT_OK
        if args.cmd == "matrix":
            methods = _choices("--methods", args.methods, ("ns", "sc", "sv"))
            maps = _choices("--maps", args.maps, ("t", "tr"))
            paths = sorted(
                os.path.join(args.dir, f) for f in os.listdir(args.dir)
                if f.endswith(".scn"))
            if not paths:
                print("no .scn files found", file=sys.stderr)
                return EXIT_INPUT
            reports = run_matrix(paths, methods, maps, args.out)
            bad = any(r.verdict == "Unknown" for r in reports)
            return EXIT_UNKNOWN if bad else EXIT_OK
        for flag, least in (("--samples", 1), ("--transitions", 0)):
            value = getattr(args, flag[2:], least)
            if value < least:
                raise ScenarioError(f"command line: {flag}: must be at "
                                    f"least {least}, got {value}")
        s = load_scenario(args.scenario)
        a = build_automaton(s)
        phi = build_map(s, s.dyn())
        if args.cmd == "check-fsr":
            va = construct_virtual_model(a, phi)
            rep = check_fsr(a, va, phi, n_execs=args.samples,
                            max_transitions=args.transitions,
                            seed=args.seed, dt=s.dt)
            n = len(rep["violations"])
            print(f"{s.name}: {rep['n_execs']} executions, {n} violations")
            for v in rep["violations"][:20]:
                print(f"  exec {v.exec_index} step {v.step} [{v.kind}] "
                      f"{v.detail}")
            return EXIT_OK if n == 0 else EXIT_UNKNOWN
        worst = 0.0     # check-equivariance, the last command
        for p in a.modes:
            rep = check_equivariance(s.dyn(), phi.pair(p), p,
                                     samples=args.samples, seed=args.seed,
                                     tol=1e-9)
            worst = max(worst, rep["max_residual"])
        print(f"{s.name}: max equivariance residual {worst:.3e} over "
              f"{len(a.modes)} modes x {args.samples} samples")
        return EXIT_OK if worst <= 1e-9 else EXIT_UNKNOWN
    except (ScenarioError, GeometryError, DisconnectedPath) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FileExistsError, FileNotFoundError, NotADirectoryError) as exc:
        # an output path that names a file, or a matrix directory that is
        # missing or is a file
        print(f"input error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalBlowup, NoFixedPoint, EquivarianceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

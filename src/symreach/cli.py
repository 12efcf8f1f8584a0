"""Command-line front end: scenario runs, batch matrices, and the sampled
abstraction checkers.

Exit codes: 0 verdict Safe or plain success, 2 verdict Unknown, 3 input
error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .abstraction import check_fsr, construct_virtual_model, dump_structure
from .automaton import DisconnectedPath
from .dynamics import NumericalBlowup
from .geom import GeometryError
from .reach import (DegenerateBaseline, Metrics, NoFixedPoint, ReachResult,
                    TransformedSegment, compute_reachset, overapprox_error,
                    reachset_meets, time_window, transform_back,
                    unbounded_verif)
from .scenarios import (Scenario, ScenarioError, build_automaton, build_map,
                        load_scenario, parse_jmax, validate_scenario)
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


CSV_HEADER = ("path_index,virtual_mode_index,t_lo,t_hi,"
              "lo_0,lo_1,lo_2,hi_0,hi_1,hi_2,provenance\n")


def write_reachtube_csv(path: str, segments: Sequence[TubeSegment]) -> None:
    """One CSV row per profile row of each segment, floats as
    ``repr(float)``.  Each of a segment's six bound columns (lo_0..2,
    hi_0..2) is formatted by one list repr, which calls ``float.__repr__``
    per element.  Copied segments repeat column blocks, so a block's text
    is kept, keyed by its exact bytes (``-0.0`` and ``0.0`` differ), from
    its second sighting on; blocks seen once, most of them, are not held.
    The time columns are shared by every segment of the same row count
    and step."""
    times: Dict[Tuple[int, float], List[str]] = {}
    seen_once = set()
    texts: Dict[bytes, str] = {}

    def column(col: np.ndarray) -> List[str]:
        key = col.tobytes()
        text = texts.get(key)
        if text is None:
            text = repr(col.tolist())[1:-1]
            if hash(key) in seen_once:
                texts[key] = text
            else:
                seen_once.add(hash(key))
        return text.split(", ")

    with open(path, "w") as fh:
        fh.write(CSV_HEADER)
        for seg in segments:
            k = seg.profile.shape[0]
            if k == 0:
                continue
            key = (k, seg.dt)
            if key not in times:
                times[key] = [f"{float(lo)!r},{float(hi)!r}"
                              for lo, hi in (time_window(i, k, seg.dt)
                                             for i in range(k))]
            cols = [column(seg.profile[:, d, side])
                    for side in (0, 1) for d in range(seg.profile.shape[1])]
            fh.write("\n".join(map(",".join, zip(
                repeat(f"{seg.index},{seg.vmode}"), times[key], *cols,
                repeat(seg.provenance)))))
            fh.write("\n")


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


def _bounded_verdict(result: ReachResult, s: Scenario,
                     tb: Optional[List[TransformedSegment]]) -> str:
    """Safety verdict for the computed horizon.  An infinite scenario is
    Unknown under ns/sc: they walk only the materialized window of the
    path, and only the sv verifier covers the rest."""
    U = s.unsafe_region()
    if U.is_empty:
        return "n/a"
    if s.infinite and result.method != "sv":
        return "Unknown"
    if result.method == "sv" and not result.fixed_point:
        return "Unknown"
    return "Unknown" if reachset_meets(result, U, tb) else "Safe"


def run(s: Scenario, out_dir: str,
        ns_baseline: Optional[List[float]] = None) -> RunReport:
    """Build the automaton and map, run the selected method, and write the
    abstract-automaton dump, reachtube CSV, metrics and report files.  An
    NS report carries its per-index initial volumes, the error baseline of
    the symmetry rows (``ns_baseline``)."""
    os.makedirs(out_dir, exist_ok=True)
    a = build_automaton(s)
    g = s.grid()
    phi = None
    va = None
    if s.method in ("sc", "sv"):
        phi = build_map(s, s.dyn())
        va = construct_virtual_model(a, phi)
        with open(os.path.join(out_dir, "av_structure.txt"), "w") as fh:
            fh.write(dump_structure(va) + "\n")

    unbounded = s.infinite and s.method == "sv"
    if unbounded:
        res = unbounded_verif(a, phi, s.unsafe_region(), None, g, s.dt,
                              emit_segments=s.emit_segments, va=va)
        result = res.result
        if result is None:
            raise NoFixedPoint(res.reason)
    else:
        result = compute_reachset(a, s.jmax, g, s.dt, s.method, phi=phi,
                                  va=va, emit_segments=s.emit_segments)
    tb = None
    if result.method == "sv" and result.fixed_point:
        tb = transform_back(result.dct, phi, a, result.va, result.grid,
                            range(result.requested_segments
                                  or len(result.segments)))
    verdict = res.verdict if unbounded else _bounded_verdict(result, s, tb)

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
                       m, verdict,
                       result.per_index_init_volumes(a)
                       if s.method == "ns" else None,
                       sum(seg.reboxed for seg in segments))
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report.columns(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


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


def run_matrix(scenario_paths: List[str], methods: List[str],
               maps: List[str], out_dir: str) -> List[RunReport]:
    """Cross-product of runs at each scenario's own grid and step; NS rows
    carry no map.  Per-row failures are recorded and the matrix continues.
    The NS baseline of each scenario feeds the error column of its
    symmetry rows."""
    os.makedirs(out_dir, exist_ok=True)
    reports: List[RunReport] = []
    for path in scenario_paths:
        try:
            base = load_scenario(path)
        except ScenarioError as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
            continue
        baseline = None
        if "ns" in methods:
            s = _with(base, method="ns")
            tag = f"{s.name}-ns"
            try:
                rep = run(s, os.path.join(out_dir, tag))
                reports.append(rep)
                baseline = rep.init_volumes
            except Exception as exc:  # keep the matrix going
                print(f"row {tag} failed: {exc}", file=sys.stderr)
        for method in methods:
            if method == "ns":
                continue
            for mk in maps:
                s = _with(base, method=method, map_kind=mk)
                if s.mode_style == "waypoint" and mk == "tr":
                    continue
                tag = f"{s.name}-{method}-{mk}"
                try:
                    reports.append(run(s, os.path.join(out_dir, tag),
                                       ns_baseline=baseline))
                except Exception as exc:
                    print(f"row {tag} failed: {exc}", file=sys.stderr)
    table = format_table(reports)
    with open(os.path.join(out_dir, "matrix.txt"), "w") as fh:
        fh.write(table + "\n")
    print(table)
    return reports


def _with(s: Scenario, **kw) -> Scenario:
    from dataclasses import replace
    return replace(s, **kw)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _number(flag: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ScenarioError(f"command line: {flag}: {text!r} is not a "
                            "number")


def _apply_overrides(s: Scenario, args) -> Scenario:
    """The scenario with the command line's overrides, checked by the same
    field rules as a scenario file."""
    kw = {}
    if args.method:
        kw["method"] = args.method
    if args.map:
        kw["map_kind"] = args.map
    if args.grid:
        w = _number("--grid", args.grid)
        kw["cell_width"] = np.array([w, w, s.cell_width[2]])
    if args.dt:
        kw["dt"] = _number("--dt", args.dt)
    if args.jmax:
        kw["jmax"] = parse_jmax(args.jmax, "command line")
    return validate_scenario(_with(s, **kw), "command line") if kw else s


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
            s = _apply_overrides(load_scenario(args.scenario), args)
            report = run(s, args.out)
            print(format_table([report]))
            return EXIT_UNKNOWN if report.verdict == "Unknown" else EXIT_OK
        if args.cmd == "matrix":
            paths = sorted(
                os.path.join(args.dir, f) for f in os.listdir(args.dir)
                if f.endswith(".scn"))
            if not paths:
                print("no .scn files found", file=sys.stderr)
                return EXIT_INPUT
            reports = run_matrix(paths, args.methods.split(","),
                                 args.maps.split(","), args.out)
            bad = any(r.verdict == "Unknown" for r in reports)
            return EXIT_UNKNOWN if bad else EXIT_OK
        if args.cmd == "check-fsr":
            s = load_scenario(args.scenario)
            a = build_automaton(s)
            phi = build_map(s, s.dyn())
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
        if args.cmd == "check-equivariance":
            s = load_scenario(args.scenario)
            a = build_automaton(s)
            phi = build_map(s, s.dyn())
            worst = 0.0
            for p in a.modes:
                rep = check_equivariance(s.dyn(), phi.pair(p), p,
                                         samples=args.samples,
                                         seed=args.seed, tol=1e-9)
                worst = max(worst, rep["max_residual"])
            print(f"{s.name}: max equivariance residual {worst:.3e} over "
                  f"{len(a.modes)} modes x {args.samples} samples")
            return EXIT_OK if worst <= 1e-9 else EXIT_UNKNOWN
    except (ScenarioError, GeometryError, DisconnectedPath) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalBlowup, NoFixedPoint, EquivarianceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

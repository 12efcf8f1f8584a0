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
from typing import List, Optional

import numpy as np

from .abstraction import check_fsr, construct_virtual_model, dump_structure
from .automaton import DisconnectedPath
from .dynamics import NumericalBlowup
from .geom import GeometryError
from .reach import (DegenerateBaseline, Metrics, NoFixedPoint, ReachResult,
                    TransformedSegment, compute_reachset, overapprox_error,
                    reachset_meets, transform_back, unbounded_verif)
from .scenarios import Scenario, ScenarioError, build_automaton, build_map, \
    load_scenario
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
        }


def _fmt(x: float) -> str:
    return repr(float(x))


def write_reachtube_csv(path: str, rows: List[tuple]) -> None:
    header = ["path_index", "virtual_mode_index", "t_lo", "t_hi",
              "lo_0", "lo_1", "lo_2", "hi_0", "hi_1", "hi_2", "provenance"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, (int, str)) else _fmt(v)
                              for v in row) + "\n")


def _tube_rows(result: ReachResult,
               tb: Optional[List[TransformedSegment]]) -> List[tuple]:
    """Flatten per-segment time profiles into dump rows: the transformed-back
    segments ``tb`` when given (sv at its fixed point), else the walked
    segments."""
    rows: List[tuple] = []

    def emit(index, vmode, profile, dt, provenance):
        k = profile.shape[0]
        for i in range(k):
            t_lo = 0.0 if i == 0 else (i - 1) * dt
            t_hi = 0.0 if i == 0 else min(i * dt, (k - 1) * dt)
            lo = profile[i, :, 0]
            hi = profile[i, :, 1]
            rows.append((index, vmode, t_lo, t_hi,
                         lo[0], lo[1], lo[2], hi[0], hi[1], hi[2],
                         provenance))

    if tb is not None:
        computed = {seg.index: seg for seg in result.segments}
        for seg in tb:
            prov = "cp" if seg.index not in computed else (
                "co" if computed[seg.index].n_fresh else "re")
            emit(seg.index, seg.vmode, seg.profile, result.dt, prov)
    else:
        for seg in result.segments:
            prov = "co" if seg.n_fresh else "re"
            emit(seg.index, seg.mode_key, seg.profile, result.dt, prov)
    return rows


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


def run(s: Scenario, out_dir: str, shared_cache=None,
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
                                  va=va, cache=shared_cache,
                                  emit_segments=s.emit_segments)
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

    write_reachtube_csv(os.path.join(out_dir, "reachtube.csv"),
                        _tube_rows(result, tb))

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
                       if s.method == "ns" else None)
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

def _apply_overrides(s: Scenario, args) -> Scenario:
    from dataclasses import replace
    kw = {}
    if args.method:
        kw["method"] = args.method
    if getattr(args, "map", None):
        kw["map_kind"] = args.map
    if getattr(args, "grid", None):
        w = float(args.grid)
        kw["cell_width"] = np.array([w, w, s.cell_width[2]])
    if getattr(args, "dt", None):
        kw["dt"] = float(args.dt)
    if getattr(args, "jmax", None):
        kw["jmax"] = None if args.jmax == "inf" else int(args.jmax)
    return replace(s, **kw) if kw else s


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

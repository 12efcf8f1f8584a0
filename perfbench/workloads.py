"""The benchmark's three workloads.

Each workload is a list of operations; an operation is one in-process call
of ``symreach.cli.main`` with a fresh output directory, followed (outside
the timed span) by the checks of ``checks.py`` on the files it wrote.
``check`` returns the operation's record (counters, verdict, exit code and
SHA-256 of every ``reachtube.csv``), the errors found, and the outcome of
the negative controls when asked for them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

import checks
from checks import (Tube, check_band_met, check_contains, check_counters,
                    check_covers_box, check_linear_closed_form,
                    check_outcome, check_profile_match, check_x_below,
                    first_road, init_box, linear_points, load_json,
                    read_report, read_tube, scenario_grid, shift_row,
                    shrink_row, DEFAULT_DT)


@dataclass
class Context:
    root: str          # checkout root: holds src/ and scenarios/
    work: str          # scratch directory of this run, removed at its end
    seed: int

    def scenario(self, name: str) -> str:
        return os.path.join(self.root, "scenarios", f"{name}.scn")


@dataclass
class Op:
    name: str
    argv: List[str]    # CLI arguments; the runner appends --out DIR
    check: Callable    # (out_dir, exit_code, controls) -> (record, errors, controls)


def summary(report: dict, t: Tube) -> dict:
    return {"co": report["#co"], "re": report["#re"], "cp": report["#cp"],
            "tot": report["#tot."], "verdict": report["verdict"],
            "segments": int(np.unique(t.index).size), "sha256": t.sha256}


def read_outputs(out: str):
    return (read_report(os.path.join(out, "report.json")),
            read_tube(os.path.join(out, "reachtube.csv")))


def counter_controls(report: dict, t: Tube, n: int) -> dict:
    """A #cp off by one and a missing path index must both be caught."""
    bad = dict(report, **{"#cp": report["#cp"] + 1,
                          "#tot.": report["#tot."] + 1})
    keep = t.index != 1
    gap = Tube(t.index[keep], t.lo[keep], t.hi[keep], t.prov[keep], t.sha256)
    return {"counters_cp_plus_one": bool(check_counters(bad, t, n)),
            "counters_missing_index": bool(check_counters(report, gap, n))}


def prefixed(tag: str, errs: list) -> list:
    return [f"{tag}: {e}" for e in errs]


class RobotMatrix:
    """``symreach matrix`` over the three robot scenarios, NS/SC/SV with the
    T map: 9 rows of 16 segments."""

    name = "robot-matrix"
    SCENARIOS = ("rectangle", "rectangle_road", "s_shaped")

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.dir = os.path.join(ctx.work, "matrix-in")
        os.makedirs(self.dir)
        self.scn, self.n = {}, {}
        for s in self.SCENARIOS:
            shutil.copy(ctx.scenario(s), self.dir)
            self.scn[s] = load_json(ctx.scenario(s))
            self.n[s] = int(self.scn[s]["jmax"]) + 1
        # DOP853 references from a child interpreter, which keeps scipy out
        # of the peak RSS of this process
        ref = os.path.join(ctx.work, "reference.npz")
        subprocess.run([sys.executable, "-I", checks.__file__, ref]
                       + [ctx.scenario(s) for s in self.SCENARIOS],
                       check=True, timeout=120)
        with np.load(ref) as z:
            self.ref = {s: (z[s], int(z[f"{s}_valid"])) for s in self.SCENARIOS}

    def setup_specs(self):
        return [(self.ctx.scenario(s), "sv", "t") for s in self.SCENARIOS]

    def ops(self) -> List[Op]:
        return [Op("matrix", ["matrix", self.dir, "--methods", "ns,sc,sv",
                              "--maps", "t"], self.check)]

    def check(self, out: str, exit_code: int, controls: bool):
        record = {"exit": exit_code, "rows": {}}
        errs, ctl = [], {}
        for s in self.SCENARIOS:
            tubes = {}
            for tag in (f"{s}-ns", f"{s}-sc-t", f"{s}-sv-t"):
                rep, t = read_outputs(os.path.join(out, tag))
                tubes[tag] = t
                record["rows"][tag] = summary(rep, t)
                errs += prefixed(tag, check_outcome(rep["verdict"], exit_code,
                                                    "n/a", 0)
                                 + check_counters(rep, t, self.n[s]))
                if controls:
                    ctl.update({f"{tag}/{k}": v for k, v in
                                counter_controls(rep, t, self.n[s]).items()})
            ns = tubes[f"{s}-ns"]
            errs += prefixed(f"{s}-ns", check_profile_match(ns, 0, self.ref[s]))
            for tag in (f"{s}-sc-t", f"{s}-sv-t"):
                errs += prefixed(tag, check_contains(tubes[tag], ns))
            if controls:
                cell = scenario_grid(self.scn[s])[0]
                rows = ns.rows_of(0)
                ctl[f"{s}-ns/dop853_row_shrunk"] = bool(check_profile_match(
                    shrink_row(ns, rows[self.ref[s][1] // 2], 0, cell), 0,
                    self.ref[s]))
                # the SV row's right edge one cell inside the NS row's
                sv, r = tubes[f"{s}-sv-t"], rows[0]
                r_sv = sv.rows_of(0)[0]
                ctl[f"{s}-sv-t/contains_row_shrunk"] = bool(check_contains(
                    shrink_row(sv, r_sv, 0, sv.hi[r_sv, 0] - ns.hi[r, 0] + cell),
                    ns))
        return record, errs, ctl


class RotatedTR:
    """``symreach run --map tr``: every guard or reset image is rotated."""

    name = "rotated-tr"
    RUNS = (("koch", "sv"), ("random", "sv"), ("rectangle_road", "sv"),
            ("koch", "sc"), ("s_shaped_linear", "sv"))

    def __init__(self, ctx: Context):
        self.ctx = ctx
        rng = np.random.default_rng(ctx.seed)
        self.scn, self.points = {}, {}
        for s in sorted({s for s, _ in self.RUNS}):
            scn = load_json(ctx.scenario(s))
            self.scn[s] = scn
            if scn["dynamics"] == "linear3d":
                self.points[s] = linear_points(scn, rng, 16)

    def setup_specs(self):
        return [(self.ctx.scenario(s), "sv", "tr") for s in self.scn]

    def ops(self) -> List[Op]:
        return [Op(f"{s}-{m}-tr", ["run", self.ctx.scenario(s), "--method", m,
                                   "--map", "tr"],
                   lambda out, code, ctl, s=s: self.check(s, out, code, ctl))
                for s, m in self.RUNS]

    def check(self, s: str, out: str, exit_code: int, controls: bool):
        scn = self.scn[s]
        n = int(scn["jmax"]) + 1
        rep, t = read_outputs(out)
        errs = check_outcome(rep["verdict"], exit_code, "n/a", 0) \
            + check_counters(rep, t, n)
        ctl = counter_controls(rep, t, n) if controls else {}
        cell = scenario_grid(scn)[0]
        row0 = t.rows_of(0)[0]
        if s in self.points:
            target, T = first_road(scn)
            c = np.array([target[0], target[1], 0.0])
            dt = float(scn.get("dt", DEFAULT_DT))
            errs += check_linear_closed_form(t, self.points[s], c, T, dt)
            if controls:
                ctl["closed_form_row_shrunk"] = bool(check_linear_closed_form(
                    shrink_row(t, row0, 0, cell, side="lo"), self.points[s],
                    c, T, dt))
        else:
            lo, hi = init_box(scn)
            errs += check_covers_box(t, lo, hi)
            if controls:
                # the row's top edge one cell below the box's
                ctl["init_cover_row_shrunk"] = bool(check_covers_box(
                    shrink_row(t, row0, 1, t.hi[row0, 1] - hi[1] + cell),
                    lo, hi))
        return {"exit": exit_code, "rows": {s: summary(rep, t)}}, errs, ctl


class UnboundedVerify:
    """``symreach run`` on the unbounded ``infinite_s``: T and TR are Safe;
    a seeded band across the domain beyond the materialized window makes
    the generated variant Unknown."""

    name = "unbounded-verify"
    BAND = 4.0
    MAX_COMPUTED = 6      # at least n - 6 of the emitted segments are copied

    def __init__(self, ctx: Context):
        self.ctx = ctx
        scn = load_json(ctx.scenario("infinite_s"))
        self.scn = scn
        self.n = int(scn["emit_segments"])
        # the s-shaped period shifts the path by (0, 2 leg_y): an unsafe box
        # right of every row is missed by all periods
        self.x_limit = min(b[0][0] for b in scn["unsafe"])
        rng = np.random.default_rng(ctx.seed)
        self.band_lo = float(rng.uniform(130.0, 800.0 - self.BAND))
        dom = scn["domain"]
        variant = dict(scn, name="infinite_s_band", unsafe=[
            [[dom[0][0], self.band_lo, dom[0][2]],
             [dom[1][0], self.band_lo + self.BAND, dom[1][2]]]])
        self.variant = os.path.join(ctx.work, "infinite_s_band.scn")
        with open(self.variant, "w") as fh:
            json.dump(variant, fh, indent=2)

    def setup_specs(self):
        path = self.ctx.scenario("infinite_s")
        return [(path, "sv", "t"), (path, "sv", "tr"), (self.variant, "sv", "t")]

    def ops(self) -> List[Op]:
        path = self.ctx.scenario("infinite_s")
        return [
            Op("infinite_s-t", ["run", path, "--map", "t"],
               lambda out, code, ctl: self.check_safe("infinite_s-t", out,
                                                      code, ctl)),
            Op("infinite_s-tr", ["run", path, "--map", "tr"],
               lambda out, code, ctl: self.check_safe("infinite_s-tr", out,
                                                      code, ctl)),
            Op("infinite_s_band-t", ["run", self.variant, "--map", "t"],
               self.check_band),
        ]

    def _common(self, out: str, exit_code: int, want: str, want_exit: int,
                controls: bool):
        rep, t = read_outputs(out)
        errs = check_outcome(rep["verdict"], exit_code, want, want_exit) \
            + check_counters(rep, t, self.n)
        if rep["#cp"] < self.n - self.MAX_COMPUTED:
            errs.append(f"#cp {rep['#cp']}: fewer than "
                        f"{self.n - self.MAX_COMPUTED} segments copied")
        ctl = counter_controls(rep, t, self.n) if controls else {}
        return rep, t, errs, ctl

    def check_safe(self, tag: str, out: str, exit_code: int, controls: bool):
        rep, t, errs, ctl = self._common(out, exit_code, "Safe", 0, controls)
        errs += check_x_below(t, self.x_limit)
        if controls:
            r = int(np.argmax(t.hi[:, 0]))
            cell = scenario_grid(self.scn)[0]
            push = np.array([self.x_limit - t.hi[r, 0] + cell, 0.0, 0.0])
            ctl["x_below_row_pushed"] = bool(check_x_below(shift_row(t, r, push),
                                                           self.x_limit))
        return {"exit": exit_code, "rows": {tag: summary(rep, t)}}, errs, ctl

    def check_band(self, out: str, exit_code: int, controls: bool):
        rep, t, errs, ctl = self._common(out, exit_code, "Unknown", 2, controls)
        errs += check_band_met(t, self.band_lo, self.band_lo + self.BAND)
        if controls:
            ctl["verdict_safe_on_band"] = bool(check_outcome("Safe", 0,
                                                             "Unknown", 2))
            beyond = float(t.hi[:, 1].max()) + 100.0
            ctl["band_moved_beyond_rows"] = bool(check_band_met(
                t, beyond, beyond + self.BAND))
        return ({"exit": exit_code,
                 "rows": {"infinite_s_band-t": summary(rep, t)}}, errs, ctl)


WORKLOADS = {w.name: w for w in (RobotMatrix, RotatedTR, UnboundedVerify)}

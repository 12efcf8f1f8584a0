"""Output checks for the benchmark.

Every operation's files are compared with figures computed here, apart
from symreach (cell centres from the scenario's box and grid, DOP853 and
closed-form trajectories), or with properties the method must have
(counter consistency, containment of the NS tube, verdicts).  Each check
returns a list of error strings; an empty list means it passed.  The
``shrink_row``/``shift_row`` helpers build the damaged copies the negative
controls feed to the same checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

# the paper's models, restated so the checks do not read them from symreach
LINEAR_RATES = np.array([-3.0, -3.0, -1.0])   # dx/dt = diag(rates) (x - target)
DEFAULT_CELL = np.array([0.2, 0.2, math.pi / 16])
DEFAULT_DT = 0.01
OCC_TOL = 1e-9          # boxes are shrunk by this before gridding
MATCH_TOL = 1e-6        # DOP853 reference against the program's RK4 rows
NEAR_TARGET = 0.1       # the robot's heading rate is singular at its target
CONTAIN_TOL = 1e-9

# the rectangle of the paper's waypoint example: first waypoint and the
# start of its approach road
RECT_W0 = (-2.4, -1.4)
RECT_APPROACH_SRC = (-4.4, -0.4)


@dataclass(frozen=True)
class Tube:
    """The rows of one ``reachtube.csv``."""

    index: np.ndarray      # path index per row
    lo: np.ndarray         # (rows, 3)
    hi: np.ndarray         # (rows, 3)
    prov: np.ndarray       # provenance per row: co | re | cp
    sha256: str

    def rows_of(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.index == i)


def read_tube(path: str) -> Tube:
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode().splitlines()[1:]
    num = np.loadtxt(lines, delimiter=",", usecols=range(10), ndmin=2)
    prov = np.array([ln[ln.rfind(",") + 1:] for ln in lines])
    return Tube(num[:, 0].astype(np.int64), num[:, 4:7], num[:, 7:10], prov,
                hashlib.sha256(raw).hexdigest())


def read_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def shrink_row(t: Tube, row: int, dim: int, amount: float,
               side: str = "hi") -> Tube:
    lo, hi = t.lo.copy(), t.hi.copy()
    if side == "hi":
        hi[row, dim] -= amount
    else:
        lo[row, dim] += amount
    return replace(t, lo=lo, hi=hi)


def shift_row(t: Tube, row: int, offset: np.ndarray) -> Tube:
    lo, hi = t.lo.copy(), t.hi.copy()
    lo[row] += offset
    hi[row] += offset
    return replace(t, lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# scenario-derived inputs, computed without symreach
# ---------------------------------------------------------------------------

def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def first_road(scn: dict):
    """Chased point and time bound of the first mode on the path, derived
    from the scenario file alone."""
    geo = scn.get("geometry", {})
    speed = float(scn.get("speed", 1.0))
    slack = float(scn.get("time_slack", 1.5))
    start = np.asarray(geo.get("start", (0.0, 0.0)), dtype=float)
    kind = scn["path_kind"]
    if kind == "rectangle":
        dst = np.asarray(geo.get("waypoints", [RECT_W0])[0], dtype=float)
        src = np.asarray(geo.get("approach_src", RECT_APPROACH_SRC), dtype=float)
    elif kind == "s_shaped":
        src, dst = start, start + [geo.get("leg_x", 12.0), 0.0]
    elif kind == "koch":
        src, dst = start - [geo.get("approach_len", 2.0), 0.0], start
    elif kind == "random":
        lo, hi = geo.get("len_range", (2.0, 8.0))
        length = np.random.default_rng(scn.get("seed", 7)).uniform(lo, hi)
        src, dst = start, start + [length, 0.0]
    else:
        raise ValueError(f"no first-road rule for path kind {kind}")
    if scn.get("time_bounds"):
        T = float(scn["time_bounds"][0])
    else:
        T = float(np.linalg.norm(dst - src)) / speed + slack
    return dst, T


def scenario_grid(scn: dict) -> np.ndarray:
    return np.asarray(scn.get("grid_width", DEFAULT_CELL), dtype=float)


def init_box(scn: dict):
    c = np.asarray(scn["init_center"], dtype=float)
    w = np.asarray(scn["init_widths"], dtype=float)
    return c - w / 2.0, c + w / 2.0


def init_cell_centres(scn: dict) -> np.ndarray:
    """Centres of the grid cells the initial box overlaps with positive
    measure; the robot heading lives on a 2*pi circle whose cells are
    numbered in [-m/2, m/2)."""
    w = scenario_grid(scn)
    lo, hi = init_box(scn)
    ilo = np.floor((lo + OCC_TOL) / w).astype(np.int64)
    ihi = np.floor((hi - OCC_TOL) / w).astype(np.int64)
    axes = [np.arange(a, b + 1) for a, b in zip(ilo, ihi)]
    cells = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                     axis=1)
    if scn["dynamics"] == "robot":
        m = int(round(2 * math.pi / w[2]))
        cells[:, 2] = (cells[:, 2] + m // 2) % m - m // 2
        cells = np.unique(cells, axis=0)
    return (cells + 0.5) * w


def sample_times(T: float, dt: float) -> np.ndarray:
    """Sample times of a fixed-step run over [0, T]: whole steps, then one
    partial step when T is not a multiple of dt."""
    n_full = int(math.floor(T / dt + 1e-12))
    times = [k * dt for k in range(n_full + 1)]
    if T - n_full * dt > 1e-12 * max(1.0, T):
        times.append(T)
    return np.array(times)


def wrap_angle(th: np.ndarray) -> np.ndarray:
    return np.mod(th + math.pi, 2 * math.pi) - math.pi


def robot_reference(scn: dict, target, T: float):
    """Per-sample bounding profile (samples, 3, 2) of the initial-cell
    centres integrated with scipy's DOP853, stamped with half a cell, and
    the number of leading samples before any centre comes within
    NEAR_TARGET of the chased point.  Past that, fixed-step RK4 and DOP853
    part by up to 0.05 on rectangle_road, so only the leading samples are
    comparable."""
    from scipy.integrate import solve_ivp

    v = float(scn.get("speed", 1.0))
    L = float(scn.get("length", 0.4))
    tx, ty = float(target[0]), float(target[1])
    X0 = init_cell_centres(scn)
    n = X0.shape[0]

    def rhs(_t, z):
        x, y, th = z[:n], z[n:2 * n], z[2 * n:]
        alpha = np.arctan2(ty - y, tx - x) - th
        return np.concatenate([v * np.cos(th), v * np.sin(th),
                               2.0 * v * np.sin(alpha) / L])

    times = sample_times(T, float(scn.get("dt", DEFAULT_DT)))
    sol = solve_ivp(rhs, (0.0, T), X0.T.ravel(), method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"DOP853 reference failed: {sol.message}")
    states = sol.y.reshape(3, n, -1).transpose(1, 2, 0)      # (n, k, 3)
    states[..., 2] = wrap_angle(states[..., 2])
    half = scenario_grid(scn) / 2.0
    profile = np.stack([states.min(axis=0) - half,
                        states.max(axis=0) + half], axis=2)
    near = np.linalg.norm(states[..., :2] - [tx, ty], axis=2).min(axis=0) \
        < NEAR_TARGET
    return profile, int(np.argmax(near)) if near.any() else len(times)


def linear_points(scn: dict, rng: np.random.Generator, n: int) -> np.ndarray:
    """The 8 corners of the initial box plus ``n`` seeded interior points."""
    lo, hi = init_box(scn)
    corners = np.array([[(lo, hi)[b][d] for d, b in enumerate(bits)]
                        for bits in np.ndindex(2, 2, 2)])
    return np.vstack([corners, rng.uniform(lo, hi, size=(n, 3))])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_outcome(verdict: str, exit_code: int, want_verdict: str,
                  want_exit: int) -> list:
    errs = []
    if verdict != want_verdict:
        errs.append(f"verdict {verdict}, expected {want_verdict}")
    if exit_code != want_exit:
        errs.append(f"exit code {exit_code}, expected {want_exit}")
    return errs


def check_counters(report: dict, t: Tube, n_segments: int) -> list:
    """#tot = #co + #re + #cp; path indices 0..n-1 without gaps; one
    provenance per path index; #cp equals the indices marked cp."""
    errs = []
    co, re_, cp, tot = (report[k] for k in ("#co", "#re", "#cp", "#tot."))
    if tot != co + re_ + cp:
        errs.append(f"#tot {tot} != #co {co} + #re {re_} + #cp {cp}")
    idx = np.unique(t.index)
    if not np.array_equal(idx, np.arange(n_segments)):
        errs.append(f"path indices {idx.min() if idx.size else '-'}.."
                    f"{idx.max() if idx.size else '-'} ({idx.size} distinct),"
                    f" expected 0..{n_segments - 1}")
    pairs = set(zip(t.index.tolist(), t.prov.tolist()))
    if len(pairs) != idx.size:
        errs.append(f"{len(pairs) - idx.size} extra provenances: some path "
                    f"indices mix them")
    n_cp = sum(1 for _, p in pairs if p == "cp")
    if n_cp != cp:
        errs.append(f"#cp {cp} but {n_cp} path indices have provenance cp")
    return errs


def check_profile_match(t: Tube, index: int, ref, tol: float = MATCH_TOL) -> list:
    """The rows of a segment equal the reference profile over its first
    ``valid`` samples; ``ref`` is the pair robot_reference returns."""
    profile, valid = ref
    rows = t.rows_of(index)
    if len(rows) != profile.shape[0]:
        return [f"segment {index}: {len(rows)} rows, reference has "
                f"{profile.shape[0]} samples"]
    rows = rows[:valid]
    dev = max(np.abs(t.lo[rows] - profile[:valid, :, 0]).max(),
              np.abs(t.hi[rows] - profile[:valid, :, 1]).max())
    if not dev <= tol:
        return [f"segment {index}: rows differ from the DOP853 reference "
                f"by {dev:.3g} (> {tol:g})"]
    return []


def check_contains(outer: Tube, inner: Tube, tol: float = CONTAIN_TOL) -> list:
    """Every inner row lies inside the outer row of the same path index and
    sample time."""
    errs = []
    for i in np.unique(inner.index):
        ri, ro = inner.rows_of(i), outer.rows_of(i)
        if len(ro) < len(ri):
            errs.append(f"segment {i}: {len(ro)} rows cannot cover {len(ri)}")
            continue
        ro = ro[:len(ri)]
        excess = max((outer.lo[ro] - inner.lo[ri]).max(),
                     (inner.hi[ri] - outer.hi[ro]).max())
        if excess > tol:
            errs.append(f"segment {i}: exceeds the enclosing row by "
                        f"{excess:.3g}")
    return errs


def check_linear_closed_form(t: Tube, points: np.ndarray, target, T: float,
                             dt: float, tol: float = 1e-7) -> list:
    """Closed-form LINEAR3D trajectories x(t) = c + (x0 - c) exp(rates t)
    from ``points`` stay inside the rows of segment 0."""
    rows = t.rows_of(0)
    times = sample_times(T, dt)
    if len(rows) != len(times):
        return [f"segment 0: {len(rows)} rows, expected {len(times)}"]
    c = np.asarray(target, dtype=float)
    x = c + (points[:, None, :] - c) * np.exp(LINEAR_RATES * times[:, None])
    out = np.maximum(t.lo[rows] - x, x - t.hi[rows]).max()
    if out > tol:
        return [f"segment 0: a closed-form trajectory leaves its row by "
                f"{out:.3g}"]
    return []


def check_covers_box(t: Tube, lo: np.ndarray, hi: np.ndarray,
                     tol: float = CONTAIN_TOL) -> list:
    r = t.rows_of(0)[0]
    gap = max((t.lo[r] - lo).max(), (hi - t.hi[r]).max())
    if gap > tol:
        return [f"segment 0 at t=0 misses the initial box by {gap:.3g}"]
    return []


def check_x_below(t: Tube, x_limit: float) -> list:
    top = t.hi[:, 0].max()
    if not top < x_limit:
        return [f"a row reaches x = {top:.6g}, not below the unsafe box at "
                f"x = {x_limit:g}"]
    return []


def check_band_met(t: Tube, y_lo: float, y_hi: float) -> list:
    if not np.any((t.lo[:, 1] < y_hi) & (t.hi[:, 1] > y_lo)):
        return [f"no row meets the band y in [{y_lo:g}, {y_hi:g}]"]
    return []


def main(argv) -> None:
    """``python3 checks.py OUT.npz SCENARIO...``: save each robot scenario's
    DOP853 reference profile (key: scenario name) and its comparable sample
    count (key: name + ``_valid``)."""
    arrays = {}
    for path in argv[1:]:
        scn = load_json(path)
        profile, valid = robot_reference(scn, *first_road(scn))
        arrays[scn["name"]] = profile
        arrays[scn["name"] + "_valid"] = np.array(valid)
    np.savez(argv[0], **arrays)


if __name__ == "__main__":
    main(sys.argv[1:])

"""Scenario definitions: file loading, validation, and the path geometry
generators for the built-in benchmark families.

A scenario file is JSON (extension .scn by convention) with a
``schema_version`` field; unknown keys are rejected, omitted tunables get
the documented defaults.  An optional side file carries the vehicle
constants (speed and wheelbase-like length) so the same path geometry can
be re-run with different dynamics parameters.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .automaton import (HybridAutomaton, PeriodInfo, build_road_automaton,
                        build_waypoint_automaton)
from .dynamics import Dynamics, DynamicsId
from .geom import Grid, HyperRect, Region, box
from .symmetry import (SymmetryPair, VirtualMap, make_custom_map,
                       make_translation_map, make_tr_map)

SCHEMA_VERSION = 1

DEFAULT_DT = 0.01
DEFAULT_CELL_POS = 0.2
DEFAULT_CELL_HEADING = math.pi / 16
DEFAULT_TIME_SLACK = 1.5
DEFAULT_SPEED = 1.0
DEFAULT_LENGTH = 0.4


class ScenarioError(Exception):
    """Schema violation or inconsistent scenario geometry."""


# the rectangle of the waypoint example: sides 3 and 5, approach road of
# length sqrt(5); coordinates sit on the 0.2 cell lattice so the concrete
# and virtual griddings of congruent sets coincide
RECT_W0 = np.array([-2.4, -1.4])
RECT_WAYPOINTS = [np.array([-2.4, -1.4]), np.array([0.6, -1.4]),
                  np.array([0.6, 3.6]), np.array([-2.4, 3.6])]
RECT_APPROACH_SRC = np.array([-4.4, -0.4])
RECT_INIT_CENTER = np.array([-4.4, -0.4, -math.pi / 4])
# the waypoint-mode rectangle starts a full long-leg away from w0 so one
# per-mode time bound serves both the first visit and later revisits
RECT_WP_INIT_CENTER = np.array([-7.4, -1.4, 0.0])


@dataclass
class Scenario:
    name: str
    dynamics: DynamicsId
    mode_style: str                    # waypoint | road
    path_kind: str                     # rectangle | s_shaped | koch | random | custom
    geometry: dict
    eps0: np.ndarray
    eps1: np.ndarray
    init_center: np.ndarray
    init_widths: np.ndarray
    unsafe: List[HyperRect]
    domain: HyperRect
    cell_width: np.ndarray
    dt: float
    time_slack: float
    time_bounds: Optional[List[float]]
    jmax: Optional[int]                # None means unbounded
    map_kind: str                      # t | tr | custom
    method: str                        # ns | sc | sv
    speed: float
    length: float
    seed: int
    loops: int
    emit_segments: Optional[int]
    infinite: bool
    target_axis: int = 0
    custom_map: Optional[list] = None

    def dyn(self) -> Dynamics:
        return Dynamics(self.dynamics, v=self.speed, L=self.length)

    def init_region(self) -> Region:
        return Region.from_boxes([box(self.init_center, self.init_widths)])

    def unsafe_region(self) -> Region:
        if not self.unsafe:
            return Region.empty(3)
        return Region.from_boxes(self.unsafe)

    def grid(self) -> Grid:
        wrap = np.array([0.0, 0.0, 2 * math.pi]) \
            if self.dynamics is DynamicsId.ROBOT else None
        return Grid(np.zeros(3), self.cell_width, wrap=wrap)


# ---------------------------------------------------------------------------
# path generators
# ---------------------------------------------------------------------------

def s_shaped_roads(leg_x: float = 12.0, leg_y: float = 16.0, n: int = 16,
                   start=(0.0, 0.0)) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Rectangular S: alternating long horizontal and vertical legs, the
    horizontal direction flipping every other leg."""
    pts = [np.asarray(start, dtype=float)]
    dirs = [np.array([leg_x, 0.0]), np.array([0.0, leg_y]),
            np.array([-leg_x, 0.0]), np.array([0.0, leg_y])]
    for i in range(n):
        pts.append(pts[-1] + dirs[i % 4])
    return [(pts[i], pts[i + 1]) for i in range(n)]


def rectangle_roads(approach_src=RECT_APPROACH_SRC,
                    waypoints=None) -> List[Tuple[np.ndarray, np.ndarray]]:
    wps = RECT_WAYPOINTS if waypoints is None else \
        [np.asarray(w, dtype=float) for w in waypoints]
    roads = [(np.asarray(approach_src, dtype=float), wps[0])]
    for i in range(len(wps)):
        roads.append((wps[i], wps[(i + 1) % len(wps)]))
    return roads


def koch_roads(edge_len: float = 3.0, approach_len: float = 2.0,
               start=(0.0, 0.0)) -> List[Tuple[np.ndarray, np.ndarray]]:
    """An approach road followed by the 16 equal edges of a twice-iterated
    Koch curve (the fractal construction truncated after two rounds)."""
    p0 = np.asarray(start, dtype=float)
    p1 = p0 + np.array([9.0 * edge_len, 0.0])
    pts = [p0, p1]
    rot = np.array([[math.cos(-math.pi / 3), math.sin(-math.pi / 3)],
                    [-math.sin(-math.pi / 3), math.cos(-math.pi / 3)]])
    for _ in range(2):
        new = [pts[0]]
        for a, b in zip(pts[:-1], pts[1:]):
            d = (b - a) / 3.0
            new += [a + d, a + d + rot @ d, a + 2 * d, b]
        pts = new
    approach = (p0 - np.array([approach_len, 0.0]), p0)
    return [approach] + [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]


def random_roads(n: int = 14, seed: int = 7, len_range=(2.0, 8.0),
                 start=(0.0, 0.0)) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Random chain: road lengths uniform in ``len_range``, heading
    increments uniform in [-pi/2, pi/2], regenerated from the seed."""
    rng = np.random.default_rng(seed)
    pts = [np.asarray(start, dtype=float)]
    heading = 0.0
    for i in range(n):
        if i > 0:
            heading += rng.uniform(-math.pi / 2, math.pi / 2)
        length = rng.uniform(*len_range)
        pts.append(pts[-1] + length * np.array([math.cos(heading),
                                                math.sin(heading)]))
    return [(pts[i], pts[i + 1]) for i in range(n)]


def build_roads(s: Scenario) -> List[Tuple[np.ndarray, np.ndarray]]:
    geo = s.geometry
    if s.path_kind == "rectangle":
        return rectangle_roads(geo.get("approach_src", RECT_APPROACH_SRC),
                               geo.get("waypoints"))
    if s.path_kind == "s_shaped":
        return s_shaped_roads(geo.get("leg_x", 12.0), geo.get("leg_y", 16.0),
                              geo.get("roads", 16),
                              geo.get("start", (0.0, 0.0)))
    if s.path_kind == "koch":
        return koch_roads(geo.get("edge_len", 3.0),
                          geo.get("approach_len", 2.0),
                          geo.get("start", (0.0, 0.0)))
    if s.path_kind == "random":
        return random_roads(geo.get("roads", 14), s.seed,
                            tuple(geo.get("len_range", (2.0, 8.0))),
                            geo.get("start", (0.0, 0.0)))
    if s.path_kind == "custom":
        roads = geo.get("roads")
        if roads is None:
            raise ScenarioError("custom road scenario needs geometry.roads")
        return [(np.asarray(r[0:2], dtype=float), np.asarray(r[2:4], dtype=float))
                for r in roads]
    raise ScenarioError(f"unknown path kind {s.path_kind}")


# ---------------------------------------------------------------------------
# automaton and map construction
# ---------------------------------------------------------------------------

def build_automaton(s: Scenario) -> HybridAutomaton:
    dyn = s.dyn()
    init = s.init_region()
    if s.mode_style == "waypoint":
        if s.path_kind == "rectangle":
            wps = s.geometry.get("waypoints", RECT_WAYPOINTS)
        elif s.path_kind == "custom":
            wps = s.geometry.get("waypoints")
            if wps is None:
                raise ScenarioError("custom waypoint scenario needs "
                                    "geometry.waypoints")
        else:
            wps = [d for (_, d) in build_roads(s)]
        if s.time_bounds is not None:
            tb = s.time_bounds if len(s.time_bounds) > 1 else s.time_bounds[0]
        else:
            legs = [np.linalg.norm(np.asarray(wps[(i + 1) % len(wps)])
                                   - np.asarray(wps[i]))
                    for i in range(len(wps))]
            tb = max(legs) / s.speed + s.time_slack
        a = build_waypoint_automaton(wps, s.eps0, s.eps1, dyn, loops=s.loops,
                                     init_set=init, time_bound=tb)
    else:
        roads = build_roads(s)
        if s.time_bounds is not None:
            tbs = list(s.time_bounds)
        else:
            tbs = [np.linalg.norm(np.asarray(d) - np.asarray(src)) / s.speed
                   + s.time_slack for (src, d) in roads]
        path_len = None
        if s.path_kind == "rectangle":
            path_len = 4 * s.loops
        a = build_road_automaton(roads, s.eps0, s.eps1, dyn,
                                 init_set=init, time_bound=tbs,
                                 path_len=path_len)
        if s.infinite:
            if s.path_kind != "s_shaped":
                raise ScenarioError("infinite runs support the periodic "
                                    "s_shaped path")
            leg_y = s.geometry.get("leg_y", 16.0)
            a.period = PeriodInfo(4, np.array([0.0, 2 * leg_y]))
    _check_domain(s, a)
    return a


def _check_domain(s: Scenario, a: HybridAutomaton) -> None:
    dom = s.domain
    th = box(s.init_center, s.init_widths)
    if np.any(th.lo < dom.lo) or np.any(th.hi > dom.hi):
        raise ScenarioError("initial set leaves the domain box")
    for g in a.guards.values():
        bb = g.bounding_box()
        for i in range(a.dim):
            if np.isfinite(bb.lo[i]) and bb.lo[i] < dom.lo[i] - 1e-9:
                raise ScenarioError("guard leaves the domain box")
            if np.isfinite(bb.hi[i]) and bb.hi[i] > dom.hi[i] + 1e-9:
                raise ScenarioError("guard leaves the domain box")


def build_map(s: Scenario, dyn: Dynamics) -> VirtualMap:
    if s.map_kind == "t":
        return make_translation_map(dyn, s.mode_style)
    if s.map_kind == "tr":
        if s.mode_style != "road":
            raise ScenarioError("the tr map needs road-style modes")
        return make_tr_map(dyn, target_axis=s.target_axis)
    if s.map_kind == "custom":
        if not s.custom_map:
            raise ScenarioError("map 'custom' needs a custom_map table")
        from .geom import AffineMap
        table = {}
        for i, entry in enumerate(s.custom_map):
            try:
                mode = np.asarray(entry["mode"], dtype=float)
                gamma = AffineMap(np.asarray(entry["gamma_A"], dtype=float),
                                  np.asarray(entry["gamma_b"], dtype=float))
                rho = AffineMap(np.asarray(entry["rho_A"], dtype=float),
                                np.asarray(entry["rho_b"], dtype=float))
            except (KeyError, ValueError, TypeError) as exc:
                raise ScenarioError(f"custom_map[{i}]: {exc}")
            table[mode.tobytes()] = SymmetryPair.from_gamma(gamma, rho)
        return make_custom_map(dyn, table)
    raise ScenarioError(f"unsupported map kind {s.map_kind}")


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

_ALLOWED_KEYS = {
    "schema_version", "name", "dynamics", "mode_style", "path_kind",
    "geometry", "eps0", "eps1", "init_center", "init_widths", "unsafe",
    "domain", "grid_width", "dt", "time_slack", "time_bounds", "jmax",
    "map", "method", "speed", "length", "seed", "loops", "emit_segments",
    "infinite", "target_axis", "dynamics_file", "custom_map",
}


def _fail(path: str, msg: str) -> None:
    raise ScenarioError(f"{path}: {msg}")


def _read(path: str, key: str, convert, value):
    """``convert(value)``; a value it cannot convert is a ScenarioError
    naming ``key``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        _fail(path, f"{key}: cannot read {value!r} ({exc})")


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _float_pair(value):
    lo, hi = value
    return _floats(lo), _floats(hi)


def _flag(value) -> bool:
    """JSON true or false; anything else raises ValueError."""
    if not isinstance(value, bool):
        raise ValueError("not true or false")
    return value


def _pair(value) -> np.ndarray:
    pair = _floats(value)
    if pair.shape != (2,):
        raise ValueError("not a pair of numbers")
    return pair


def _points(value) -> List[np.ndarray]:
    pts = _floats(value)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise ValueError("not a list of 2-d or 3-d points")
    return list(pts)


def _custom_roads(value) -> np.ndarray:
    roads = _floats(value)
    if roads.ndim != 2 or roads.shape[1] != 4:
        raise ValueError("not a list of [x0, y0, x1, y1] roads")
    return roads


# the geometry fields the path builders read, and how to read them
_GEOMETRY = {
    "leg_x": float, "leg_y": float, "edge_len": float, "approach_len": float,
    "start": _pair, "approach_src": _pair, "len_range": _pair,
    "waypoints": _points,
}


def _geometry(path: str, path_kind: str, value) -> dict:
    """The geometry object with each field the builders read converted; a
    field that does not convert, or a key no builder reads, is a
    ScenarioError naming it.  ``roads`` is a road count, or the list of
    roads of a custom path."""
    if not isinstance(value, dict):
        _fail(path, f"geometry: cannot read {value!r} (not an object)")
    geo = dict(value)
    rules = dict(_GEOMETRY,
                 roads=_custom_roads if path_kind == "custom" else _whole)
    unknown = set(geo) - set(rules)
    if unknown:
        _fail(path, f"geometry: unknown fields: {sorted(unknown)}")
    for key, convert in rules.items():
        if key in geo:
            geo[key] = _read(path, f"geometry.{key}", convert, geo[key])
    return geo


def _whole(value) -> int:
    """An integer written as an int, a float with no fraction or decimal
    text; anything else (2.5, "2.5", true) raises ValueError."""
    if isinstance(value, bool) or not (
            isinstance(value, (str, int))
            or isinstance(value, float) and value.is_integer()):
        raise ValueError("not a whole number")
    return int(value)


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file, applying defaults."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})")
    if not isinstance(raw, dict):
        _fail(path, "top level must be an object")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        _fail(path, f"unknown fields: {sorted(unknown)}")
    if raw.get("schema_version") != SCHEMA_VERSION:
        _fail(path, "schema_version: missing or unsupported")
    for key in ("name", "dynamics", "mode_style", "path_kind"):
        if key not in raw:
            _fail(path, f"{key}: required")
    try:
        dynamics = DynamicsId(raw["dynamics"])
    except ValueError:
        _fail(path, f"dynamics: unknown id {raw['dynamics']!r}")
    mode_style = raw["mode_style"]
    if mode_style not in ("waypoint", "road"):
        _fail(path, "mode_style: must be waypoint or road")
    path_kind = raw["path_kind"]
    if path_kind not in ("rectangle", "s_shaped", "koch", "random", "custom"):
        _fail(path, f"path_kind: unknown {path_kind!r}")

    speed = _read(path, "speed", float, raw.get("speed", DEFAULT_SPEED))
    length = _read(path, "length", float, raw.get("length", DEFAULT_LENGTH))
    if "dynamics_file" in raw:
        side = raw["dynamics_file"]
        if not os.path.isabs(side):
            side = os.path.join(os.path.dirname(os.path.abspath(path)), side)
        try:
            with open(side) as fh:
                consts = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            _fail(path, f"dynamics_file: cannot read ({exc})")
        if not isinstance(consts, dict):
            _fail(path, "dynamics_file: top level must be an object")
        speed = _read(path, "dynamics_file v", float, consts.get("v", speed))
        length = _read(path, "dynamics_file L", float,
                       consts.get("L", length))

    cell = raw.get("grid_width", [DEFAULT_CELL_POS, DEFAULT_CELL_POS,
                                  DEFAULT_CELL_HEADING])
    if np.isscalar(cell):
        w = _read(path, "grid_width", float, cell)
        cell = [w, w, DEFAULT_CELL_HEADING]

    unsafe = []
    for i, ub in enumerate(_read(path, "unsafe", list, raw.get("unsafe", []))):
        lo, hi = _read(path, f"unsafe[{i}]", _float_pair, ub)
        if lo.shape != (3,) or hi.shape != (3,) or np.any(lo > hi):
            _fail(path, f"unsafe[{i}]: need [lo, hi] triples with lo <= hi")
        unsafe.append(HyperRect(lo, hi))

    dom_raw = raw.get("domain")
    if dom_raw is None:
        dom = HyperRect(np.array([-1e6, -1e6, -2 * math.pi]),
                        np.array([1e6, 1e6, 2 * math.pi]))
    else:
        dom = HyperRect(*_read(path, "domain", _float_pair, dom_raw))

    emit = raw.get("emit_segments")
    tb = raw.get("time_bounds")
    s = Scenario(
        name=str(raw["name"]),
        dynamics=dynamics,
        mode_style=mode_style,
        path_kind=path_kind,
        geometry=_geometry(path, path_kind, raw.get("geometry", {})),
        eps0=_read(path, "eps0", _floats, raw.get("eps0", [1.0, 1.4])),
        eps1=_read(path, "eps1", _floats, raw.get("eps1", [0.6, 1.0])),
        init_center=_read(path, "init_center", _floats,
                          raw.get("init_center", [0.0, 0.0, 0.0])),
        init_widths=_read(path, "init_widths", _floats,
                          raw.get("init_widths", [0.4, 0.4, math.pi / 2])),
        unsafe=unsafe, domain=dom,
        cell_width=_read(path, "grid_width", _floats, cell),
        dt=_read(path, "dt", float, raw.get("dt", DEFAULT_DT)),
        time_slack=_read(path, "time_slack", float,
                         raw.get("time_slack", DEFAULT_TIME_SLACK)),
        time_bounds=None if tb is None else _read(
            path, "time_bounds", lambda v: [float(x) for x in v], tb),
        jmax=parse_jmax(raw.get("jmax"), path),
        map_kind=raw.get("map", "t"), method=raw.get("method", "sv"),
        speed=speed, length=length,
        seed=_read(path, "seed", _whole, raw.get("seed", 7)),
        loops=_read(path, "loops", _whole, raw.get("loops", 4)),
        emit_segments=None if emit is None else _read(
            path, "emit_segments", _whole, emit),
        infinite=_read(path, "infinite", _flag, raw.get("infinite", False)),
        target_axis=_read(path, "target_axis", _whole,
                          raw.get("target_axis", 0)),
        custom_map=raw.get("custom_map"),
    )
    # geometry consistency is checked by the builders (DisconnectedPath)
    return validate_scenario(s, path)


def parse_jmax(value, where: str) -> Optional[int]:
    """A transition bound as written in a file or on the command line:
    ``None`` or ``"inf"`` for unbounded, else a whole number."""
    if value in (None, "inf"):
        return None
    try:
        return _whole(value)
    except (TypeError, ValueError):
        _fail(where, f"jmax: {value!r} is not an integer or 'inf'")


def _positive(x) -> bool:
    """Every entry finite and above zero (NaN fails)."""
    return bool(np.all(np.isfinite(x) & (np.asarray(x) > 0)))


def validate_scenario(s: Scenario, where: str) -> Scenario:
    """The field rules of a scenario; ``load_scenario`` applies them to a
    file and the command line again after its overrides.  Raises
    ``ScenarioError`` naming ``where`` and the first broken rule."""
    if not _positive([s.speed, s.length]):
        _fail(where, "speed/length: must be positive")
    if s.eps0.shape != (2,) or s.eps1.shape != (2,):
        _fail(where, "eps0/eps1: need two entries")
    if not (_positive(s.eps0) and _positive(s.eps1)):
        _fail(where, "eps0/eps1: must be positive")
    if s.cell_width.shape != (3,) or not _positive(s.cell_width):
        _fail(where, "grid_width: need three positive entries")
    if not _positive(s.dt):
        _fail(where, "dt: must be positive")
    if s.jmax is not None and s.jmax < 0:
        _fail(where, "jmax: must be nonnegative or 'inf'")
    if s.init_center.shape != (3,) or s.init_widths.shape != (3,):
        _fail(where, "init_center/init_widths: need three entries")
    if np.any(s.init_widths < 0):
        _fail(where, "init_widths: must be nonnegative")
    if s.method not in ("ns", "sc", "sv"):
        _fail(where, "method: must be ns, sc, or sv")
    if s.map_kind not in ("t", "tr", "custom"):
        _fail(where, "map: must be t, tr, or custom")
    if s.emit_segments is not None and s.emit_segments < 1:
        _fail(where, "emit_segments: must be at least 1")
    if s.time_bounds is not None and not all(x > 0 for x in s.time_bounds):
        _fail(where, "time_bounds: must be positive")
    if s.infinite and s.method != "sv":
        _fail(where, "infinite scenarios need method sv")
    if s.mode_style == "waypoint" and s.map_kind == "tr":
        _fail(where, "tr map needs road-style modes")
    return s

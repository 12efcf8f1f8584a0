"""Scenarios: path generators, automaton and map construction, and the
field table.  A scenario file is JSON (.scn by convention); each field, at
the top level and in ``geometry``, has one row in the table (``_FIELDS``;
``_GEOMETRY`` per path kind) stating how a value is read, its domain and
its default.  The file loader and the ``run`` flags walk the same rows.
An optional side file carries the vehicle constants (speed and length).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .automaton import (HybridAutomaton, PeriodInfo, build_road_automaton,
                        build_waypoint_automaton)
from .dynamics import Dynamics, DynamicsId
from .geom import AffineMap, Grid, HyperRect, Region, box
from .symmetry import (SymmetryPair, VirtualMap, make_custom_map,
                       make_translation_map, make_tr_map)

SCHEMA_VERSION = 1
DEFAULT_CELL_HEADING = math.pi / 16


class ScenarioError(Exception):
    """Schema violation or inconsistent scenario geometry."""


# the rectangle of the waypoint example: sides 3 and 5, approach road of
# length sqrt(5); coordinates sit on the 0.2 cell lattice so the concrete
# and virtual griddings of congruent sets coincide
RECT_WAYPOINTS = [np.array([-2.4, -1.4]), np.array([0.6, -1.4]),
                  np.array([0.6, 3.6]), np.array([-2.4, 3.6])]
RECT_APPROACH_SRC = np.array([-4.4, -0.4])


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
    target_axis: int
    custom_map: Optional[list]

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

def s_shaped_roads(leg_x: float = 12.0, leg_y: float = 16.0, roads: int = 16,
                   start=(0.0, 0.0)) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Rectangular S of ``roads`` roads: alternating long horizontal and
    vertical legs, the horizontal direction flipping every other leg."""
    pts = [np.asarray(start, dtype=float)]
    dirs = [np.array([leg_x, 0.0]), np.array([0.0, leg_y]),
            np.array([-leg_x, 0.0]), np.array([0.0, leg_y])]
    for i in range(roads):
        pts.append(pts[-1] + dirs[i % 4])
    return [(pts[i], pts[i + 1]) for i in range(roads)]


def rectangle_roads(approach_src=RECT_APPROACH_SRC,
                    waypoints=None) -> List[Tuple[np.ndarray, np.ndarray]]:
    wps = RECT_WAYPOINTS if waypoints is None else \
        [np.asarray(w, dtype=float) for w in waypoints]
    return ([(np.asarray(approach_src, dtype=float), wps[0])]
            + list(zip(wps, wps[1:] + wps[:1])))


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


def random_roads(seed: int, roads: int = 14, len_range=(2.0, 8.0),
                 start=(0.0, 0.0)) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Random chain of ``roads`` roads: lengths uniform in ``len_range``,
    heading increments uniform in [-pi/2, pi/2], regenerated from the
    seed."""
    rng = np.random.default_rng(seed)
    pts = [np.asarray(start, dtype=float)]
    heading = 0.0
    for i in range(roads):
        if i > 0:
            heading += rng.uniform(-math.pi / 2, math.pi / 2)
        length = rng.uniform(*len_range)
        pts.append(pts[-1] + length * np.array([math.cos(heading),
                                                math.sin(heading)]))
    return [(pts[i], pts[i + 1]) for i in range(roads)]


def build_roads(s: Scenario) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The roads of the scenario's path: its path kind's generator called
    with the geometry fields the file gives (the generator's defaults for
    the rest, and the scenario's seed for a random path), or the rows of a
    custom path."""
    geo = s.geometry
    if s.path_kind == "custom":
        return [(np.asarray(r[0:2], dtype=float), np.asarray(r[2:4], dtype=float))
                for r in geo["roads"]]
    if s.path_kind == "random":
        return random_roads(s.seed, **geo)
    return {"rectangle": rectangle_roads, "s_shaped": s_shaped_roads,
            "koch": koch_roads}[s.path_kind](**geo)


# ---------------------------------------------------------------------------
# automaton and map construction
# ---------------------------------------------------------------------------

# RK4 steps of dt over the longest time bound (a segment's samples less 1)
MAX_SEGMENT_STEPS = 20_000


def build_automaton(s: Scenario) -> HybridAutomaton:
    """The scenario's automaton.  Input errors that show only once the
    roads or waypoints are built raise ScenarioError."""
    if s.mode_style == "waypoint":
        if s.path_kind == "custom":
            wps = list(s.geometry["waypoints"])
        elif s.path_kind == "rectangle":  # the waypoints the cycle leaves
            wps = [src for (src, _) in build_roads(s)[1:]]
        else:
            wps = [d for (_, d) in build_roads(s)]
        if len(wps) < 2:
            raise ScenarioError(f"waypoint modes need at least 2 waypoints, "
                                f"the path gives {len(wps)}")
        legs = [np.linalg.norm(np.asarray(w) - np.asarray(v))
                for v, w in zip(wps, wps[1:] + wps[:1])]
        tbs = _time_bounds(s, [max(legs)], (1, len(wps)))
        a = build_waypoint_automaton(
            wps, s.eps0, s.eps1, s.dyn(), loops=s.loops,
            init_set=s.init_region(),
            time_bound=tbs if len(tbs) > 1 else tbs[0])
    else:
        roads = build_roads(s)
        tbs = _time_bounds(s, [np.linalg.norm(np.asarray(d) - np.asarray(src))
                               for (src, d) in roads], (len(roads),))
        a = build_road_automaton(
            roads, s.eps0, s.eps1, s.dyn(), init_set=s.init_region(),
            time_bound=tbs,
            path_len=4 * s.loops if s.path_kind == "rectangle" else None)
        if s.infinite:
            if len(roads) < 4:
                raise ScenarioError("infinite runs need at least one period "
                                    "(4 roads) of the s_shaped path")
            # one period: the end of road 3 less the start of road 0
            a.period = PeriodInfo(4, roads[3][1] - roads[0][0])
    _check_domain(s, a)
    return a


def _time_bounds(s: Scenario, legs: List[float],
                 counts: Tuple[int, ...]) -> List[float]:
    """``time_bounds``, of one of ``counts`` entries, else the travel time
    of each leg plus ``time_slack``; a segment takes at most
    MAX_SEGMENT_STEPS steps of ``dt``."""
    if s.time_bounds is None:
        tbs = [leg / s.speed + s.time_slack for leg in legs]
        if min(tbs) <= 0:
            raise ScenarioError(f"time_slack: {s.time_slack!r} leaves a time "
                                "bound <= 0")
    elif len(s.time_bounds) not in counts:
        raise ScenarioError(f"time_bounds: {len(s.time_bounds)} entries, "
                            f"need {' or '.join(map(str, counts))}")
    else:
        tbs = list(s.time_bounds)
    if max(tbs) / s.dt > MAX_SEGMENT_STEPS:
        raise ScenarioError(f"dt: {s.dt!r} takes {max(tbs) / s.dt:.3g} steps "
                            f"over the time bound {max(tbs):g}, more than "
                            f"{MAX_SEGMENT_STEPS:,} per segment")
    return tbs


def _check_domain(s: Scenario, a: HybridAutomaton) -> None:
    dom = s.domain
    th = box(s.init_center, s.init_widths)
    if np.any(th.lo < dom.lo) or np.any(th.hi > dom.hi):
        raise ScenarioError("initial set leaves the domain box")
    for g in a.guards.values():
        bb = g.bounding_box()
        if np.any(np.isfinite(bb.lo) & (bb.lo < dom.lo - 1e-9)) or np.any(
                np.isfinite(bb.hi) & (bb.hi > dom.hi + 1e-9)):
            raise ScenarioError("guard leaves the domain box")


def build_map(s: Scenario, dyn: Dynamics) -> VirtualMap:
    if s.map_kind == "t":
        return make_translation_map(dyn)
    if s.map_kind == "tr":
        if s.mode_style != "road":
            raise ScenarioError("the tr map needs road-style modes")
        for i, (src, dst) in enumerate(build_roads(s)):
            if np.hypot(*(dst - src)[:2]) < 1e-12:  # as make_tr_map's test
                raise ScenarioError(f"road {i} has zero length: the tr map "
                                    "needs its direction")
        return make_tr_map(dyn, target_axis=s.target_axis)
    if s.map_kind == "custom":
        if not s.custom_map:
            raise ScenarioError("map 'custom' needs a custom_map table")
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
        for mode in build_automaton(s).modes:
            if np.asarray(mode, dtype=float).tobytes() not in table:
                raise ScenarioError(f"custom_map: no entry for path mode "
                                    f"{mode.tolist()}")
        return make_custom_map(dyn, table)
    raise ScenarioError(f"unsupported map kind {s.map_kind}")


# ---------------------------------------------------------------------------
# the field table
# ---------------------------------------------------------------------------

class Field(NamedTuple):
    """``read`` turns a file value or a run flag's text into the value,
    or raises TypeError or ValueError (then ``unreadable``, if given, is the
    message); the value must pass ``ok``, stated by ``rule``.  An omitted
    or null field reads ``default`` (None: unset; ``...``: required).
    ``attr`` is the Scenario attribute if not the key, ``flag`` the run
    flag that overrides the field."""

    read: Callable[[Any], Any] = lambda v: v
    ok: Callable[[Any], bool] = lambda v: True
    rule: str = ""
    default: Any = None
    attr: Optional[str] = None
    flag: Optional[str] = None
    unreadable: Optional[str] = None


def _one_of(*choices: str) -> dict:
    listed = ", ".join(choices[:-1]) + ("," if len(choices) > 2 else "")
    return dict(ok=lambda v: v in choices,
                rule=f"must be {listed} or {choices[-1]}")


def _typed(kind: type, what: str) -> Callable:
    """A reader of values of type ``kind`` only."""
    def read(value):
        if not isinstance(value, kind):
            raise ValueError(f"not {what}")
        return value
    return read


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _pair(value) -> np.ndarray:
    pair = _floats(value)
    if pair.shape != (2,):
        raise ValueError("not a pair of numbers")
    return pair


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


def _positive(x) -> bool:
    """Every entry finite and above zero (NaN fails)."""
    return bool(np.all(np.isfinite(x) & (np.asarray(x) > 0)))


def _whole(value) -> int:
    """An integer written as an int, a float with no fraction or decimal
    text; anything else (2.5, "2.5", true) raises ValueError."""
    if isinstance(value, bool) or not (
            isinstance(value, (str, int))
            or isinstance(value, float) and value.is_integer()):
        raise ValueError("not a whole number")
    return int(value)


def _box(value) -> HyperRect:
    lo, hi = _floats(value)
    return HyperRect(lo, hi)


def _is_box(b: HyperRect) -> bool:
    return b.lo.shape == (3,) and bool(np.all(b.lo <= b.hi))


def _cell_widths(value) -> np.ndarray:
    """Three widths, or one for both position dimensions and the default
    heading width."""
    if np.ndim(value) == 0:
        return np.array([float(value), float(value), DEFAULT_CELL_HEADING])
    return _floats(value)


_EPS = Field(_floats, lambda a: a.shape == (2,) and _positive(a),
             "need two positive entries")
_START = Field(_pair, _finite, "must be finite")
_LENGTH = Field(float, math.isfinite, "must be finite")
_COUNT = Field(_whole, lambda n: n >= 1, "must be at least 1")
_WAYPOINTS = Field(_floats, lambda a: a.ndim == 2 and a.shape[1] in (2, 3)
                   and len(a) >= 2 and _finite(a),
                   "need at least 2 finite 2-d or 3-d points")

# the geometry fields of each path kind; the generators hold the defaults
_GEOMETRY: Dict[str, Dict[str, Field]] = {
    "rectangle": {"approach_src": _START, "waypoints": _WAYPOINTS},
    "s_shaped": {"leg_x": _LENGTH, "leg_y": _LENGTH, "roads": _COUNT,
                 "start": _START},
    "koch": {"edge_len": _LENGTH, "approach_len": _LENGTH, "start": _START},
    "random": {"roads": _COUNT, "start": _START, "len_range": Field(
        _pair, lambda r: _finite(r) and r[0] <= r[1], "need finite lo <= hi")},
    "custom": {"waypoints": _WAYPOINTS, "roads": Field(
        _floats, lambda a: a.ndim == 2 and a.shape[1] == 4 and len(a) > 0
        and _finite(a), "need finite [x0, y0, x1, y1] rows")},
}

_FIELDS: Dict[str, Field] = {
    "schema_version": Field(ok=lambda v: type(v) is int
                            and v == SCHEMA_VERSION,
                            rule="missing or unsupported", default=...),
    "name": Field(str, lambda v: v not in ("", ".", "..")
                  and os.path.basename(v) == v,
                  "must be one path component", default=...),
    "dynamics": Field(DynamicsId, default=...),
    "mode_style": Field(default=..., **_one_of("waypoint", "road")),
    "path_kind": Field(default=..., **_one_of(*_GEOMETRY)),
    "geometry": Field(_typed(dict, "an object"), default={}),
    "eps0": _EPS._replace(default=[1.0, 1.4]),
    "eps1": _EPS._replace(default=[0.6, 1.0]),
    "init_center": Field(_floats, lambda a: a.shape == (3,) and _finite(a),
                         "need three finite entries", [0.0, 0.0, 0.0]),
    "init_widths": Field(_floats, lambda a: a.shape == (3,) and _finite(a)
                         and bool(np.all(a >= 0)),
                         "need three finite nonnegative entries",
                         [0.4, 0.4, math.pi / 2]),
    "unsafe": Field(lambda v: [_box(b) for b in v],
                    lambda boxes: all(map(_is_box, boxes)),
                    "need [lo, hi] triples with lo <= hi", []),
    "domain": Field(_box, _is_box, "need [lo, hi] triples with lo <= hi",
                    [[-1e6, -1e6, -2 * math.pi], [1e6, 1e6, 2 * math.pi]]),
    "grid_width": Field(_cell_widths,
                        lambda a: a.shape == (3,) and _positive(a),
                        "need three positive entries",
                        [0.2, 0.2, DEFAULT_CELL_HEADING],
                        attr="cell_width", flag="--grid"),
    "dt": Field(float, _positive, "must be positive", 0.01, flag="--dt"),
    "time_slack": Field(float, math.isfinite, "must be finite", 1.5),
    "time_bounds": Field(lambda v: [float(x) for x in v],
                         lambda v: len(v) > 0 and _positive(v),
                         "must be one or more positive numbers"),
    "jmax": Field(lambda v: None if v == "inf" else _whole(v),
                  lambda v: v >= 0, "must be nonnegative or 'inf'",
                  flag="--jmax",
                  unreadable="jmax: {value!r} is not an integer or 'inf'"),
    "map": Field(default="t", attr="map_kind", flag="--map",
                 **_one_of("t", "tr", "custom")),
    "method": Field(default="sv", flag="--method",
                    **_one_of("ns", "sc", "sv")),
    "speed": Field(float, _positive, "must be positive", 1.0),
    "length": Field(float, _positive, "must be positive", 0.4),
    "seed": Field(_whole, lambda v: v >= 0, "must be nonnegative", 7),
    "loops": Field(_whole, lambda v: v >= 1, "must be at least 1", 4),
    "emit_segments": Field(_whole, lambda v: v >= 1, "must be at least 1"),
    "infinite": Field(_typed(bool, "true or false"), default=False),
    "target_axis": Field(_whole, lambda v: v in (0, 1), "must be 0 or 1", 0),
    "dynamics_file": Field(str),
    "custom_map": Field(ok=lambda v: isinstance(v, list)
                        and all(isinstance(e, dict) for e in v),
                        rule="must be a list of objects"),
}

# the Scenario attribute of each field that has one
_ATTRS = {key: f.attr or key for key, f in _FIELDS.items()
          if (f.attr or key) in {a.name for a in fields(Scenario)}}

# the ``run`` flags, each naming the field it overrides
RUN_FLAGS = tuple(f.flag for f in _FIELDS.values() if f.flag)


def _fail(where: str, msg: str) -> None:
    raise ScenarioError(f"{where}: {msg}")


def _read(where: str, label: str, f: Field, value,
          unreadable: str = "{label}: cannot read {value!r} ({exc})"):
    try:
        return f.read(value)
    except (TypeError, ValueError, OverflowError) as exc:
        _fail(where, (f.unreadable or unreadable).format(
            label=label, value=value, exc=exc))


def _check(where: str, label: str, f: Field, value) -> None:
    if value is not None and not f.ok(value):
        _fail(where, f"{label}: {f.rule}")


def _walk(where: str, rows: Dict[str, Field], raw: dict,
          prefix: str = "") -> Dict[str, Any]:
    """Each row's value read from ``raw``, or its default; a key of ``raw``
    no row names is an error.  Labels carry ``prefix``."""
    unknown = set(raw) - set(rows)
    if unknown:
        owner = f"{prefix[:-1]}: " if prefix else ""
        _fail(where, f"{owner}unknown fields: {sorted(unknown)}")
    out = {}
    for key, f in rows.items():
        value = f.default if raw.get(key) is None else raw[key]
        if value is ...:
            _fail(where, f"{prefix}{key}: required")
        out[key] = None if value is None else _read(where, prefix + key, f,
                                                    value)
    return out


def _json_object(path: str, where: str, label: str = "") -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # missing, not text, not JSON
        _fail(where, f"{label}cannot read ({exc})")
    if not isinstance(raw, dict):
        _fail(where, f"{label}top level must be an object")
    return raw


def load_scenario(path: str) -> Scenario:
    """A scenario file read and checked by the field table: ``geometry``
    by its path kind's rows, a ``dynamics_file`` (``v``, ``L``; relative
    to the file's directory) by those of ``speed`` and ``length``."""
    vals = _walk(path, _FIELDS, _json_object(path, path))
    for key in ("schema_version", "path_kind"):  # before Scenario has them
        _check(path, key, _FIELDS[key], vals[key])
    geo = _walk(path, _GEOMETRY[vals["path_kind"]], vals["geometry"],
                "geometry.")
    vals["geometry"] = {k: v for k, v in geo.items() if v is not None}
    if vals["dynamics_file"] is not None:
        side = os.path.join(os.path.dirname(os.path.abspath(path)),
                            vals["dynamics_file"])
        consts = _walk(path, {
            "v": _FIELDS["speed"]._replace(default=vals["speed"]),
            "L": _FIELDS["length"]._replace(default=vals["length"])},
            _json_object(side, path, "dynamics_file: "), "dynamics_file ")
        vals["speed"], vals["length"] = consts["v"], consts["L"]
    return validate_scenario(Scenario(**{
        attr: vals[key] for key, attr in _ATTRS.items()}), path)


def override(s: Scenario, texts: Dict[str, Optional[str]]) -> Scenario:
    """``s`` with each field whose ``run`` flag has a text in ``texts``
    read from it by the field's row, then ``validate_scenario``.
    ``--grid`` sets the position widths and keeps the heading width."""
    # the flags that name no choice take numbers
    kw = {f.attr or key: _read("command line", f.flag, f, texts[f.flag],
                               "{label}: {value!r} is not a number")
          for key, f in _FIELDS.items() if texts.get(f.flag) is not None}
    if "cell_width" in kw:
        kw["cell_width"][2] = s.cell_width[2]
    return validate_scenario(replace(s, **kw), "command line") if kw else s


def validate_scenario(s: Scenario, where: str) -> Scenario:
    """The field table's rules on a built scenario (its geometry's by its
    path kind's rows), then the rules that join fields.  Raises
    ``ScenarioError`` naming ``where`` and the first broken rule."""
    for key, attr in _ATTRS.items():
        _check(where, key, _FIELDS[key], getattr(s, attr))
    for key, value in s.geometry.items():
        _check(where, f"geometry.{key}", _GEOMETRY[s.path_kind][key], value)
    need = "roads" if s.mode_style == "road" else "waypoints"
    if s.path_kind == "custom" and need not in s.geometry:
        _fail(where, f"a custom path needs geometry.{need}")
    if s.infinite and (s.path_kind, s.mode_style) != ("s_shaped", "road"):
        _fail(where, "infinite runs support the periodic s_shaped road path")
    if s.infinite and s.method != "sv":
        _fail(where, "infinite scenarios need method sv")
    if s.mode_style == "waypoint" and s.map_kind == "tr":
        _fail(where, "tr map needs road-style modes")
    wps = s.geometry.get("waypoints")
    if s.dynamics is DynamicsId.ROBOT and wps is not None and wps.shape[1] != 2:
        _fail(where, "geometry.waypoints: robot paths need 2-d points")
    if ((s.path_kind, s.mode_style) == ("rectangle", "road")
            and wps is not None and wps.shape[1] != 2):
        _fail(where, "geometry.waypoints: a road rectangle needs 2-d points, "
                     "as approach_src")
    return s

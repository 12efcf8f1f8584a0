"""Hybrid automata with real-vector modes, plus the vehicle scenario builders.

A mode is a real vector (a waypoint or a road [src, dst]); the automaton
couples a finite mode graph with guarded, reset transitions and per-mode
time bounds.  Transitions are forced exactly when the mode's time bound is
reached: if any guard is then satisfied, one enabled edge is taken
nondeterministically, otherwise the execution stops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import Dynamics, DynamicsId, Trajectory
from .geom import AffineMap, GeometryError, HyperRect, Region, box

Edge = Tuple[int, int]


class GuardNotSatisfied(Exception):
    pass


class DisconnectedPath(Exception):
    """Road sequence does not chain end-to-start."""


@dataclass(frozen=True)
class PeriodInfo:
    """Periodic continuation of an infinite road path.

    Path entry i beyond the materialized window is the road at window
    index ``i % cycle_len`` displaced by ``(i // cycle_len) * shift`` in
    the plane (applied to both road endpoints).
    """

    cycle_len: int
    shift: np.ndarray


@dataclass
class HybridAutomaton:
    dim: int
    modes: List[np.ndarray]
    init_set: Region
    init_mode: int
    edges: List[Edge]
    guards: Dict[Edge, Region]
    resets: Dict[Edge, List[AffineMap]]
    dyn: Dynamics
    time_bounds: List[float]
    path: List[int] = field(default_factory=list)
    mode_style: str = "waypoint"
    period: Optional[PeriodInfo] = None

    def __post_init__(self):
        if not (0 <= self.init_mode < len(self.modes)):
            raise ValueError("invalid initial mode index")
        for (s, d) in self.edges:
            if not (0 <= s < len(self.modes) and 0 <= d < len(self.modes)):
                raise ValueError("edge endpoint out of range")
        if any(t <= 0 for t in self.time_bounds):
            raise ValueError("time bounds must be positive")
        if self.init_set.is_empty:
            raise ValueError("initial set is empty")

    def out_edges(self, i: int) -> List[Edge]:
        return [e for e in self.edges if e[0] == i]

    def guard(self, e: Edge) -> Region:
        return self.guards[e]

    def path_mode(self, i: int) -> np.ndarray:
        """Mode vector at path index ``i``, following the periodic
        continuation beyond the materialized path when one is declared."""
        if i < len(self.path):
            return self.modes[self.path[i]]
        if self.period is None:
            raise IndexError("path index beyond finite path")
        per = self.period
        reps, r = divmod(i, per.cycle_len)
        base = self.modes[self.path[r]]
        half = base.shape[0] // 2
        if half == 3:  # LINEAR3D roads carry z; displacement is planar
            shift = np.concatenate([per.shift, [0.0], per.shift, [0.0]])
        else:
            shift = np.concatenate([per.shift, per.shift])
        return base + shift * reps

    def path_mode_index(self, i: int) -> int:
        """Window mode index representing path entry ``i``."""
        if i < len(self.path):
            return self.path[i]
        if self.period is None:
            raise IndexError("path index beyond finite path")
        return self.path[i % self.period.cycle_len]


@dataclass(frozen=True)
class Execution:
    """Alternating trajectories and the mode indices they ran in."""

    pairs: Tuple[Tuple[Trajectory, int], ...]

    @property
    def transitions(self) -> int:
        return len(self.pairs) - 1


def execution_is_valid(a: HybridAutomaton, ex: Execution, tol: float = 1e-9) -> bool:
    """Machine check of the execution invariants: every adjacent pair is a
    discrete transition of ``a`` and durations respect the time bounds."""
    for k in range(len(ex.pairs)):
        traj, mode = ex.pairs[k]
        if traj.dur > a.time_bounds[mode] + tol:
            return False
        if k + 1 < len(ex.pairs):
            nxt_traj, nxt_mode = ex.pairs[k + 1]
            e = (mode, nxt_mode)
            if e not in a.guards:
                return False
            if not a.guards[e].contains_point(traj.lstate, tol=1e-7):
                return False
            images = [m(traj.lstate) for m in a.resets[e]]
            if not any(np.max(np.abs(img - nxt_traj.fstate)) <= tol for img in images):
                return False
    return True


# ---------------------------------------------------------------------------
# scenario builders
# ---------------------------------------------------------------------------

def _lift_waypoint(dyn: Dynamics, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if dyn.id is DynamicsId.LINEAR3D and w.shape[0] == 2:
        return np.concatenate([w, [0.0]])
    return w


def _guard_box(w2d: np.ndarray, eps: np.ndarray) -> Region:
    """B(w, eps) x R over the 3-d state: position box, free third coordinate."""
    w2d = np.asarray(w2d, dtype=float)
    eps = np.asarray(eps, dtype=float)
    lo = np.array([w2d[0] - eps[0] / 2, w2d[1] - eps[1] / 2, -np.inf])
    hi = np.array([w2d[0] + eps[0] / 2, w2d[1] + eps[1] / 2, np.inf])
    return Region((HyperRect(lo, hi).to_polytope(),), 3)


DEFAULT_INIT_CENTER = np.array([-4.5, -0.5, -np.pi / 4])
DEFAULT_INIT_WIDTHS = np.array([0.8, 0.8, np.pi / 2])


def default_init_set(center=None, widths=None) -> Region:
    c = DEFAULT_INIT_CENTER if center is None else np.asarray(center, dtype=float)
    w = DEFAULT_INIT_WIDTHS if widths is None else np.asarray(widths, dtype=float)
    return Region.from_boxes([box(c, w)])


def build_waypoint_automaton(waypoints: Sequence, eps0, eps1, dyn: Dynamics,
                             loops: int = 1, init_set: Optional[Region] = None,
                             time_bound=10.0) -> HybridAutomaton:
    """Automaton whose modes are the waypoints themselves.

    The robot in mode w_i chases w_i; guard(e_i) is the box around w_i
    (the union of the eps0 and eps1 boxes for the first edge, the eps1 box
    afterwards); all resets are the identity.  The canonical path visits
    the waypoint cycle ``loops`` times.
    """
    wps = [np.asarray(w, dtype=float) for w in waypoints]
    if len(wps) < 2:
        raise ValueError("need at least 2 waypoints")
    eps0 = np.asarray(eps0, dtype=float)
    eps1 = np.asarray(eps1, dtype=float)
    k = len(wps)
    modes = [_lift_waypoint(dyn, w) for w in wps]
    edges: List[Edge] = [(i, i + 1) for i in range(k - 1)]
    if k > 2 or loops > 1:
        edges.append((k - 1, 0))
    guards: Dict[Edge, Region] = {}
    resets: Dict[Edge, List[AffineMap]] = {}
    for (s, d) in edges:
        w2d = wps[s][:2]
        if s == 0:
            g = Region(tuple(_guard_box(w2d, eps0).polys
                             + _guard_box(w2d, eps1).polys), 3)
        else:
            g = _guard_box(w2d, eps1)
        guards[(s, d)] = g
        resets[(s, d)] = [AffineMap.identity(3)]
    path = [i % k for i in range(k * max(1, loops))]
    if init_set is None:
        init_set = default_init_set()
    tbs = list(time_bound) if np.ndim(time_bound) else [float(time_bound)] * k
    if len(tbs) != k:
        raise ValueError("need one time bound per waypoint")
    return HybridAutomaton(3, modes, init_set, 0, edges, guards, resets, dyn,
                           tbs, path=path, mode_style="waypoint")


def build_road_automaton(roads: Sequence, eps0, eps1, dyn: Dynamics,
                         init_set: Optional[Region] = None,
                         time_bound=10.0,
                         path_len: Optional[int] = None) -> HybridAutomaton:
    """Automaton whose modes are directed roads [src, dst].

    Consecutive roads must chain (road[i].dst == road[i+1].src); if the last
    road ends where an earlier road starts, the cycle is closed with an edge
    back to it.  Guards sit at each road's destination; the first edge gets
    the larger eps0 box.
    """
    rds = [(np.asarray(s, dtype=float), np.asarray(d, dtype=float))
           for (s, d) in roads]
    k = len(rds)
    for i in range(k - 1):
        if np.max(np.abs(rds[i][1] - rds[i + 1][0])) > 1e-9:
            raise DisconnectedPath(f"road {i} does not end where road {i+1} starts")
    eps0 = np.asarray(eps0, dtype=float)
    eps1 = np.asarray(eps1, dtype=float)
    modes = [np.concatenate([_lift_waypoint(dyn, s), _lift_waypoint(dyn, d)])
             for (s, d) in rds]
    edges: List[Edge] = [(i, i + 1) for i in range(k - 1)]
    if k > 1:
        last_dst = rds[-1][1]
        for j in range(k):
            if np.max(np.abs(rds[j][0] - last_dst)) <= 1e-9:
                edges.append((k - 1, j))
                break
    guards: Dict[Edge, Region] = {}
    resets: Dict[Edge, List[AffineMap]] = {}
    for (s, d) in edges:
        dest2d = rds[s][1][:2]
        guards[(s, d)] = _guard_box(dest2d, eps0 if s == 0 else eps1)
        resets[(s, d)] = [AffineMap.identity(3)]
    # canonical path: follow the (deterministic) successor structure
    succ = {s: d for (s, d) in edges}
    want = path_len if path_len is not None else k
    path = [0]
    while len(path) < want and path[-1] in succ:
        path.append(succ[path[-1]])
    if init_set is None:
        init_set = default_init_set()
    tbs = list(time_bound) if np.ndim(time_bound) else [float(time_bound)] * k
    if len(tbs) != k:
        raise ValueError("need one time bound per road")
    return HybridAutomaton(3, modes, init_set, 0, edges, guards, resets, dyn,
                           tbs, path=path, mode_style="road")


# ---------------------------------------------------------------------------
# execution semantics
# ---------------------------------------------------------------------------

def step_discrete(a: HybridAutomaton, x: np.ndarray, p: int, e: Edge) -> Region:
    """Post-states of taking edge ``e`` from state ``x`` in mode ``p``."""
    if e[0] != p:
        raise GuardNotSatisfied("edge does not leave the current mode")
    x = np.asarray(x, dtype=float)
    if not a.guards[e].contains_point(x):
        raise GuardNotSatisfied("state outside the guard of the edge")
    pts = [m(x) for m in a.resets[e]]
    side = np.zeros(a.dim)
    return Region.from_boxes([HyperRect(pt - side, pt + side) for pt in pts])


def sample_init_state(a: HybridAutomaton, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample from the initial region (rejection over its bbox)."""
    bb = a.init_set.bounding_box()
    for _ in range(10000):
        x = rng.uniform(bb.lo, bb.hi)
        if a.init_set.contains_point(x):
            return x
    raise RuntimeError("could not sample from initial set")


def sample_executions(a: HybridAutomaton, n: int, seed: int,
                      max_transitions: int, dt: float = 0.01) -> List[Execution]:
    """``n`` seeded executions, simulated in lockstep batches per mode.

    Execution ``j`` is the one a single execution seeded ``seed + j``
    would take (``tests/test_automaton.py`` keeps that loop as the
    oracle); executions that share the current mode advance together, so
    the cost scales with path length rather than with n * path length.
    """
    from .dynamics import simulate_batch
    rngs = [np.random.default_rng(seed + j) for j in range(n)]
    xs = np.stack([sample_init_state(a, r) for r in rngs])
    pairs: List[List] = [[] for _ in range(n)]
    active = {j: (a.init_mode, xs[j]) for j in range(n)}
    for _step in range(max_transitions + 1):
        if not active:
            break
        by_mode: Dict[int, List[int]] = {}
        for j, (mode, _) in active.items():
            by_mode.setdefault(mode, []).append(j)
        nxt = {}
        for mode, idxs in by_mode.items():
            X0 = np.stack([active[j][1] for j in idxs])
            batch = simulate_batch(a.dyn, X0, a.modes[mode],
                                   a.time_bounds[mode], dt)
            for row, j in enumerate(idxs):
                traj = Trajectory(batch[row], dt, a.modes[mode],
                                  duration=float(a.time_bounds[mode]))
                pairs[j].append((traj, mode))
                if _step == max_transitions:
                    continue
                enabled = [e for e in a.out_edges(mode)
                           if a.guards[e].contains_point(traj.lstate)]
                if not enabled:
                    continue
                rng = rngs[j]
                e = enabled[rng.integers(len(enabled))]
                maps = a.resets[e]
                m = maps[rng.integers(len(maps))]
                nxt[j] = (e[1], m(traj.lstate))
        active = nxt
    return [Execution(tuple(p)) for p in pairs]

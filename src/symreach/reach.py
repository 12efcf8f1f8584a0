"""Grid-based reachability engine: per-mode reachtubes, the three
computation methods, the per-virtual-mode fixed point, caches, transform
back, and the unbounded-horizon verifier.

The engine follows the cheap tube construction the comparison needs: the
state space is gridded, each occupied cell is simulated from its center,
and a cell-sized box is placed at every sample.  Methods:

* ``ns`` - no symmetry: the unrolled path is computed in concrete space.
* ``sc`` - symmetry + cache: per-mode initial sets are mapped into virtual
  coordinates, gridded and computed there (cell tubes shared across
  congruent modes), and mapped back before the concrete guard is applied.
* ``sv`` - full virtual-automaton method: the walk happens in the abstract
  automaton, a per-virtual-mode dictionary accumulates initial cells and
  reachsets, and once the fixed point holds the remaining concrete
  segments are produced by transforming dictionary entries back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .abstraction import VirtualAutomaton, construct_virtual_model
from .automaton import Edge, HybridAutomaton
from .dynamics import Dynamics, n_samples as traj_samples, simulate_batch
from .geom import (OCC_TOL, AffineMap, CellSet, Grid, HyperRect, Region,
                   fm_feasible_batch, occupied_cells, polytope_cells,
                   stack_boxes, transform_region)
from .symmetry import VirtualMap


class NoFixedPoint(Exception):
    """Fixed point not reached within the segment budget for an unbounded run."""


class UncoveredMode(Exception):
    """Transform-back hit a virtual mode with no dictionary entry."""


class DegenerateBaseline(Exception):
    """Over-approximation error needs positive baseline volumes."""


# ---------------------------------------------------------------------------
# metrics and output tubes
# ---------------------------------------------------------------------------

@dataclass
class Metrics:
    """Cell-level work counters plus wall time and added volume error.

    ``co``/``re`` count cell reachsets computed from scratch / retrieved
    from the tube cache; ``cp`` counts whole reachset segments copied out
    of the per-mode dictionary after the fixed point.
    """

    co: int = 0
    re: int = 0
    cp: int = 0
    wall_time: float = 0.0
    error_pct: Optional[float] = None

    @property
    def tot(self) -> int:
        return self.co + self.re + self.cp


@dataclass
class Reachtube:
    """Time-annotated axis-aligned profile of one reachset segment.

    ``boxes`` has shape (k, n, 2); row i covers the time window
    [times[i], times[i+1]] (the first row is the initial instant).
    """

    boxes: np.ndarray
    dt: float

    @property
    def n_rows(self) -> int:
        return self.boxes.shape[0]

    def time_window(self, i: int) -> Tuple[float, float]:
        if i == 0:
            return (0.0, 0.0)
        return ((i - 1) * self.dt, min(i, self.n_rows - 1) * self.dt)


@dataclass
class SegmentRecord:
    index: int
    mode_key: int                 # concrete mode (ns/sc) or virtual mode (sv)
    init_cells: CellSet
    seg_cells: CellSet
    profile: np.ndarray
    init_volume: float
    n_fresh: int = 0              # cells computed from scratch here


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------

@dataclass
class CellTube:
    centers: np.ndarray          # (k+1, n) simulated cell-center samples
    dt: float
    duration: float


class TubeCache:
    """Per (mode key, cell) simulated tubes; retrieval is exact cell lookup.

    Stored tubes shorter than a request are extended in place (the longer
    tube replaces the shorter one); longer tubes are truncated on the way
    out but kept whole in the cache.
    """

    def __init__(self):
        self.store: Dict[Tuple, CellTube] = {}

    def get(self, key, cell: Tuple[int, ...]) -> Optional[CellTube]:
        return self.store.get((key, cell))

    def put(self, key, cell: Tuple[int, ...], tube: CellTube) -> None:
        self.store[(key, cell)] = tube

    def __len__(self) -> int:
        return len(self.store)


class SafetyCache:
    """Results of reachtube-vs-unsafe-set intersections, with subsumption.

    An entry is (initial cells, time bound, unsafe region, safe flag); a
    query is answered from the cache when a stored entry subsumes it:
    smaller initial cells / shorter horizon / smaller unsafe set reuse a
    stored safe verdict, and the reverse containments reuse a stored
    unsafe verdict.  Anything else is a miss (miss is always sound).
    """

    def __init__(self):
        self.entries: List[Tuple[CellSet, float, Region, bool]] = []
        self.hits = 0
        self.misses = 0

    def get_intersect(self, k_cells: CellSet, T: float, u: Region) -> Optional[bool]:
        for (k2, t2, u2, safe) in self.entries:
            if safe and k_cells.issubset(k2) and T <= t2 + 1e-12 \
                    and _region_subset(u, u2):
                self.hits += 1
                return True
            if (not safe) and k2.issubset(k_cells) and T >= t2 - 1e-12 \
                    and _region_subset(u2, u):
                self.hits += 1
                return False
        self.misses += 1
        return None

    def store_intersect(self, k_cells: CellSet, T: float, u: Region,
                        safe: bool) -> None:
        self.entries.append((k_cells, T, u, safe))


def _region_subset(inner: Region, outer: Region) -> bool:
    """Conservative region containment: box-in-box per member, or exact
    H-representation equality; False on anything it cannot decide."""
    if inner.is_empty:
        return True
    ib = inner.boxes()
    ob = outer.boxes()
    if ib is not None and ob is not None:
        for bi in ib:
            if not any(np.all(bi.lo >= bo.lo - 1e-9) and
                       np.all(bi.hi <= bo.hi + 1e-9) for bo in ob):
                return False
        return True
    if len(inner.polys) == len(outer.polys):
        ok = True
        for p, q in zip(inner.polys, outer.polys):
            if p.A.shape != q.A.shape or not (np.allclose(p.A, q.A, atol=1e-9)
                                              and np.allclose(p.b, q.b, atol=1e-9)):
                ok = False
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# single-cell and single-mode tubes
# ---------------------------------------------------------------------------

def cell_reachtube(dyn: Dynamics, cell: Tuple[int, ...], g: Grid,
                   p: np.ndarray, T: float, dt: float) -> Reachtube:
    """Tube of one grid cell: simulate its center and stamp a cell-sized
    box at every sample."""
    if T <= 0:
        raise ValueError("time bound must be positive")
    center = g.cell_center(np.asarray(cell, dtype=np.int64))
    traj = simulate_batch(dyn, center[None, :], p, T, dt)[0]
    half = g.cell_width / 2.0
    boxes = np.stack([traj - half, traj + half], axis=2)
    return Reachtube(boxes, dt)


def _segment_centers(dyn: Dynamics, cells: CellSet, g: Grid, p: np.ndarray,
                     T: float, dt: float, cache: TubeCache, key,
                     metrics: Metrics) -> np.ndarray:
    """Center trajectories for every cell, consulting the tube cache.

    Returns shape (M, k+1, n) aligned with ``cells.cells`` row order.
    """
    count = traj_samples(T, dt)
    M = len(cells)
    out = np.empty((M, count, g.dim))
    miss_rows = []
    for r, cell in enumerate(map(tuple, cells.cells.tolist())):
        tube = cache.get(key, cell)
        if tube is None:
            miss_rows.append(r)
            continue
        if tube.duration + 1e-12 < T:
            ext = simulate_batch(dyn, tube.centers[-1][None, :], p,
                                 T - tube.duration, dt)[0]
            tube = CellTube(np.vstack([tube.centers, ext[1:]]), dt, T)
            cache.put(key, cell, tube)
        metrics.re += 1
        out[r] = tube.centers[:count]
    if miss_rows:
        rows = np.array(miss_rows)
        starts = g.cell_centers(cells.cells[rows])
        fresh = simulate_batch(dyn, starts, p, T, dt)
        out[rows] = fresh
        for j, r in enumerate(miss_rows):
            cell = tuple(cells.cells[r].tolist())
            cache.put(key, cell, CellTube(fresh[j], dt, T))
        metrics.co += len(miss_rows)
    return out


def _profile(centers: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Per-time bounding profile over all cell tubes; shape (k+1, n, 2)."""
    lo = centers.min(axis=0) - half
    hi = centers.max(axis=0) + half
    return np.stack([lo, hi], axis=2)


def _boxes_cells(lo: np.ndarray, hi: np.ndarray, g: Grid) -> CellSet:
    if lo.size == 0:
        return CellSet(dim=g.dim)
    return CellSet(g.boxes_to_cells(lo, hi), dim=g.dim)


def _clip_boxes(lo: np.ndarray, hi: np.ndarray, gb: HyperRect):
    lo2 = np.maximum(lo, gb.lo)
    hi2 = np.minimum(hi, gb.hi)
    valid = np.all(hi2 - lo2 > OCC_TOL, axis=1)
    return lo2[valid], hi2[valid]


def _edge_exit(tube_lo: np.ndarray, tube_hi: np.ndarray, seg_cells: CellSet,
               guard: Region, maps: Sequence[AffineMap], g: Grid) -> CellSet:
    """Cells of the reset image of (tube boxes intersect guard), scanning all
    time points.

    Axis-aligned guards with box-preserving resets use the vectorized clip
    path on the raw tube boxes.  Rotated guards or resets take the exact
    path on the cell-snapped tube: per guard polytope, the pieces (guard
    intersect near cell) share one coefficient matrix, so one batched
    Fourier-Motzkin call drops the empty pieces, each reset transforms all
    pieces at once, and ``polytope_cells`` decides every (image, candidate
    cell) pair in one more batched call.
    """
    gboxes = guard.boxes()
    axis_maps = all(m.is_identity() or m.axis_action() is not None for m in maps)
    out = CellSet(dim=g.dim)
    if gboxes is not None and axis_maps:
        for gb in gboxes:
            plo, phi_ = _clip_boxes(tube_lo, tube_hi, gb)
            if plo.size == 0:
                continue
            for m in maps:
                tlo, thi, _ = _box_images(plo, phi_, m)
                out = out.union(_boxes_cells(tlo, thi, g))
        return out
    # exact path at cell granularity
    cell_lo, cell_hi = seg_cells.boxes(g)
    parts = []
    for poly in guard.polys:
        bb = poly.bounding_box()
        near = np.all((cell_lo <= bb.hi + OCC_TOL)
                      & (cell_hi >= bb.lo - OCC_TOL), axis=1)
        A, B = stack_boxes(poly.A, poly.b, cell_lo[near], cell_hi[near])
        B = B[fm_feasible_batch(A, B)]
        if len(B) == 0:
            continue
        for m in maps:
            if m.is_identity():
                parts.append(polytope_cells(A, B, g))
                continue
            Minv = m.inverse()
            parts.append(polytope_cells(A @ Minv.A, B - A @ Minv.b, g))
    if not parts:
        return out
    return CellSet(np.vstack(parts), dim=g.dim)


@dataclass
class ModeReachResult:
    seg_cells: CellSet
    exits: Dict[Edge, CellSet]
    profile: np.ndarray
    init_cells: CellSet
    tube_lo: np.ndarray
    tube_hi: np.ndarray


def mode_reach(init, p: np.ndarray, time_bound: float,
               out_guards: Dict[Edge, Region],
               out_resets: Dict[Edge, Sequence[AffineMap]],
               g: Grid, dt: float, cache: TubeCache, key,
               metrics: Metrics, dyn: Dynamics,
               back: Optional[AffineMap] = None) -> ModeReachResult:
    """One reachset segment: grid the initial set, union the cell tubes,
    and push every tube box through each outgoing guard and reset.

    With a ``back`` map the tube is computed in virtual coordinates and
    mapped back before any guard applies: a signed permutation maps the
    raw tube boxes exactly, any other map re-boxes the transformed cells.
    ``init_cells`` stay in the coordinates the tube was computed in."""
    if isinstance(init, CellSet):
        cells = init
    else:
        cells = occupied_cells(init, g)
    if len(cells) == 0:
        raise ValueError("initial set grids to no cells")
    centers = _segment_centers(dyn, cells, g, p, time_bound, dt, cache, key,
                               metrics)
    half = g.cell_width / 2.0
    flat = centers.reshape(-1, g.dim)
    tube_lo = flat - half
    tube_hi = flat + half
    profile = _profile(centers, half)
    if back is None:
        seg_cells = _boxes_cells(tube_lo, tube_hi, g)
    elif back.axis_action() is not None:
        tube_lo, tube_hi, _ = _box_images(tube_lo, tube_hi, back)
        seg_cells = _boxes_cells(tube_lo, tube_hi, g)
        profile, _ = transform_profile(profile, back)
    else:
        seg_cells, _ = transform_cells(_boxes_cells(tube_lo, tube_hi, g),
                                       back, g)
        tube_lo, tube_hi = seg_cells.boxes(g)
        profile, _ = transform_profile(profile, back)
    exits = {}
    for e, guard in out_guards.items():
        exits[e] = _edge_exit(tube_lo, tube_hi, seg_cells, guard,
                              out_resets[e], g)
    return ModeReachResult(seg_cells, exits, profile, cells, tube_lo, tube_hi)


# ---------------------------------------------------------------------------
# per-virtual-mode dictionary and the fixed point
# ---------------------------------------------------------------------------

@dataclass
class PerModeEntry:
    K: CellSet
    R_cells: CellSet
    exits: Dict[Edge, CellSet]
    profile: Optional[np.ndarray] = None
    duration: float = 0.0


class PerModeDict:
    """Accumulated initial cells K and reachsets R per virtual mode."""

    def __init__(self, dim: int):
        self.entries: Dict[int, PerModeEntry] = {}
        self.dim = dim

    def entry(self, v: int) -> Optional[PerModeEntry]:
        return self.entries.get(v)

    def update(self, v: int, init_cells: CellSet, res: ModeReachResult,
               duration: float) -> None:
        ent = self.entries.get(v)
        if ent is None:
            ent = PerModeEntry(init_cells, res.seg_cells, dict(res.exits),
                               res.profile.copy(), duration)
            self.entries[v] = ent
            return
        ent.K = ent.K.union(init_cells)
        ent.R_cells = ent.R_cells.union(res.seg_cells)
        for e, cs in res.exits.items():
            ent.exits[e] = ent.exits.get(e, CellSet(dim=self.dim)).union(cs)
        if ent.profile is None:
            ent.profile = res.profile.copy()
        else:
            k = min(ent.profile.shape[0], res.profile.shape[0])
            merged = ent.profile.copy()
            merged[:k, :, 0] = np.minimum(merged[:k, :, 0], res.profile[:k, :, 0])
            merged[:k, :, 1] = np.maximum(merged[:k, :, 1], res.profile[:k, :, 1])
            if res.profile.shape[0] > merged.shape[0]:
                merged = np.vstack([merged, res.profile[merged.shape[0]:]])
            ent.profile = merged
        ent.duration = max(ent.duration, duration)


def check_fixed_point(dct: PerModeDict, va: VirtualAutomaton, g: Grid) -> bool:
    """True iff the abstract initial cells are covered and every guard exit
    accumulated so far resets into the destination mode's accumulated
    initial cells (containment at cell granularity)."""
    av = va.auto
    theta_cells = occupied_cells(av.init_set, g)
    init_ent = dct.entry(av.init_mode)
    if init_ent is None or not theta_cells.issubset(init_ent.K):
        return False
    for (q, r) in av.edges:
        src = dct.entry(q)
        if src is None:
            continue
        inflow = src.exits.get((q, r))
        if inflow is None or len(inflow) == 0:
            continue
        dst = dct.entry(r)
        if dst is None or not inflow.issubset(dst.K):
            return False
    return True


# ---------------------------------------------------------------------------
# cell-set transforms (virtual <-> concrete)
# ---------------------------------------------------------------------------

def transform_cells(cells: CellSet, m: AffineMap, g: Grid) -> Tuple[CellSet, bool]:
    """Image of a cell union under an affine map, re-gridded.

    Lattice-preserving maps (signed permutations) are exact; anything else
    re-boxes each transformed cell to its bounding box first (conservative,
    reported via the second return value).
    """
    if len(cells) == 0 or m.is_identity():
        return cells, False
    lo, hi, rotated = _box_images(*cells.boxes(g), m)
    return _boxes_cells(lo, hi, g), rotated


def transform_profile(profile: np.ndarray, m: AffineMap) -> Tuple[np.ndarray, bool]:
    lo, hi, rotated = _box_images(profile[:, :, 0], profile[:, :, 1], m)
    return np.stack([lo, hi], axis=2), rotated


def _box_images(lo: np.ndarray, hi: np.ndarray,
                m: AffineMap) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Boxes (N, n) bounding the images of boxes ``lo``/``hi`` under ``m``:
    exact for identity and signed-permutation maps, otherwise the bounding
    box of each image's corners (flagged by the third return value)."""
    if m.is_identity():
        return lo, hi, False
    if m.axis_action() is not None:
        tlo, thi = m.apply_boxes(lo, hi)
        return tlo, thi, False
    n = lo.shape[1]
    corners = np.empty((lo.shape[0], 2 ** n, n))
    for j in range(2 ** n):
        pick = np.array([(j >> d) & 1 for d in range(n)], dtype=bool)
        corners[:, j, :] = np.where(pick, hi, lo)
    img = m(corners.reshape(-1, n)).reshape(corners.shape)
    return img.min(axis=1), img.max(axis=1), True


# ---------------------------------------------------------------------------
# the segment walk
# ---------------------------------------------------------------------------

@dataclass
class ReachResult:
    method: str
    segments: List[SegmentRecord]
    metrics: Metrics
    grid: Grid
    dt: float
    va: Optional[VirtualAutomaton] = None
    dct: Optional[PerModeDict] = None
    fixed_point: Optional[bool] = None
    fixed_at: Optional[int] = None
    requested_segments: Optional[int] = None

    def per_index_init_volumes(self, a: HybridAutomaton,
                               n: Optional[int] = None) -> List[float]:
        """Per-path-index initial-set volumes for the error metric.

        ns/sc read them off the walked segments; sv charges the walked
        initial set for segments computed before the fixed point and the
        accumulated dictionary initial set for every copied segment (which
        is what the transform-back construction starts from)."""
        if self.method in ("ns", "sc"):
            return [s.init_volume for s in self.segments]
        count = n if n is not None else (self.requested_segments or len(a.path))
        vols = []
        for i in range(count):
            if i < len(self.segments):
                vols.append(self.segments[i].init_volume)
                continue
            vj = self.va.concrete_to_virtual[a.path_mode_index(i)]
            ent = self.dct.entry(vj)
            if ent is None:
                raise UncoveredMode(f"no dictionary entry for virtual mode {vj}")
            vols.append(ent.K.volume(self.grid))
        return vols


def compute_reachset(a: HybridAutomaton, J: Optional[int], g: Grid, dt: float,
                     method: str, phi: Optional[VirtualMap] = None,
                     va: Optional[VirtualAutomaton] = None,
                     cache: Optional[TubeCache] = None,
                     segment_budget: Optional[int] = None,
                     emit_segments: Optional[int] = None) -> ReachResult:
    """Reachset of the automaton along its canonical path.

    One walk serves all three methods; they differ in the frame a segment
    is computed in, the key its cell tubes are cached under, and when the
    walk stops:

    * ``ns`` walks the concrete automaton (key ``("c", mode)``) and takes
      only the next path edge, to the end of the path.
    * ``sc`` maps each segment's initial set into its virtual mode's
      coordinates (key ``("v", vmode)``), computes it for the concrete time
      bound, and maps the tube back before the concrete guard applies.
    * ``sv`` walks the abstract automaton with all out-edges of each mode,
      accumulates a per-virtual-mode dictionary, and stops at its fixed
      point; the remaining requested segments are copied out of the
      dictionary instead of computed (``#cp``).

    ``J`` bounds the number of transitions (None: the full materialized
    path).  For ``sv`` with an infinite path (J=None on a periodic
    automaton), the walk continues until the fixed point or until
    ``segment_budget`` segments (default 10 * |modes_v| * |edges_v|), after
    which NoFixedPoint is raised; a bounded request returns flagged
    not-fixed.  ``emit_segments`` extends the copied count for periodic
    paths beyond the materialized window.
    """
    if method not in ("ns", "sc", "sv"):
        raise ValueError("method must be ns, sc, or sv")
    if method in ("sc", "sv") and phi is None:
        raise ValueError("sc/sv need a virtual map")
    t0 = time.perf_counter()
    metrics = Metrics()
    cache = cache if cache is not None else TubeCache()
    if method != "ns" and va is None:
        va = construct_virtual_model(a, phi)
    sv = method == "sv"
    walked = va.auto if sv else a

    def node(i: int) -> int:
        """Mode of the walked automaton at path index ``i``."""
        mi = a.path_mode_index(i)
        return va.concrete_to_virtual[mi] if sv else mi

    requested = walk_max = len(a.path) if J is None else min(len(a.path), J + 1)
    unbounded = sv and a.period is not None and J is None
    if sv:
        budget = segment_budget
        if budget is None:
            budget = 10 * max(1, len(walked.modes)) * max(1, len(walked.edges))
        if emit_segments is not None:
            requested = emit_segments
        elif a.period is not None and J is not None:
            requested = J + 1
        walk_max = budget if unbounded else min(requested, budget)
        dct = PerModeDict(a.dim)
    segs: List[SegmentRecord] = []
    cur = walked.init_set
    fixed = False
    for i in range(walk_max):
        q = node(i)
        nxt = node(i + 1) if i + 1 < walk_max else None
        if sv:
            edges = walked.out_edges(q)
        else:
            edges = [(q, nxt)] if nxt is not None else []
        back = None
        if method == "ns":
            key, p = ("c", q), a.modes[q]
        else:
            v = q if sv else va.concrete_to_virtual[q]
            key, p = ("v", v), va.auto.modes[v]
        if method == "sc":
            pc = a.modes[q]
            if isinstance(cur, Region):
                cur = transform_region(cur, phi.gamma(pc))
            else:
                cur, _ = transform_cells(cur, phi.gamma(pc), g)
            back = phi.gamma_inv(pc)
        co0 = metrics.co
        res = mode_reach(cur, p, walked.time_bounds[q],
                         {e: walked.guards[e] for e in edges},
                         {e: va.reset_maps(e) if sv else a.resets[e]
                          for e in edges}, g, dt, cache, key,
                         metrics, a.dyn, back=back)
        segs.append(SegmentRecord(i, q, res.init_cells, res.seg_cells,
                                  res.profile, res.init_cells.volume(g),
                                  n_fresh=metrics.co - co0))
        if sv:
            dct.update(q, res.init_cells, res, walked.time_bounds[q])
            if check_fixed_point(dct, va, g):
                fixed = True
                break
        if nxt is None:
            break
        if (q, nxt) not in walked.guards:
            raise KeyError(f"path uses missing edge {(q, nxt)}")
        cur = res.exits[(q, nxt)]
        if len(cur) == 0:
            break
    metrics.wall_time = time.perf_counter() - t0
    if not sv:
        return ReachResult(method, segs, metrics, g, dt, va=va)
    if not fixed and unbounded:
        raise NoFixedPoint(f"no fixed point within {budget} segments")
    if fixed:
        metrics.cp = max(0, requested - len(segs))
    return ReachResult("sv", segs, metrics, g, dt, va=va, dct=dct,
                       fixed_point=fixed, fixed_at=len(segs) - 1,
                       requested_segments=requested)


# ---------------------------------------------------------------------------
# transform back and the unbounded verifier
# ---------------------------------------------------------------------------

@dataclass
class TransformedSegment:
    index: int
    vmode: int
    cells: CellSet
    profile: np.ndarray
    rotated: bool
    duration: float


def transform_back(dct: PerModeDict, phi: VirtualMap, a: HybridAutomaton,
                   va: VirtualAutomaton, g: Grid,
                   indices: Sequence[int]) -> List[TransformedSegment]:
    """Concrete reachset segments for the requested path indices, produced
    by transforming the per-mode dictionary entries with the inverse state
    maps (no further reach computation)."""
    out: List[TransformedSegment] = []
    for i in indices:
        p = a.path_mode(i)
        vj = va.concrete_to_virtual[a.path_mode_index(i)]
        ent = dct.entry(vj)
        if ent is None:
            raise UncoveredMode(f"no dictionary entry for virtual mode {vj}")
        ginv = phi.gamma_inv(p)
        cells, rot1 = transform_cells(ent.R_cells, ginv, g)
        prof, rot2 = transform_profile(ent.profile, ginv)
        out.append(TransformedSegment(i, vj, cells, prof, rot1 or rot2,
                                      ent.duration))
    return out


def _cells_intersect_region(cells: CellSet, g: Grid, u: Region,
                            shift: Optional[np.ndarray] = None) -> bool:
    if len(cells) == 0 or u.is_empty:
        return False
    lo, hi = cells.boxes(g)
    if shift is not None:
        lo = lo + shift
        hi = hi + shift
    ub = u.boxes()
    if ub is not None:
        for b in ub:
            over = np.all((lo < b.hi - OCC_TOL) & (hi > b.lo + OCC_TOL), axis=1)
            if np.any(over):
                return True
        return False
    for poly in u.polys:
        bb = poly.bounding_box()
        near = np.all((lo <= bb.hi) & (hi >= bb.lo), axis=1)
        if fm_feasible_batch(*stack_boxes(poly.A, poly.b, lo[near] + OCC_TOL,
                                          hi[near] - OCC_TOL)).any():
            return True
    return False


def reachset_meets(result: ReachResult, U: Region,
                   tb: Optional[Sequence[TransformedSegment]] = None) -> bool:
    """True iff the cells of some segment meet ``U``: the transformed-back
    segments ``tb`` when given (sv), else the walked segments."""
    cells = ([seg.cells for seg in tb] if tb is not None
             else [seg.seg_cells for seg in result.segments])
    return any(_cells_intersect_region(c, result.grid, U) for c in cells)


def _reachable_mode_indices(a: HybridAutomaton) -> List[int]:
    seen = {a.init_mode}
    stack = [a.init_mode]
    while stack:
        q = stack.pop()
        for (s, d) in a.edges:
            if s == q and d not in seen:
                seen.add(d)
                stack.append(d)
    return sorted(seen)


@dataclass
class UnboundedVerdict:
    verdict: str                 # 'Safe' | 'Unknown'
    reason: str
    result: Optional[ReachResult]
    va: Optional[VirtualAutomaton]


def unbounded_verif(a: HybridAutomaton, phi: VirtualMap, U: Region,
                    J: Optional[int], g: Grid, dt: float,
                    segment_budget: Optional[int] = None,
                    emit_segments: Optional[int] = None,
                    va: Optional[VirtualAutomaton] = None) -> UnboundedVerdict:
    """Safe iff the abstract reachset computation reaches a fixed point and
    no reachable mode's transformed dictionary reachset meets the unsafe
    set; otherwise Unknown.  ``va`` is the virtual automaton of (a, phi),
    built here when not given.

    Periodic infinite paths are handled exactly: per cycle residue the
    transformed reachset translates by a fixed planar shift each period, so
    only a finite, computable range of periods can meet a bounded unsafe
    set.
    """
    if U.dim != a.dim:
        raise ValueError("unsafe set dimension mismatch")
    if va is None:
        va = construct_virtual_model(a, phi)
    try:
        result = compute_reachset(a, J, g, dt, "sv", phi=phi, va=va,
                                  segment_budget=segment_budget,
                                  emit_segments=emit_segments)
    except NoFixedPoint as exc:
        return UnboundedVerdict("Unknown", str(exc), None, va)
    if not result.fixed_point:
        return UnboundedVerdict("Unknown", "fixed point not reached", result, va)
    dct = result.dct
    # all modes reachable in the concrete graph
    for mi in _reachable_mode_indices(a):
        ent = dct.entry(va.concrete_to_virtual[mi])
        if ent is None:
            continue
        ginv = phi.gamma_inv(a.modes[mi])
        cells, _ = transform_cells(ent.R_cells, ginv, g)
        if _cells_intersect_region(cells, g, U):
            return UnboundedVerdict("Unknown",
                                    f"reachset of mode {mi} meets unsafe set",
                                    result, va)
    if a.period is not None:
        hit = _periodic_intersection(a, va, dct, phi, g, U)
        if hit is not None:
            return UnboundedVerdict("Unknown", hit, result, va)
    return UnboundedVerdict("Safe", "fixed point reached; unsafe set untouched",
                            result, va)


def _periodic_intersection(a, va, dct, phi, g, U) -> Optional[str]:
    """Exact intersection test over all periodic continuations: for residue
    r the transformed reachset at period k is the k=1 image shifted by
    (k-1)*shift, so solve the finite k-range per dimension and test it."""
    per = a.period
    ub = U.bounding_box()
    n = a.dim
    shift_state = np.zeros(n)
    shift_state[:2] = per.shift
    for r in range(per.cycle_len):
        # representative index in the first period beyond the window
        reps0 = -(-len(a.path) // per.cycle_len)
        base_i = reps0 * per.cycle_len + r
        p = a.path_mode(base_i)
        vj = va.concrete_to_virtual[a.path_mode_index(base_i)]
        ent = dct.entry(vj)
        if ent is None:
            continue
        cells, _ = transform_cells(ent.R_cells, phi.gamma_inv(p), g)
        if len(cells) == 0:
            continue
        bb = cells.bounding_box(g)
        k_lo, k_hi = 0.0, np.inf
        feasible = True
        for d in range(n):
            s = shift_state[d]
            if abs(s) < 1e-12:
                if ub.lo[d] > bb.hi[d] or ub.hi[d] < bb.lo[d]:
                    feasible = False
                    break
            else:
                a1 = (ub.lo[d] - bb.hi[d]) / s
                a2 = (ub.hi[d] - bb.lo[d]) / s
                lo_k, hi_k = min(a1, a2), max(a1, a2)
                k_lo = max(k_lo, lo_k)
                k_hi = min(k_hi, hi_k)
        if not feasible or k_lo > k_hi:
            continue
        for k in range(max(0, int(np.floor(k_lo))), int(np.ceil(k_hi)) + 1):
            if _cells_intersect_region(cells, g, U, shift=shift_state * k):
                return (f"periodic continuation residue {r}, period {k} "
                        f"meets unsafe set")
    return None


# ---------------------------------------------------------------------------
# cached safety queries
# ---------------------------------------------------------------------------

def sym_safety(K: Region, p: np.ndarray, T: float, U: Region,
               phi: VirtualMap, scache: SafetyCache, tcache: TubeCache,
               g: Grid, dt: float, dyn: Dynamics) -> bool:
    """Cached bounded-horizon safety check for one mode.

    The initial and unsafe sets are mapped into virtual coordinates; a
    subsuming cached verdict is reused, otherwise the virtual tube is
    computed (through the tube cache), intersected, stored and returned.
    True means safe.
    """
    gamma = phi.gamma(p)
    kv = transform_region(K, gamma)
    uv = transform_region(U, gamma)
    k_cells = occupied_cells(kv, g)
    cached = scache.get_intersect(k_cells, T, uv)
    if cached is not None:
        return cached
    metrics = Metrics()
    rv_key = ("v", np.round(phi.rv(p), 9).tobytes())
    centers = _segment_centers(dyn, k_cells, g, phi.rv(p), T, dt, tcache,
                               rv_key, metrics)
    half = g.cell_width / 2.0
    flat = centers.reshape(-1, g.dim)
    seg_cells = _boxes_cells(flat - half, flat + half, g)
    safe = not _cells_intersect_region(seg_cells, g, uv)
    scache.store_intersect(k_cells, T, uv, safe)
    return safe


# ---------------------------------------------------------------------------
# over-approximation error
# ---------------------------------------------------------------------------

def overapprox_error(ns_vols: Sequence[float], other_vols: Sequence[float]) -> float:
    """Average percentage volume added to the per-index mode initial sets
    relative to the no-symmetry baseline."""
    if len(ns_vols) != len(other_vols):
        raise ValueError("volume sequences must align per path index")
    if any(v <= 0 for v in ns_vols):
        raise DegenerateBaseline("baseline initial-set volume is zero")
    vals = [(o - b) / b * 100.0 for b, o in zip(ns_vols, other_vols)]
    return float(np.mean(vals))

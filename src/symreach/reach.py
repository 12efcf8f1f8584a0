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
from functools import cached_property
from typing import Dict, Generator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .abstraction import VirtualAutomaton, construct_virtual_model
from .automaton import Edge, HybridAutomaton
from .dynamics import (Dynamics, NumericalBlowup, n_samples as traj_samples,
                       simulate_batch)
from .geom import (OCC_TOL, AffineMap, CellSet, Grid, HyperRect, Region,
                   cell_keys, fm_feasible_batch, occupied_cells, owner_pairs,
                   polytope_cells, stack_boxes, transform_region)
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


def time_window(i: int, k: int, dt: float) -> Tuple[float, float]:
    """Time window [t_lo, t_hi] of row ``i`` of a ``k``-row profile sampled
    every ``dt``: row 0 is the initial instant, row i >= 1 spans the step
    ending at sample i, clipped to the last sample."""
    if i == 0:
        return (0.0, 0.0)
    return ((i - 1) * dt, min(i * dt, (k - 1) * dt))


@dataclass
class SegmentRecord:
    index: int
    mode_key: int                 # concrete mode (ns/sc) or virtual mode (sv)
    init_cells: CellSet
    cells_src: Cells              # the cells, or the tube they grid from
    profile: np.ndarray
    init_volume: float
    n_fresh: int = 0              # cells computed from scratch here
    reboxed: bool = False         # profile mapped back by a non-axis map

    @property
    def seg_cells(self) -> CellSet:
        return read_cells(self.cells_src)


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

    ``ready`` holds the RK4 batches of the next segment, in the order
    ``_segment_centers`` asks for them (``_requests``), integrated ahead by
    ``walk_together``: the trajectories, or the exception the batch raised.
    """

    def __init__(self):
        self.store: Dict[Tuple, CellTube] = {}
        self.ready: list = []

    def simulate(self, dyn: Dynamics, X0: np.ndarray, p: np.ndarray,
                 T: float, dt: float) -> np.ndarray:
        """``simulate_batch``, or the next batch integrated ahead."""
        done = self.ready.pop(0) if self.ready else \
            simulate_batch(dyn, X0, p, T, dt)
        if isinstance(done, Exception):
            raise done
        return done


class TubeCells:
    """The cells of one segment's tube, gridded the first time something
    reads them: the cached tubes of its initial cells, cut to the
    segment's sample count and mapped by its axis back-map, if any.

    The cache extends a tube only by appending samples, so the cut is the
    tube the segment used.  Re-simulating would not be: ``wrap_heading``
    wraps a whole batch once any row leaves [-pi, pi), so a row's samples
    depend on the rows it was integrated with.  The first read drops the
    reference to the cache, so a result whose cells have all been read no
    longer holds the cache alive."""

    def __init__(self, cache: TubeCache, key, cells: CellSet, count: int,
                 g: Grid, back: Optional[AffineMap] = None):
        self.cache, self.key, self.cells = cache, key, cells
        self.count, self.grid, self.back = count, g, back

    @cached_property
    def value(self) -> CellSet:
        g, count, cache = self.grid, self.count, self.cache
        self.cache = None
        centers = np.stack([cache.store[self.key, cell].centers[:count]
                            for cell in map(tuple, self.cells.cells.tolist())])
        flat = centers.reshape(-1, g.dim)
        half = g.cell_width / 2.0
        lo = flat - half
        hi = np.add(flat, half, out=flat)
        if self.back is not None:
            lo, hi, _ = _box_images(lo, hi, self.back)
        return _boxes_cells(lo, hi, g)


# a segment's cells, gridded already or on first read
Cells = Union[CellSet, TubeCells]


def read_cells(cells: Cells) -> CellSet:
    return cells if isinstance(cells, CellSet) else cells.value


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

def _requests(cells: CellSet, g: Grid, T: float, cache: TubeCache,
              key) -> tuple:
    """Each cell's cached tube (None for none), the rows of those shorter
    than T, the rows with none, and the batches (start rows, horizon) that
    ``_segment_centers`` integrates, in its order: one per short tube, then
    one for the cells with none."""
    tubes = [cache.store.get((key, cell))
             for cell in map(tuple, cells.cells.tolist())]
    short = [r for r, tube in enumerate(tubes)
             if tube is not None and tube.duration + 1e-12 < T]
    miss = [r for r, tube in enumerate(tubes) if tube is None]
    asks = [(tubes[r].centers[-1][None, :], T - tubes[r].duration)
            for r in short]
    if miss:
        asks.append((g.cell_centers(cells.cells[np.array(miss)]), T))
    return tubes, short, miss, asks


def _segment_centers(dyn: Dynamics, cells: CellSet, g: Grid, p: np.ndarray,
                     T: float, dt: float, cache: TubeCache, key,
                     metrics: Metrics) -> np.ndarray:
    """Center trajectories for every cell, consulting the tube cache.

    Returns shape (M, k+1, n) aligned with ``cells.cells`` row order.
    """
    tubes, short, miss, asks = _requests(cells, g, T, cache, key)
    runs = [cache.simulate(dyn, X0, p, h, dt) for X0, h in asks]
    for r, run in zip(short, runs):
        tubes[r] = CellTube(np.vstack([tubes[r].centers, run[0, 1:]]), dt, T)
    for j, r in enumerate(miss):
        tubes[r] = CellTube(runs[-1][j], dt, T)
    for r in short + miss:
        cache.store[key, tuple(cells.cells[r].tolist())] = tubes[r]
    metrics.re += len(tubes) - len(miss)
    metrics.co += len(miss)
    count = traj_samples(T, dt)
    return np.array([tube.centers[:count] for tube in tubes]).reshape(
        len(tubes), count, g.dim)


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
    """The boxes clipped to ``gb``, less those left with a width <= OCC_TOL
    in some dimension, and the mask of the boxes kept."""
    lo2 = np.maximum(lo, gb.lo)
    hi2 = np.minimum(hi, gb.hi)
    valid = np.all(hi2 - lo2 > OCC_TOL, axis=1)
    return lo2[valid], hi2[valid], valid


# tube boxes per chunk of the guard prefilter in ``_box_exit``
CHUNK = 64


def _near_rows(clo: np.ndarray, chi: np.ndarray, gb: HyperRect, n: int):
    """Index of the rows of an n-box tube, in order, in the chunks whose
    bounds (``clo``, ``chi``) reach into ``gb``.

    A box of a skipped chunk has, in some dimension, hi <= gb.lo or
    lo >= gb.hi, so its clip to ``gb`` has width <= 0 there and
    ``_clip_boxes`` drops it."""
    near = np.all((chi > gb.lo) & (clo < gb.hi), axis=1)
    if near.all():
        return slice(None)
    rows = (np.flatnonzero(near)[:, None] * CHUNK + np.arange(CHUNK)).ravel()
    return rows[rows < n]


_NO_PAIRS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


def _merged(owners: List[np.ndarray], keys: List[np.ndarray]):
    """The distinct (owner, key) pairs of several lists, sorted."""
    if not owners:
        return _NO_PAIRS
    return owner_pairs(np.concatenate(owners), np.concatenate(keys))


def _contained(gboxes: Sequence[HyperRect]) -> np.ndarray:
    """Guard boxes inside another one; of equal boxes, all but the first."""
    lo = np.array([b.lo for b in gboxes], ndmin=2)
    hi = np.array([b.hi for b in gboxes], ndmin=2)
    inside = np.all((lo[:, None] >= lo) & (hi[:, None] <= hi), axis=2)
    earlier = np.tri(len(gboxes), k=-1, dtype=bool)
    return (inside & (~inside.T | earlier)).any(axis=1)


def _box_exit(lo: np.ndarray, hi: np.ndarray, owner: np.ndarray,
              gboxes: Sequence[HyperRect], maps: Sequence[AffineMap],
              g: Grid):
    """Box path of ``_edge_exit``: (owner, key) pairs of the cells of the
    reset images of (box intersect guard box), for boxes labelled by
    ``owner``.

    The min of the lower corners and the max of the upper corners are
    taken once over chunks of CHUNK consecutive boxes; for each guard box
    only the chunks that reach into it are clipped.

    A guard box B inside another one, C (``_contained``), adds a cell only
    through a sliver: clipping, axis resets and ``Grid._index_boxes`` round
    monotonically, so B's cells lie among C's unless the reset image of B's
    clip is at most 2 * OCC_TOL wide somewhere and gridded at its midpoint.
    So B grids only the rows whose clip is that thin, with a slack of 8 ulps
    of the largest clip coordinate and reset offset for the reset rounding."""
    n = lo.shape[0]
    starts = np.arange(0, n, CHUNK)
    clo = np.minimum.reduceat(lo, starts, axis=0)
    chi = np.maximum.reduceat(hi, starts, axis=0)
    shift = max((np.abs(m.b).max() for m in maps), default=0.0)
    owners, keys = [], []
    for gb, inner in zip(gboxes, _contained(gboxes)):
        rows = _near_rows(clo, chi, gb, n)
        plo, phi_, valid = _clip_boxes(lo[rows], hi[rows], gb)
        own = owner[rows][valid]
        if inner and plo.size:
            slack = 2.0 ** -49 * (np.abs([plo, phi_]).max() + shift)  # 8 eps
            thin = np.any(phi_ - plo <= 2 * OCC_TOL + slack, axis=1)
            plo, phi_, own = plo[thin], phi_[thin], own[thin]
        if plo.size == 0:
            continue
        for m in maps:
            tlo, thi, _ = _box_images(plo, phi_, m)
            o, k = g.owner_keys(tlo, thi, own)
            owners.append(o)
            keys.append(k)
    return _merged(owners, keys)


def _poly_exit(lo: np.ndarray, hi: np.ndarray, guard: Region,
               maps: Sequence[AffineMap], g: Grid):
    """Exact path of ``_edge_exit``: (owner, key) pairs of the cells of the
    reset images of (guard intersect cell), where owner is the row of the
    cell box ``lo``/``hi``.

    Per guard polytope, the pieces (guard intersect near cell) share one
    coefficient matrix, so one batched Fourier-Motzkin call drops the
    empty pieces, each reset transforms all pieces at once, and
    ``polytope_cells`` decides every (image, candidate cell) pair in one
    more batched call."""
    owners, keys = [], []
    for poly in guard.polys:
        bb = poly.bounding_box()
        near = np.flatnonzero(np.all((lo <= bb.hi + OCC_TOL)
                                     & (hi >= bb.lo - OCC_TOL), axis=1))
        A, B = stack_boxes(poly.A, poly.b, lo[near], hi[near])
        feasible = fm_feasible_batch(A, B)
        B, near = B[feasible], near[feasible]
        if len(B) == 0:
            continue
        for m in maps:
            if m.is_identity():
                piece, c = polytope_cells(A, B, g)
            else:
                Minv = m.inverse()
                piece, c = polytope_cells(A @ Minv.A, B - A @ Minv.b, g)
            owners.append(near[piece])
            keys.append(cell_keys(c))
    return _merged(owners, keys)


def _near_guard(cells: CellSet, guard: Region, g: Grid) -> CellSet:
    """The cells whose box comes within OCC_TOL of the bounding box of
    some guard polytope; no other cell meets the guard."""
    if len(cells) == 0:
        return cells
    lo, hi = cells.boxes(g)
    near = np.zeros(len(cells), dtype=bool)
    for poly in guard.polys:
        bb = poly.bounding_box()
        near |= np.all((lo <= bb.hi + OCC_TOL) & (hi >= bb.lo - OCC_TOL),
                       axis=1)
    return CellSet(dim=g.dim, _keys=cells.keys[near])


def _edge_exit(guard: Region, maps: Sequence[AffineMap], g: Grid,
               memo: dict, e: Edge, cells_src: Cells,
               centers: np.ndarray) -> CellSet:
    """Cells of the reset image of (segment tube intersect guard), over all
    time points.

    Every step acts box by box or piece by piece (clip, map, grid,
    Fourier-Motzkin), so the exit is the union of the exits of the
    segment's *owners*, and ``memo`` (one per walk) keeps each owner's
    exit for later segments; only owners not in it are computed.

    * Box path (axis-aligned guards, box-preserving resets): the owners of
      a ``TubeCells`` segment are its initial cells, whose rows are the
      first ``count`` samples of their cached tube (``centers``), mapped
      by the axis back-map; a cell's exit is keyed by (edge, tube key,
      sample count, back-map bytes, cell).  The cache only appends
      samples to a tube, so these rows never change within a walk.
    * Exact path (rotated guards or resets), and a segment re-boxed by
      SC's back-map: the owners are the segment's grid cells near the
      guard, keyed by (edge, cell).
    """
    gboxes = guard.boxes()
    box_path = gboxes is not None and all(
        m.is_identity() or m.axis_action() is not None for m in maps)
    tube = box_path and isinstance(cells_src, TubeCells)
    if tube:
        owners = cells_src.cells
        back = cells_src.back
        table = memo.setdefault(
            (e, cells_src.key, cells_src.count,
             None if back is None else back.A.tobytes() + back.b.tobytes()),
            {})
    else:
        owners = _near_guard(read_cells(cells_src), guard, g)
        table = memo.setdefault((e,), {})
    ids = owners.keys.tolist()
    new = [i for i, k in enumerate(ids) if k not in table]
    if new:
        if tube:
            flat = centers[new].reshape(-1, g.dim)
            half = g.cell_width / 2.0
            lo = flat - half
            hi = np.add(flat, half, out=flat)
            if back is not None:
                lo, hi, _ = _box_images(lo, hi, back)
            owner = np.repeat(np.arange(len(new)), centers.shape[1])
        else:
            lo, hi = g.cell_bounds(owners.cells[new])
            owner = np.arange(len(new))
        o, k = (_box_exit(lo, hi, owner, gboxes, maps, g) if box_path
                else _poly_exit(lo, hi, guard, maps, g))
        cut = np.searchsorted(o, np.arange(len(new) + 1))
        for j, i in enumerate(new):
            table[ids[i]] = k[cut[j]:cut[j + 1]]
    parts = [part for part in map(table.__getitem__, ids) if len(part)]
    if not parts:
        return CellSet(dim=g.dim)
    if len(parts) == 1:
        return CellSet(dim=g.dim, _keys=parts[0])
    return CellSet(dim=g.dim, _keys=np.unique(np.concatenate(parts)))


@dataclass
class ModeReachResult:
    cells_src: Cells
    exits: Dict[Edge, CellSet]
    profile: np.ndarray
    init_cells: CellSet
    reboxed: bool = False

    @property
    def seg_cells(self) -> CellSet:
        return read_cells(self.cells_src)


def mode_reach(init, p: np.ndarray, time_bound: float,
               out_guards: Dict[Edge, Region],
               out_resets: Dict[Edge, Sequence[AffineMap]],
               g: Grid, dt: float, cache: TubeCache, key,
               metrics: Metrics, dyn: Dynamics,
               back: Optional[AffineMap] = None,
               memo: Optional[dict] = None) -> ModeReachResult:
    """One reachset segment: grid the initial set, union the cell tubes,
    and push the tube through each outgoing guard and reset.

    With a ``back`` map the tube is computed in virtual coordinates and
    mapped back before any guard applies: a signed permutation maps the
    raw tube boxes exactly, any other map re-boxes the transformed cells.
    ``init_cells`` stay in the coordinates the tube was computed in.

    ``memo`` holds the guard exits of owners already pushed in this walk
    (see ``_edge_exit``); without one, the call starts its own.

    The segment's cells are gridded here only for a re-boxing back-map;
    otherwise the first read grids them from the tube cache
    (``TubeCells``), which the exact exit path of ``_edge_exit`` does at
    once."""
    if isinstance(init, CellSet):
        cells = init
    else:
        cells = occupied_cells(init, g)
    if len(cells) == 0:
        raise ValueError("initial set grids to no cells")
    centers = _segment_centers(dyn, cells, g, p, time_bound, dt, cache, key,
                               metrics)
    half = g.cell_width / 2.0
    profile = _profile(centers, half)
    reboxed = False
    if back is not None and back.axis_action() is None:
        flat = centers.reshape(-1, g.dim)
        # overwrites centers: the exits of a re-boxed segment read its cells
        tube_lo = flat - half
        tube_hi = np.add(flat, half, out=flat)
        cells_src, _ = transform_cells(_boxes_cells(tube_lo, tube_hi, g),
                                       back, g)
        profile, reboxed = transform_profile(profile, back)
    else:
        if back is not None:
            profile, _ = transform_profile(profile, back)
        cells_src = TubeCells(cache, key, cells, centers.shape[1], g, back)
    memo = {} if memo is None else memo
    exits = {e: _edge_exit(guard, out_resets[e], g, memo, e, cells_src,
                           centers)
             for e, guard in out_guards.items()}
    return ModeReachResult(cells_src, exits, profile, cells, reboxed)


# ---------------------------------------------------------------------------
# per-virtual-mode dictionary and the fixed point
# ---------------------------------------------------------------------------

class PerModeEntry:
    """One virtual mode's accumulated initial cells ``K``, reachset cells,
    guard exits and time profile.  The reachset is kept as its segments'
    cells and unioned the first time ``R_cells`` is read after a change."""

    def __init__(self, K: CellSet, R_cells: Cells, exits: Dict[Edge, CellSet],
                 profile: np.ndarray):
        self.K = K
        self.parts: List[Cells] = [R_cells]
        self.exits = exits
        self.profile = profile

    @property
    def R_cells(self) -> CellSet:
        if len(self.parts) > 1 or not isinstance(self.parts[0], CellSet):
            cells = read_cells(self.parts[0])
            for part in self.parts[1:]:
                cells = cells.union(read_cells(part))
            self.parts = [cells]
        return self.parts[0]


class PerModeDict:
    """Accumulated initial cells K and reachsets R per virtual mode."""

    def __init__(self, dim: int):
        self.entries: Dict[int, PerModeEntry] = {}
        self.dim = dim

    def entry(self, v: int) -> Optional[PerModeEntry]:
        return self.entries.get(v)

    def update(self, v: int, init_cells: CellSet,
               res: ModeReachResult) -> None:
        ent = self.entries.get(v)
        if ent is None:
            ent = PerModeEntry(init_cells, res.cells_src, dict(res.exits),
                               res.profile.copy())
            self.entries[v] = ent
            return
        ent.K = ent.K.union(init_cells)
        ent.parts.append(res.cells_src)
        for e, cs in res.exits.items():
            ent.exits[e] = ent.exits.get(e, CellSet(dim=self.dim)).union(cs)
        k = min(ent.profile.shape[0], res.profile.shape[0])
        merged = np.concatenate([ent.profile, res.profile[k:]])  # longer one
        merged[:k, :, 0] = np.minimum(merged[:k, :, 0], res.profile[:k, :, 0])
        merged[:k, :, 1] = np.maximum(merged[:k, :, 1], res.profile[:k, :, 1])
        ent.profile = merged


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


def compute_reachset(*args, **kw) -> ReachResult:
    """Reachset of the automaton along its canonical path: ``walk`` (same
    arguments) run to its end, each batch integrated when asked for."""
    t0 = time.perf_counter()
    steps = walk(*args, **kw)
    while True:
        try:
            next(steps)
        except StopIteration as done:
            done.value.metrics.wall_time = time.perf_counter() - t0
            return done.value


def walk(a: HybridAutomaton, J: Optional[int], g: Grid, dt: float,
         method: str, phi: Optional[VirtualMap] = None,
         va: Optional[VirtualAutomaton] = None,
         cache: Optional[TubeCache] = None,
         segment_budget: Optional[int] = None,
         emit_segments: Optional[int] = None
         ) -> Generator[tuple, None, ReachResult]:
    """The segment walk, as a generator: it yields the arguments of each
    segment's ``_segment_centers`` call but ``metrics`` before the segment
    (``_requests``), and returns the ``ReachResult``.

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
      point; the remaining requested segments, up to the first path index
      no execution reaches, are copied out of the dictionary instead of
      computed (``#cp``).

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
    memo: dict = {}           # guard exits per owner (see ``_edge_exit``)
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
        cells = cur if isinstance(cur, CellSet) else occupied_cells(cur, g)
        yield (a.dyn, cells, g, p, walked.time_bounds[q], dt, cache, key)
        co0 = metrics.co
        res = mode_reach(cells, p, walked.time_bounds[q],
                         {e: walked.guards[e] for e in edges},
                         {e: va.reset_maps(e) if sv else a.resets[e]
                          for e in edges}, g, dt, cache, key,
                         metrics, a.dyn, back=back, memo=memo)
        segs.append(SegmentRecord(i, q, res.init_cells, res.cells_src,
                                  res.profile, res.init_cells.volume(g),
                                  n_fresh=metrics.co - co0,
                                  reboxed=res.reboxed))
        if sv:
            dct.update(q, res.init_cells, res)
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
    if not sv:
        return ReachResult(method, segs, metrics, g, dt, va=va)
    if not fixed and unbounded:
        raise NoFixedPoint(f"no fixed point within {budget} segments")
    if fixed:
        # copy up to the first path index no execution reaches: one past a
        # finite path, or one whose virtual mode no exit led into (it has
        # no entry, and the ns walk stops there too)
        for i in range(len(segs), requested):
            if ((a.period is None and i >= len(a.path))
                    or dct.entry(node(i)) is None):
                requested = i
                break
        metrics.cp = max(0, requested - len(segs))
    return ReachResult("sv", segs, metrics, g, dt, va=va, dct=dct,
                       fixed_point=fixed, requested_segments=requested)


def walk_together(walks: Sequence[Generator]) -> list:
    """Each ``walk``'s ReachResult, or the exception it raised, from
    lockstep rounds on this thread.  A round takes each walk to its next
    segment; the batches the segments ask for (``_requests``) that share
    (dyn, T, dt) go into one ``simulate_batch`` call, one group each, and
    equal batches into one group.  Each walk's ``TubeCache.ready`` gets
    the rows it asked for, or a NumericalBlowup where they are not finite,
    so every walk ends as it would alone.  A walk's ``wall_time`` is its
    own steps plus its share, by rows, of each call it joined."""
    out, spent = list(walks), [0.0] * len(walks)
    live = list(range(len(walks)))
    while live:
        calls: dict = {}   # (dyn, T, dt) -> batch bytes -> [X0, p, slots]
        for i in list(live):
            t0 = time.perf_counter()
            try:
                step = next(walks[i])
                if isinstance(step, tuple):
                    dyn, cells, g, p, T, dt, cache, key = step
                    cache.ready = []
                    for X0, h in _requests(cells, g, T, cache, key)[3]:
                        batch = calls.setdefault((dyn, h, dt), {}).setdefault(
                            (np.asarray(p, dtype=float).tobytes(), X0.shape,
                             X0.tobytes()), [X0, p, []])
                        batch[2].append((i, cache.ready, len(cache.ready)))
                        cache.ready.append(None)
            except StopIteration as end:
                step = end.value
            except Exception as exc:   # this walk fails alone
                step = exc
            if not isinstance(step, tuple):
                out[i] = step
                live.remove(i)
            spent[i] += time.perf_counter() - t0
        for (dyn, T, dt), batches in calls.items():
            t0 = time.perf_counter()
            starts, ps, slots = zip(*batches.values())
            sizes = [len(X0) for X0 in starts]
            try:
                traj = simulate_batch(dyn, np.concatenate(starts), ps, T, dt,
                                      sizes)
                traj.flags.writeable = False   # a batch may serve two walks
                parts = np.split(traj, np.cumsum(sizes)[:-1])
            except Exception as exc:   # the walks of this call fail
                parts = [exc] * len(sizes)
            share = (time.perf_counter() - t0) / sum(
                n * len(asked) for n, asked in zip(sizes, slots))
            for part, n, asked in zip(parts, sizes, slots):
                if not (isinstance(part, Exception) or np.isfinite(part).all()):
                    part = NumericalBlowup("non-finite state during integration")
                for i, ready, j in asked:
                    ready[j] = part
                    spent[i] += share * n
    for result, s in zip(out, spent):
        if isinstance(result, ReachResult):
            result.metrics.wall_time = s
    return out


# ---------------------------------------------------------------------------
# transform back and the unbounded verifier
# ---------------------------------------------------------------------------

@dataclass
class TransformedSegment:
    index: int
    vmode: int
    profile: np.ndarray
    reboxed: bool                # profile mapped by a non-axis map
    entry: PerModeEntry          # the dictionary entry it comes from
    gamma_inv: AffineMap
    grid: Grid

    @cached_property
    def cells(self) -> CellSet:
        """The entry's reachset cells mapped by ``gamma_inv``, gridded the
        first time something reads them."""
        return transform_cells(self.entry.R_cells, self.gamma_inv,
                               self.grid)[0]


def transform_back(dct: PerModeDict, phi: VirtualMap, a: HybridAutomaton,
                   va: VirtualAutomaton, g: Grid,
                   indices: Sequence[int]) -> List[TransformedSegment]:
    """Concrete reachset segments for the requested path indices, produced
    by transforming the per-mode dictionary entries with the inverse state
    maps (no further reach computation).  Profiles are mapped here; a
    segment's cells only when read."""
    out: List[TransformedSegment] = []
    for i in indices:
        p = a.path_mode(i)
        vj = va.concrete_to_virtual[a.path_mode_index(i)]
        ent = dct.entry(vj)
        if ent is None:
            raise UncoveredMode(f"no dictionary entry for virtual mode {vj}")
        ginv = phi.gamma_inv(p)
        prof, reboxed = transform_profile(ent.profile, ginv)
        out.append(TransformedSegment(i, vj, prof, reboxed, ent, ginv, g))
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


def verdict(result: ReachResult, U: Region, a: HybridAutomaton,
            phi: Optional[VirtualMap],
            tb: Optional[Sequence[TransformedSegment]],
            infinite: bool) -> Tuple[str, str]:
    """The run's verdict, ``n/a`` (no unsafe set), ``Safe`` or ``Unknown``,
    and the reason it rests on.

    An infinite path is Unknown under ns/sc, which walk only its
    materialized window, and under sv without a fixed point; at the fixed
    point ``unbounded_verif`` answers for the whole path.  Otherwise the
    cells tested are the transformed-back segments ``tb`` when given (sv),
    else the walked segments, stopping at the first segment that meets
    ``U``, so later segments' cells are never gridded.
    """
    if U.is_empty:
        return "n/a", "no unsafe set"
    if infinite and result.method != "sv":
        return "Unknown", "ns/sc walk only the materialized window"
    if result.method == "sv" and not result.fixed_point:
        return "Unknown", "fixed point not reached"
    if infinite:
        hit = unbounded_verif(result, a, phi, U)
    else:
        tested = (((seg.index, seg.cells) for seg in tb) if tb is not None
                  else ((seg.index, seg.seg_cells) for seg in result.segments))
        hit = next((f"segment {i} meets unsafe set" for i, cells in tested
                    if _cells_intersect_region(cells, result.grid, U)), None)
    return ("Unknown", hit) if hit else ("Safe", "unsafe set untouched")


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


def unbounded_verif(result: ReachResult, a: HybridAutomaton,
                    phi: VirtualMap, U: Region) -> Optional[str]:
    """Where the infinite path's reachset meets ``U``, or None if nowhere.
    ``result`` is an sv walk at its fixed point: the transformed dictionary
    reachset of each reachable mode covers every visit to that mode.

    Periodic infinite paths are handled exactly: per cycle residue the
    transformed reachset translates by a fixed planar shift each period, so
    only a finite, computable range of periods can meet a bounded unsafe
    set.
    """
    va, dct, g = result.va, result.dct, result.grid
    for mi in _reachable_mode_indices(a):
        ent = dct.entry(va.concrete_to_virtual[mi])
        if ent is None:
            continue
        cells, _ = transform_cells(ent.R_cells, phi.gamma_inv(a.modes[mi]), g)
        if _cells_intersect_region(cells, g, U):
            return f"reachset of mode {mi} meets unsafe set"
    if a.period is not None:
        return _periodic_intersection(a, va, dct, phi, g, U)
    return None


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

"""Reachability engine: cell tubes, per-mode segments, the fixed point,
transform-back, caches, and the unbounded verifier."""

import hashlib
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np
import pytest

from symreach.abstraction import construct_virtual_model
from symreach.dynamics import Dynamics, simulate, simulate_batch
from symreach.geom import (OCC_TOL, AffineMap, CellSet, ConvexPolytope, Grid,
                           HyperRect, Region, box, fm_feasible,
                           fm_feasible_batch, occupied_cells, polytope_cells,
                           stack_boxes)
from symreach.reach import (CHUNK, Metrics, NoFixedPoint, PerModeDict,
                            SafetyCache, TubeCache, UncoveredMode,
                            check_fixed_point, compute_reachset, mode_reach,
                            overapprox_error, sym_safety, time_window,
                            transform_back, verdict,
                            DegenerateBaseline, _box_exit, _box_images,
                            _boxes_cells, _contained, _near_rows, read_cells)
from symreach.scenarios import build_automaton, build_map, load_scenario
from symreach.symmetry import make_translation_map, make_tr_map

from conftest import (linear, rect_road_automaton, robot, s_road_automaton,
                      scenario_path, state_grid)
from test_geom import oracle_fm_axis_bounds, oracle_fm_feasible


def lin_grid():
    return Grid(np.zeros(3), np.array([0.2, 0.2, np.pi / 16]))


# ---------------------------------------------------------------------------
# the one-cell tube, kept verbatim here: nothing in the engine uses it
# ---------------------------------------------------------------------------

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
        return time_window(i, self.n_rows, self.dt)


def cell_reachtube(dyn: Dynamics, cell: Tuple[int, ...], g: Grid,
                   p: np.ndarray, T: float, dt: float) -> Reachtube:
    """Tube of one grid cell: simulate its center and stamp a cell-sized
    box at every sample."""
    if T <= 0:
        raise ValueError("time bound must be positive")
    center = g.cell_centers(np.asarray([cell], dtype=np.int64))
    traj = simulate_batch(dyn, center, p, T, dt)[0]
    half = g.cell_width / 2.0
    boxes = np.stack([traj - half, traj + half], axis=2)
    return Reachtube(boxes, dt)


class TestCellReachtube:
    def test_equilibrium_cell_stays_put(self):
        g = lin_grid()
        cell = (3, 3, 0)
        center = g.cell_centers(np.array([cell]))[0]
        p = np.concatenate([center[:2], [center[2]]])
        tube = cell_reachtube(linear(), cell, g, p, 0.5, 0.01)
        first = tube.boxes[0]
        assert np.allclose(tube.boxes, first[None, :, :], atol=1e-9)

    def test_horizon_dt_gives_two_rows(self):
        tube = cell_reachtube(linear(), (0, 0, 0), lin_grid(),
                              np.zeros(3), 0.01, 0.01)
        assert tube.n_rows == 2
        assert tube.time_window(0) == (0.0, 0.0)
        assert tube.time_window(1) == (0.0, 0.01)

    def test_aligned_robot_advances_at_speed(self):
        dyn = robot()
        g = state_grid(dyn)
        x = np.array([[0.1, 0.1, 0.1]])
        cell = tuple(g.boxes_to_cells(x, x)[0])
        start = g.cell_centers(np.array([cell]))[0]
        heading = start[2]
        wp = start[:2] + 50.0 * np.array([np.cos(heading), np.sin(heading)])
        tube = cell_reachtube(dyn, cell, g, wp, 2.0, 0.01)
        centers = (tube.boxes[:, :, 0] + tube.boxes[:, :, 1]) / 2
        t = np.arange(tube.n_rows) * 0.01
        # closed form: straight-line motion toward the waypoint at speed v
        want = start[:2] + dyn.v * np.outer(t, [np.cos(heading),
                                                np.sin(heading)])
        assert np.max(np.abs(centers[:, :2] - want)) < 1e-9
        assert np.max(np.abs(centers[:, 2] - heading)) < 1e-9


def _segment(a, idx, init, cache=None, metrics=None, grid=None):
    g = grid if grid is not None else state_grid(a.dyn)
    cache = cache if cache is not None else TubeCache()
    metrics = metrics if metrics is not None else Metrics()
    edges = a.out_edges(idx)
    want = {e: a.guards[e] for e in edges}
    maps = {e: a.resets[e] for e in edges}
    res = mode_reach(init, a.modes[idx], a.time_bounds[idx], want, maps, g,
                     0.01, cache, ("c", idx), metrics, a.dyn)
    return res, cache, metrics


class TestModeReach:
    def test_cache_identity(self):
        a = s_road_automaton(linear())
        res, cache, m1 = _segment(a, 0, a.init_set)
        assert m1.co == len(res.init_cells) and m1.re == 0
        m2 = Metrics()
        _segment(a, 0, a.init_set, cache=cache, metrics=m2)
        assert m2.co == 0 and m2.re == len(res.init_cells)

    def test_empty_guard_empty_exit(self):
        a = s_road_automaton(linear())
        far = Region.from_boxes([box([500.0, 500.0, 0.0], [1, 1, 1])])
        a.guards[(0, 1)] = far
        res, _, _ = _segment(a, 0, a.init_set)
        assert len(res.exits[(0, 1)]) == 0

    def test_exit_covers_simulated_ensemble(self):
        # oracle: simulate 100 random initial points; their first
        # guard-passage states must fall in exit cells (within one cell)
        a = rect_road_automaton()
        g = state_grid(a.dyn)
        res, _, _ = _segment(a, 0, a.init_set)
        exit_cells = res.exits[(0, 1)]
        assert len(exit_cells) > 0
        guard = a.guards[(0, 1)].boxes()[0]
        rng = np.random.default_rng(8)
        bb = a.init_set.polys[0].as_box()
        hits = 0
        for _ in range(100):
            x0 = rng.uniform(bb.lo, bb.hi)
            tr = simulate(a.dyn, x0, a.modes[0], a.time_bounds[0], 0.01)
            inside = np.all((tr.states >= guard.lo) & (tr.states <= guard.hi),
                            axis=1)
            if not inside.any():
                continue
            hits += 1
            state = tr.states[np.flatnonzero(inside)[0]]
            cell = g.boxes_to_cells(state, state)[0]
            dil = exit_cells.cells
            assert np.min(np.max(np.abs(dil - cell), axis=1)) <= 1
        assert hits > 50

    def test_unbounded_init_rejected(self):
        a = s_road_automaton(linear())
        bad = Region.from_boxes(
            [HyperRect(np.array([0, 0, -np.inf]), np.array([1, 1, np.inf]))])
        from symreach.geom import UnboundedRegion
        with pytest.raises(UnboundedRegion):
            _segment(a, 0, bad)


class TestReachsetTransport:
    def test_transformed_init_reaches_transformed_cells(self):
        # mode_reach(gamma(K), rho(p)) equals the transform of
        # mode_reach(K, p) within one cell width
        a = s_road_automaton(linear())
        phi = make_translation_map(linear())
        g = lin_grid()
        rng = np.random.default_rng(21)
        for trial in range(10):
            idx = int(rng.integers(0, 4))
            p = a.modes[idx]
            pair = phi.pair(p)
            c = rng.uniform(-1, 1, size=2)
            K = Region.from_boxes(
                [box([p[0] + c[0], p[1] + c[1], 0.0], [0.4, 0.4, 0.4])])
            res1, _, _ = _segment(a, idx, K, grid=g)
            Kv = Region(tuple(q.transform(pair.gamma) for q in K.polys), 3)
            maps = {(0, 0): [AffineMap.identity(3)]}
            want = {(0, 0): Region.from_boxes(
                [box([0, 0, 0.0], [0.6, 1.0, 100.0])])}
            resv = mode_reach(Kv, pair.rho(p), a.time_bounds[idx], want, maps,
                              g, 0.01, TubeCache(), ("x", trial), Metrics(),
                              a.dyn)
            from symreach.reach import transform_cells
            img, _ = transform_cells(res1.seg_cells, pair.gamma, g)
            got = resv.seg_cells
            for cs, other in ((img, got), (got, img)):
                othercells = other.cells
                for cell in cs.cells:
                    assert np.min(np.max(np.abs(othercells - cell), axis=1)) <= 1


class TestFixedPoint:
    def test_empty_dict_false(self):
        a = s_road_automaton(linear())
        phi = make_translation_map(linear())
        va = construct_virtual_model(a, phi)
        assert not check_fixed_point(PerModeDict(3), va, lin_grid())

    def test_universal_cells_true(self):
        a = s_road_automaton(linear())
        phi = make_translation_map(linear())
        va = construct_virtual_model(a, phi)
        g = lin_grid()
        dct = PerModeDict(3)
        grid_all = np.stack(np.meshgrid(*[np.arange(-120, 120, 1)] * 2,
                                        np.arange(-20, 20, 1),
                                        indexing="ij"), axis=-1).reshape(-1, 3)
        big = CellSet(grid_all)
        from symreach.reach import PerModeEntry
        for k in range(len(va.auto.modes)):
            dct.entries[k] = PerModeEntry(big, big, {}, None)
        assert check_fixed_point(dct, va, g)

    def test_s_robot_fixed_point_at_fifth_segment(self):
        a = s_road_automaton()
        phi = make_translation_map(robot())
        res = compute_reachset(a, None, state_grid(a.dyn), 0.01, "sv", phi=phi)
        assert res.fixed_point
        assert len(res.segments) == 5
        assert res.metrics.cp == 11

    def test_monotone_once_true(self):
        a = s_road_automaton()
        phi = make_translation_map(robot())
        g = state_grid(a.dyn)
        va = construct_virtual_model(a, phi)
        res = compute_reachset(a, None, g, 0.01, "sv", phi=phi, va=va)
        assert check_fixed_point(res.dct, va, g)
        # recompute a segment from initial cells already accumulated:
        # nothing changes, the check stays true
        vi = va.concrete_to_virtual[a.path[1]]
        ent = res.dct.entry(vi)
        want = {e: va.auto.guards[e] for e in va.auto.out_edges(vi)}
        maps = {e: va.reset_maps(e) for e in va.auto.out_edges(vi)}
        again = mode_reach(ent.K, va.auto.modes[vi], va.auto.time_bounds[vi],
                           want, maps, g, 0.01, TubeCache(), ("v", vi),
                           Metrics(), a.dyn)
        res.dct.update(vi, ent.K, again)
        assert check_fixed_point(res.dct, va, g)


class TestTransformBack:
    def test_identity_map_returns_dict_contents(self):
        a = s_road_automaton(linear())
        from symreach.symmetry import SymmetryPair, VirtualMap
        ident = VirtualMap(linear(), "Custom", lambda p: SymmetryPair.from_gamma(
            AffineMap.identity(3), AffineMap.identity(p.shape[0])))
        va = construct_virtual_model(a, ident)
        res = compute_reachset(a, None, lin_grid(), 0.01, "sv", phi=ident,
                               va=va)
        if not res.fixed_point:
            pytest.skip("identity abstraction cannot reach a fixed point "
                        "on a non-repeating path")
        segs = transform_back(res.dct, ident, a, va, lin_grid(), [0])
        ent = res.dct.entry(va.concrete_to_virtual[a.path[0]])
        assert segs[0].cells.issubset(ent.R_cells)
        assert ent.R_cells.issubset(segs[0].cells)

    def test_uncovered_mode_raises(self):
        a = s_road_automaton()
        phi = make_translation_map(robot())
        va = construct_virtual_model(a, phi)
        with pytest.raises(UncoveredMode):
            transform_back(PerModeDict(3), phi, a, va, state_grid(a.dyn), [0])

    def test_ns_segments_inside_transformed(self):
        a = s_road_automaton()
        g = state_grid(a.dyn)
        phi = make_translation_map(robot())
        ns = compute_reachset(a, None, g, 0.01, "ns")
        sv = compute_reachset(a, None, g, 0.01, "sv", phi=phi)
        segs = transform_back(sv.dct, phi, a, sv.va, g, range(16))
        for nseg, tseg in zip(ns.segments, segs):
            assert nseg.seg_cells.issubset(tseg.cells)

    @pytest.mark.parametrize("name,map_kind", [("koch.scn", "tr"),
                                               ("rectangle_road.scn", "t")])
    def test_cells_on_demand_equal_eager(self, name, map_kind, monkeypatch):
        import symreach.reach as reach
        s = replace(load_scenario(scenario_path(name)), map_kind=map_kind)
        a, g = build_automaton(s), s.grid()
        phi = build_map(s, s.dyn())
        res = compute_reachset(a, s.jmax, g, s.dt, "sv", phi=phi)
        assert res.fixed_point and res.metrics.cp > 0
        calls = []
        real = reach.transform_cells
        monkeypatch.setattr(reach, "transform_cells",
                            lambda *args: calls.append(1) or real(*args))
        segs = transform_back(res.dct, phi, a, res.va, g,
                              range(res.requested_segments))
        assert calls == []            # transform_back maps profiles only
        for seg in segs:
            ent = res.dct.entry(seg.vmode)
            eager, _ = real(ent.R_cells, phi.gamma_inv(a.path_mode(seg.index)),
                            g)
            assert np.array_equal(seg.cells.cells, eager.cells)
            assert seg.cells is seg.cells     # gridded once
        assert len(calls) == len(segs)


class TestUnbounded:
    def test_far_unsafe_set_safe(self):
        a = s_road_automaton()
        phi = make_translation_map(robot())
        U = Region.from_boxes([box([500.0, 500.0, 0.0], [1, 1, 1])])
        res = compute_reachset(a, None, state_grid(a.dyn), 0.01, "sv", phi=phi)
        out, _ = verdict(res, U, a, phi, None, True)
        assert out == "Safe"

    def test_unsafe_covering_init_unknown(self):
        a = s_road_automaton()
        phi = make_translation_map(robot())
        U = Region.from_boxes([box([0.0, 0.0, 0.0], [3, 3, 13])])
        res = compute_reachset(a, None, state_grid(a.dyn), 0.01, "sv", phi=phi)
        out, _ = verdict(res, U, a, phi, None, True)
        assert out == "Unknown"

    def test_budget_exhaustion_raises(self):
        from symreach.automaton import PeriodInfo
        a = s_road_automaton()
        a.period = PeriodInfo(4, np.array([0.0, 32.0]))
        phi = make_translation_map(robot())
        with pytest.raises(NoFixedPoint):
            compute_reachset(a, None, state_grid(a.dyn), 0.01, "sv", phi=phi,
                             segment_budget=2)


class TestSafetyQueries:
    def test_repeat_query_hits_cache(self):
        a = s_road_automaton()
        g = state_grid(a.dyn)
        phi = make_translation_map(robot())
        scache, tcache = SafetyCache(), TubeCache()
        K = Region.from_boxes([box([0.4, 0.0, 0.0], [0.4, 0.4, 0.4])])
        U = Region.from_boxes([box([30.0, 30.0, 0.0], [1, 1, 1])])
        r1 = sym_safety(K, a.modes[0], 4.0, U, phi, scache, tcache, g, 0.01,
                        a.dyn)
        tubes_after_first = len(tcache.store)
        r2 = sym_safety(K, a.modes[0], 4.0, U, phi, scache, tcache, g, 0.01,
                        a.dyn)
        assert r1 is True and r2 is True
        assert scache.hits == 1
        assert len(tcache.store) == tubes_after_first

    def test_translated_copy_answered_from_cache(self):
        # a congruent scenario in another mode maps to the same virtual
        # query, so the second call never computes a tube
        a = s_road_automaton()
        g = state_grid(a.dyn)
        phi = make_translation_map(robot())
        scache, tcache = SafetyCache(), TubeCache()
        shift = a.modes[4][:2] - a.modes[0][:2]
        K0 = Region.from_boxes([box([0.4, 0.0, 0.0], [0.4, 0.4, 0.4])])
        U0 = Region.from_boxes([box([6.0, 2.0, 0.0], [1, 1, 1])])
        K1 = Region.from_boxes(
            [box([0.4 + shift[0], shift[1], 0.0], [0.4, 0.4, 0.4])])
        U1 = Region.from_boxes(
            [box([6.0 + shift[0], 2.0 + shift[1], 0.0], [1, 1, 1])])
        sym_safety(K0, a.modes[0], 4.0, U0, phi, scache, tcache, g, 0.01,
                   a.dyn)
        stored = len(tcache.store)
        out = sym_safety(K1, a.modes[4], 4.0, U1, phi, scache, tcache, g,
                         0.01, a.dyn)
        assert out is True
        assert scache.hits == 1 and len(tcache.store) == stored

    def test_subsumed_query_reuses_safe_verdict(self):
        a = s_road_automaton()
        g = state_grid(a.dyn)
        phi = make_translation_map(robot())
        scache, tcache = SafetyCache(), TubeCache()
        K = Region.from_boxes([box([0.4, 0.0, 0.0], [0.4, 0.4, 0.4])])
        U = Region.from_boxes([box([30.0, 30.0, 0.0], [2, 2, 2])])
        sym_safety(K, a.modes[0], 4.0, U, phi, scache, tcache, g, 0.01, a.dyn)
        smallK = Region.from_boxes([box([0.4, 0.0, 0.0], [0.2, 0.2, 0.2])])
        smallU = Region.from_boxes([box([30.0, 30.0, 0.0], [1, 1, 1])])
        out = sym_safety(smallK, a.modes[0], 3.0, smallU, phi, scache, tcache,
                         g, 0.01, a.dyn)
        assert out is True and scache.hits == 1


class TestIntersectionLemma:
    def test_emptiness_invariant_under_invertible_affine(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            A = rng.normal(size=(3, 3))
            while abs(np.linalg.det(A)) < 0.2:
                A = rng.normal(size=(3, 3))
            m = AffineMap(A, rng.normal(size=3))
            tube = box(rng.uniform(-2, 2, size=3), [1.0, 1.0, 1.0])
            u = box(rng.uniform(-2, 2, size=3), [1.0, 1.0, 1.0])
            raw = bool(np.all(np.maximum(tube.lo, u.lo)
                              < np.minimum(tube.hi, u.hi)))
            ti = tube.to_polytope().transform(m)
            ui = u.to_polytope().transform(m)
            mapped = fm_feasible(np.vstack([ti.A, ui.A]),
                                 np.concatenate([ti.b, ui.b]))
            assert raw == mapped


class TestErrorMetric:
    def test_identical_sequences_zero(self):
        assert overapprox_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_doubled_volumes_hundred_percent(self):
        assert abs(overapprox_error([1.0, 2.0], [2.0, 4.0]) - 100.0) < 1e-12

    def test_zero_baseline_rejected(self):
        with pytest.raises(DegenerateBaseline):
            overapprox_error([0.0, 1.0], [1.0, 1.0])


class TestDeterminism:
    def test_ns_metrics_repeatable(self):
        a = s_road_automaton(linear())
        g = lin_grid()
        r1 = compute_reachset(a, None, g, 0.01, "ns")
        r2 = compute_reachset(a, None, g, 0.01, "ns")
        assert (r1.metrics.co, r1.metrics.re, r1.metrics.tot) == \
            (r2.metrics.co, r2.metrics.re, r2.metrics.tot)
        for s1, s2 in zip(r1.segments, r2.segments):
            assert np.array_equal(s1.seg_cells.cells, s2.seg_cells.cells)


class TestSelfLoopFixedPoint:
    def test_contracting_self_loop_fixes_immediately(self):
        # one linear mode whose guard exit resets back into its own
        # initial cells: the fixed point holds after the first segment and
        # every further path entry is copied
        from symreach.automaton import HybridAutomaton
        from symreach.symmetry import SymmetryPair, VirtualMap
        p = np.array([4.0, 4.0, 0.0])
        guard = Region.from_boxes([box(p, [0.6, 0.6, 0.6])])
        init = Region.from_boxes([box(p, [1.0, 1.0, 1.0])])
        a = HybridAutomaton(3, [p], init, 0, [(0, 0)], {(0, 0): guard},
                            {(0, 0): [AffineMap.identity(3)]}, linear(),
                            [4.0], path=[0] * 8)
        ident = VirtualMap(linear(), "Custom", lambda q: SymmetryPair.from_gamma(
            AffineMap.identity(3), AffineMap.identity(q.shape[0])))
        res = compute_reachset(a, None, lin_grid(), 0.01, "sv", phi=ident)
        assert res.fixed_point
        assert len(res.segments) <= 2
        assert res.metrics.cp >= 6


class TestMorePropertyChecks:
    def test_transform_preserves_emptiness(self):
        from symreach.geom import transform_region
        empty = Region.empty(2)
        m = AffineMap(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.ones(2))
        assert transform_region(empty, m).is_empty

    def test_symmetry_methods_compute_no_more_than_baseline(self):
        # revisiting congruent modes lets the caches absorb work
        a = s_road_automaton()
        g = state_grid(a.dyn)
        ns = compute_reachset(a, None, g, 0.01, "ns")
        for phi in (make_translation_map(robot()),
                    make_tr_map(robot())):
            sc = compute_reachset(a, None, g, 0.01, "sc", phi=phi)
            sv = compute_reachset(a, None, g, 0.01, "sv", phi=phi)
            assert sc.metrics.co <= ns.metrics.co
            assert sv.metrics.co <= ns.metrics.co


def _reference_exit(seg_cells, guard, maps, g):
    """The exact guard exit one cell at a time: per guard polytope and near
    cell, the piece, its image under each map, the image's bounding box and
    one one-system Fourier-Motzkin test per candidate cell."""
    cell_lo, cell_hi = seg_cells.boxes(g)
    out = set()
    for poly in guard.polys:
        bb = poly.bounding_box()
        near = np.all((cell_lo <= bb.hi + OCC_TOL)
                      & (cell_hi >= bb.lo - OCC_TOL), axis=1)
        for l, h in zip(cell_lo[near], cell_hi[near]):
            cell = HyperRect(l, h).to_polytope()
            piece = ConvexPolytope(np.vstack([poly.A, cell.A]),
                                   np.concatenate([poly.b, cell.b]))
            if not oracle_fm_feasible(piece.A, piece.b):
                continue
            for m in maps:
                img = piece if m.is_identity() else piece.transform(m)
                lo, hi = zip(*(oracle_fm_axis_bounds(img.A, img.b, j)
                               for j in range(g.dim)))
                cand = g.boxes_to_cells(np.array([lo]), np.array([hi]))
                clo, chi = g.cell_bounds(cand)
                for c, cl, ch in zip(cand, clo, chi):
                    q = HyperRect(cl + OCC_TOL, ch - OCC_TOL).to_polytope()
                    if oracle_fm_feasible(np.vstack([img.A, q.A]),
                                          np.concatenate([img.b, q.b])):
                        out.add(tuple(c))
    return CellSet(np.array(sorted(out)), dim=g.dim)


# ---------------------------------------------------------------------------
# guard exits against the routine that pushed every tube box through the
# guard on every visit, kept as the oracle: its exact path verbatim (names
# prefixed, the Cells and Sequence annotations dropped; polytope_cells now
# also returns owners, so its cells are taken with [1]), its box path the
# clip-every-box oracle ``_old_axis_edge_exit`` below
# ---------------------------------------------------------------------------

def _old_edge_exit(tube_lo: np.ndarray, tube_hi: np.ndarray, seg_cells,
                   guard: Region, maps, g: Grid) -> CellSet:
    """Cells of the reset image of (tube boxes intersect guard), scanning all
    time points.

    Axis-aligned guards with box-preserving resets clip every raw tube box.
    Rotated guards or resets take the exact path on the cell-snapped tube:
    per guard polytope, the pieces (guard intersect near cell) share one
    coefficient matrix, so one batched Fourier-Motzkin call drops the empty
    pieces, each reset transforms all pieces at once, and
    ``polytope_cells`` decides every (image, candidate cell) pair in one
    more batched call.
    """
    gboxes = guard.boxes()
    if gboxes is not None and all(m.is_identity() or m.axis_action() is not None
                                  for m in maps):
        return _old_axis_edge_exit(tube_lo, tube_hi, gboxes, maps, g)
    # exact path at cell granularity
    cell_lo, cell_hi = read_cells(seg_cells).boxes(g)
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
                parts.append(polytope_cells(A, B, g)[1])
                continue
            Minv = m.inverse()
            parts.append(polytope_cells(A @ Minv.A, B - A @ Minv.b, g)[1])
    if not parts:
        return CellSet(dim=g.dim)
    return CellSet(np.vstack(parts), dim=g.dim)


class TestExactEdgeExit:
    def test_koch_tr_virtual_guard_matches_per_cell_loop(self):
        # the TR virtual automaton of koch: mode 1's self-loop guard is a
        # union of 13 rotated polytopes, reset by two rotations
        s = load_scenario(scenario_path("koch.scn"))
        a = build_automaton(s)
        g = s.grid()
        va = construct_virtual_model(a, build_map(s, s.dyn()))
        av = va.auto
        e0, e1 = (0, 1), (1, 1)
        r0 = mode_reach(av.init_set, av.modes[0], av.time_bounds[0],
                        {e0: av.guards[e0]}, {e0: va.reset_maps(e0)}, g,
                        s.dt, TubeCache(), ("v", 0), Metrics(), a.dyn)
        guard, maps = av.guards[e1], va.reset_maps(e1)
        r1 = mode_reach(r0.exits[e0], av.modes[1], av.time_bounds[1],
                        {e1: guard}, {e1: maps}, g, s.dt, TubeCache(),
                        ("v", 1), Metrics(), a.dyn)
        assert guard.boxes() is None
        assert not any(m.is_identity() or m.axis_action() for m in maps)
        got = r1.exits[e1]
        want = _reference_exit(r1.seg_cells, guard, maps, g)
        assert len(got) > 0
        assert np.array_equal(got.keys, want.keys)


def _walk_digest(res) -> str:
    """SHA-256 of the counters and every walked segment's index, mode key,
    and initial and segment cell keys."""
    h = hashlib.sha256()
    h.update(np.array([res.metrics.co, res.metrics.re, res.metrics.cp],
                      dtype=np.int64).tobytes())
    for seg in res.segments:
        h.update(np.array([seg.index, seg.mode_key], dtype=np.int64).tobytes())
        h.update(seg.init_cells.keys.astype(np.int64).tobytes())
        h.update(seg.seg_cells.keys.astype(np.int64).tobytes())
    return h.hexdigest()


class TestWalkerPinned:
    # digests recorded with the three per-method walk loops that the one
    # walk replaced; one case per branch of the walk
    @pytest.mark.parametrize("scn,method,map_kind,digest", [
        ("rectangle_road.scn", "ns", None,
         "3792d3622973c4208ad8caddda35f055a4b472bc6176567271ba1bba279cf804"),
        # axis back-maps
        ("s_shaped_linear.scn", "sc", "t",
         "5a74db6c10c64551917d9fd0f2230ebda1b252715768b139baadcf80c497fa8e"),
        # 10 rotated and 7 axis back-maps
        ("koch.scn", "sc", "tr",
         "fe21a0ea5d23132b06130689f0cda9e9ced9d9620434cd44ebfe7c1f26ac5bee"),
        # fixed point after 6 segments, 10 copied
        ("rectangle_road.scn", "sv", "t",
         "3ea813e239a84930a5a38819f339eb7d9b20332e53ae050d304e8ecbda3aebb4"),
        ("koch.scn", "sv", "tr",
         "109c6c40f48729d4445bd7297867c07fd6cae7fc4ede4cd5ab6f62ca126275be"),
    ])
    def test_counters_and_cells_unchanged(self, scn, method, map_kind, digest):
        s = load_scenario(scenario_path(scn))
        a = build_automaton(s)
        phi = None
        if map_kind is not None:
            s = replace(s, map_kind=map_kind)
            phi = build_map(s, s.dyn())
        res = compute_reachset(a, s.jmax, s.grid(), s.dt, method, phi=phi)
        assert _walk_digest(res) == digest


# ---------------------------------------------------------------------------
# the box path of the guard exit against the clip-every-box version, kept
# verbatim (as a function of the guard boxes) as the oracle, as a whole
# and per owner
# ---------------------------------------------------------------------------

def _old_clip_boxes(lo, hi, gb):
    lo2 = np.maximum(lo, gb.lo)
    hi2 = np.minimum(hi, gb.hi)
    valid = np.all(hi2 - lo2 > OCC_TOL, axis=1)
    return lo2[valid], hi2[valid]


def _old_axis_edge_exit(tube_lo, tube_hi, gboxes, maps, g):
    out = CellSet(dim=g.dim)
    for gb in gboxes:
        plo, phi_ = _old_clip_boxes(tube_lo, tube_hi, gb)
        if plo.size == 0:
            continue
        for m in maps:
            tlo, thi, _ = _box_images(plo, phi_, m)
            out = out.union(_boxes_cells(tlo, thi, g))
    return out


SWAP_XY = AffineMap(np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 1]]),
                    np.array([2.0, -1.0, 0.5]))


def _cached_tube(cache, key, cells, count, g):
    """The tube boxes of ``cells`` as a segment of ``count`` samples reads
    them from ``cache``, and the row of ``cells`` that owns each box."""
    centers = np.stack([cache.store[key, cell].centers[:count]
                        for cell in map(tuple, cells.cells.tolist())])
    flat = centers.reshape(-1, g.dim)
    half = g.cell_width / 2.0
    return flat - half, flat + half, np.repeat(np.arange(len(cells)), count)


class TestAxisEdgeExitMatchesOracle:
    def check(self, lo, hi, gboxes, maps, g, owner=None):
        if owner is None:
            owner = np.zeros(len(lo), dtype=np.int64)
        o, k = _box_exit(lo, hi, owner, gboxes, maps, g)
        got = CellSet(dim=g.dim, _keys=np.unique(k))
        want = _old_axis_edge_exit(lo, hi, gboxes, maps, g)
        assert np.array_equal(got.keys, want.keys)
        assert np.all(np.diff(o) >= 0)
        assert set(o.tolist()) <= set(owner.tolist())
        for j in set(owner.tolist()):
            mine = owner == j
            alone = _old_axis_edge_exit(lo[mine], hi[mine], gboxes, maps, g)
            assert np.array_equal(k[o == j], alone.keys)
        return got

    def test_rectangle_virtual_guard(self):
        # the waypoint rectangle's one virtual mode: its self-loop guard is
        # the eps0 box plus four eps1 boxes, reset by translations
        s = load_scenario(scenario_path("rectangle.scn"))
        a = build_automaton(s)
        g = s.grid()
        va = construct_virtual_model(a, build_map(s, s.dyn()))
        av = va.auto
        (e,) = av.out_edges(0)
        gboxes = av.guards[e].boxes()
        assert gboxes is not None and len(gboxes) > 1
        cache = TubeCache()
        res = mode_reach(av.init_set, av.modes[0], av.time_bounds[0],
                         {e: av.guards[e]}, {e: va.reset_maps(e)}, g, s.dt,
                         cache, ("v", 0), Metrics(), a.dyn)
        lo, hi, owner = _cached_tube(cache, ("v", 0), res.init_cells,
                                     res.cells_src.count, g)
        got = self.check(lo, hi, gboxes, va.reset_maps(e), g, owner)
        assert len(got) > 0
        assert np.array_equal(got.keys, res.exits[e].keys)
        for cut in (1, 63, 64, 65, 129, len(lo) - 5):
            self.check(lo[:cut], hi[:cut], gboxes, va.reset_maps(e), g,
                       owner[:cut])
            self.check(lo[-cut:], hi[-cut:], gboxes, [SWAP_XY], g)

    def test_infinite_heading_bounds_and_shuffled_tube(self):
        g = state_grid(robot())
        rng = np.random.default_rng(7)
        c = rng.uniform(-4.0, 4.0, size=(1000, 3))
        lo, hi = c - 0.1, c + 0.1
        inf = np.inf
        gboxes = [HyperRect(np.array([0.5, -1.0, -inf]),
                            np.array([1.5, 1.0, inf])),
                  HyperRect(np.array([-inf, 3.0, -1.0]),
                            np.array([-3.5, inf, 1.0])),
                  HyperRect(np.array([50.0, 50.0, -inf]),      # far away
                            np.array([51.0, 51.0, inf]))]
        maps = [AffineMap.identity(3), AffineMap.translation([1.0, 0, 0]),
                SWAP_XY]
        order = np.argsort(c[:, 0], kind="stable")   # chunks along x
        self.check(lo[order], hi[order], gboxes, maps, g)
        self.check(lo, hi, gboxes, maps, g)
        self.check(lo[:0], hi[:0], gboxes, maps, g)
        # owners in runs of consecutive boxes, and scattered
        self.check(lo[order], hi[order], gboxes, maps, g,
                   np.arange(1000) // 37)
        self.check(lo, hi, gboxes, maps, g, rng.integers(0, 5, size=1000))
        # each box twice in a row, under two owners
        self.check(np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0),
                   gboxes, maps, g, np.tile([0, 1], 1000))

    def test_rectangle_guard_boxes_in_every_rotation(self):
        # the rectangle's four eps1 boxes lie inside its eps0 box, and
        # agree with one another to 1e-9; in every order only the eps0
        # box is gridded whole
        s = load_scenario(scenario_path("rectangle.scn"))
        a = build_automaton(s)
        g = s.grid()
        va = construct_virtual_model(a, build_map(s, s.dyn()))
        (e,) = va.auto.out_edges(0)
        gboxes, maps = va.auto.guards[e].boxes(), va.reset_maps(e)
        assert _contained(gboxes).tolist() == [False] + [True] * 4
        rng = np.random.default_rng(5)
        c = rng.uniform(-1.0, 1.0, size=(800, 3))
        lo, hi = c - 0.25, c + 0.25
        for r in range(len(gboxes)):
            turned = gboxes[r:] + gboxes[:r]
            self.check(lo, hi, turned, maps, g, np.arange(800) % 7)
            self.check(lo, hi, turned[::-1], [SWAP_XY], g)

    def test_nested_equal_and_face_sharing_guard_boxes(self):
        # tube boxes whose faces lie within a few OCC_TOL of the inner
        # guard boxes' faces, so that many clips are slivers, against
        # guards whose boxes nest (both orders), repeat bitwise, share a
        # face, differ by 1e-9, or bound the heading or not
        g = Grid(np.zeros(3), np.array([0.25, 0.25, 0.25]))
        inf = np.inf

        def hr(lo, hi):
            return HyperRect(np.array(lo, dtype=float),
                             np.array(hi, dtype=float))

        # the inner boxes' faces lie up to 7e-10 off the grid lines
        outer = hr([-1.0, -1.0, -inf], [1.0, 1.0, inf])
        inner = hr([-0.5 - 6e-10, -0.25 + 4e-10, -inf],
                   [0.5 + 3e-10, 0.75 - 7e-10, inf])
        low_half = hr([-1.0, -1.0, -inf], [0.0, 1.0, inf])   # shares 3 faces
        beside = hr([1.0, -1.0, -inf], [1.5, 1.0, inf])      # outer's x face
        close = hr(inner.lo - 1e-9, inner.hi + 1e-9)
        headed = hr([-0.5 + 5e-10, -0.25 - 2e-10, -1.0 - 6e-10],
                    [0.5 - 4e-10, 0.75 + 6e-10, 0.5 + 3e-10])
        guards = [[outer, inner], [inner, outer], [inner, inner],
                  [outer, inner, outer], [outer, low_half, beside],
                  [beside, low_half, outer], [inner, close], [close, inner],
                  [headed, inner, outer], [outer, headed]]
        rng = np.random.default_rng(3)
        n = 600
        lo = rng.uniform(-1.2, 0.8, size=(n, 3))
        hi = lo + rng.uniform(0.05, 0.6, size=(n, 3))
        # each tube box reaches from outside to within 2.5e-9 of the grid
        # line at one face of ``inner`` (or ``headed``, in the heading
        # dimension)
        faces = np.array([[-0.5, -0.25, -1.0], [0.5, 0.75, 0.5]])
        d = rng.integers(0, 3, size=n)
        side = rng.integers(0, 2, size=n)
        face = faces[side, d] + rng.integers(-25, 26, size=n) * 1e-10
        depth = rng.uniform(0.0, 0.3, size=n)
        rows = np.arange(n)
        lo[rows, d] = np.where(side == 0, face - depth, face)
        hi[rows, d] = np.where(side == 0, face, face + depth)
        maps = [AffineMap.identity(3), AffineMap.translation([-3.0, 0.5, 0.0]),
                SWAP_XY]
        owner = rng.integers(0, 4, size=n)
        for gboxes in guards:
            self.check(lo, hi, gboxes, maps, g, owner)

    def test_sliver_of_a_contained_box_is_gridded(self):
        # B lies inside C; B's clip is 1.5e-9 wide in x, so its midpoint
        # is gridded, in a cell that C's clip does not reach
        g = Grid(np.zeros(3), np.array([0.5, 0.5, 0.5]))
        inf = np.inf
        C = HyperRect(np.array([-1.0, -1.0, -inf]), np.array([1.0, 1.0, inf]))
        B = HyperRect(np.array([-0.5 - 6e-10, -0.5, -inf]),
                      np.array([0.5, 0.5, inf]))
        lo = np.array([[-0.9, -0.2, 0.1]])
        hi = np.array([[-0.5 + 9e-10, 0.2, 0.3]])
        ident = [AffineMap.identity(3)]
        assert _contained([C, B]).tolist() == [False, True]
        alone = _box_exit(lo, hi, np.zeros(1, dtype=np.int64), [C], ident, g)
        assert len(alone[1]) == 2
        for gboxes in ([C, B], [B, C]):
            assert len(self.check(lo, hi, gboxes, ident, g)) == 4

    @pytest.mark.parametrize("offset", [-2 * OCC_TOL, -OCC_TOL, 0.0, OCC_TOL,
                                        2 * OCC_TOL, 3 * OCC_TOL])
    def test_boxes_touching_a_guard_face(self, offset):
        # unit boxes whose faces sit at +-offset from the guard's faces, in
        # chunks that hold nothing else near the guard
        g = Grid(np.zeros(3), np.array([0.25, 0.25, 0.25]))
        gb = HyperRect(np.array([2.0, -1.0, -1.0]), np.array([3.0, 1.0, 1.0]))
        far = np.tile([[-20.0, -20.0, -20.0]], (70, 1))
        lo, hi = [], []
        for d in range(3):
            for side in (0, 1):
                blo = np.array([2.0, -1.0, -1.0]) + 0.25
                bhi = blo + 0.5
                if side == 0:       # box ends at the guard's low face
                    bhi[d] = gb.lo[d] + offset
                    blo[d] = bhi[d] - 1.0
                else:               # box starts at the guard's high face
                    blo[d] = gb.hi[d] - offset
                    bhi[d] = blo[d] + 1.0
                lo += [far, blo[None, :]]
                hi += [far + 0.5, bhi[None, :]]
        lo, hi = np.vstack(lo), np.vstack(hi)
        got = self.check(lo, hi, [gb], [AffineMap.identity(3), SWAP_XY], g,
                         np.arange(len(lo)) % 3)
        if offset <= 0.0 or offset >= 2 * OCC_TOL:
            assert (len(got) > 0) == (offset > 0.0)

    def test_prefilter_skips_chunks_that_only_touch(self):
        gb = HyperRect(np.array([0.0, 0.0, -np.inf]),
                       np.array([1.0, 1.0, np.inf]))
        n = 3 * CHUNK - 5
        lo = np.zeros((n, 3))
        lo[:, 0] = -1.0                         # chunk 0 ends at x = 0
        lo[CHUNK:2 * CHUNK, 0] = 0.5            # chunk 1 overlaps
        lo[2 * CHUNK:, 0] = 1.0                 # chunk 2 starts at x = 1
        hi = lo + 1.0
        starts = np.arange(0, n, CHUNK)
        clo = np.minimum.reduceat(lo, starts, axis=0)
        chi = np.maximum.reduceat(hi, starts, axis=0)
        rows = _near_rows(clo, chi, gb, n)
        assert np.array_equal(rows, np.arange(CHUNK, 2 * CHUNK))
        wide = HyperRect(np.array([-0.5, 0.0, -1.0]), np.array([1.5, 1.0, 2.0]))
        assert _near_rows(clo, chi, wide, n) == slice(None)


# ---------------------------------------------------------------------------
# segment and dictionary cells gridded on first read, against the eager
# gridding they replaced, kept verbatim (docstring dropped, names
# prefixed) as the oracle
# ---------------------------------------------------------------------------

def _eager_mode_reach(init, p, time_bound, out_guards, out_resets, g, dt,
                      cache, key, metrics, dyn, back=None, memo=None):
    from symreach.reach import (ModeReachResult, _profile, _segment_centers,
                                transform_cells, transform_profile)
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
    reboxed = False
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
        profile, reboxed = transform_profile(profile, back)
    exits = {}
    for e, guard in out_guards.items():
        exits[e] = _old_edge_exit(tube_lo, tube_hi, seg_cells, guard,
                                  out_resets[e], g)
    return ModeReachResult(seg_cells, exits, profile, cells, reboxed)


class _EagerEntry:
    def __init__(self, K, R_cells, exits, profile=None):
        self.K, self.R_cells, self.exits, self.profile = (K, R_cells, exits,
                                                          profile)


class _EagerDict:
    def __init__(self, dim):
        self.entries = {}
        self.dim = dim

    def entry(self, v):
        return self.entries.get(v)

    def update(self, v, init_cells, res):
        ent = self.entries.get(v)
        if ent is None:
            ent = _EagerEntry(init_cells, res.seg_cells, dict(res.exits),
                              res.profile.copy())
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


def _walk(scn, method, map_kind):
    s = load_scenario(scenario_path(scn))
    a = build_automaton(s)
    phi = None
    if map_kind is not None:
        s = replace(s, map_kind=map_kind)
        phi = build_map(s, s.dyn())
    return compute_reachset(a, s.jmax, s.grid(), s.dt, method, phi=phi)


class TestCellsOnReadMatchEagerOracle:
    @pytest.mark.parametrize("scn,method,map_kind", [
        (scn, method, map_kind)
        for scn in ("rectangle.scn", "rectangle_road.scn", "koch.scn",
                    "s_shaped_linear.scn")
        for method, map_kind in (("ns", None), ("sc", "t"), ("sc", "tr"),
                                 ("sv", "t"), ("sv", "tr"))
        if not (scn == "rectangle.scn" and map_kind == "tr")])
    def test_walk_cells_equal_oracle(self, monkeypatch, scn, method,
                                     map_kind):
        import symreach.reach as reach
        got = _walk(scn, method, map_kind)
        # only SC's re-boxing back-map grids a segment in the walk
        assert [isinstance(seg.cells_src, reach.TubeCells)
                for seg in got.segments] == [not seg.reboxed
                                             for seg in got.segments]
        # the entries first: a union grids tubes no segment has read yet
        got_R = ({v: ent.R_cells for v, ent in got.dct.entries.items()}
                 if got.dct is not None else {})
        with monkeypatch.context() as mp:
            mp.setattr(reach, "mode_reach", _eager_mode_reach)
            mp.setattr(reach, "PerModeDict", _EagerDict)
            want = _walk(scn, method, map_kind)
        assert (got.metrics.co, got.metrics.re, got.metrics.cp) == \
            (want.metrics.co, want.metrics.re, want.metrics.cp)
        assert len(got.segments) == len(want.segments) > 0
        for mine, theirs in zip(got.segments, want.segments):
            assert isinstance(theirs.cells_src, CellSet)
            assert np.array_equal(mine.init_cells.keys, theirs.init_cells.keys)
            assert np.array_equal(mine.seg_cells.keys, theirs.seg_cells.keys)
            assert np.array_equal(mine.profile, theirs.profile)
        if want.dct is not None:
            assert sorted(got_R) == sorted(want.dct.entries)
            for v, ent in want.dct.entries.items():
                assert np.array_equal(got_R[v].keys, ent.R_cells.keys)
                assert got.dct.entry(v).R_cells is got_R[v]   # unioned once

    @pytest.mark.parametrize("T1,T2", [(1.0, 2.5), (1.005, 2.0)])
    @pytest.mark.parametrize("back", [None, "swap"])
    def test_later_segment_extends_the_cached_tube(self, T1, T2, back):
        # headings around +-pi wrap the whole first batch; the second,
        # longer segment extends every cached tube, one row at a time,
        # before the first segment's cells are read
        from symreach.reach import TubeCells
        dyn = robot()
        g = state_grid(dyn)
        init = Region.from_boxes([box(np.array([0.0, 0.0, 3.1]),
                                      np.array([0.4, 0.4, 0.4]))])
        p = np.array([-5.0, 1.0])
        bk = SWAP_XY if back else None
        key = ("v", 0)
        cache, oracle_cache = TubeCache(), TubeCache()
        first = mode_reach(init, p, T1, {}, {}, g, 0.01, cache, key,
                           Metrics(), dyn, back=bk)
        assert isinstance(first.cells_src, TubeCells)
        second = mode_reach(first.init_cells, p, T2, {}, {}, g, 0.01, cache,
                            key, Metrics(), dyn, back=bk)
        assert {t.duration for t in cache.store.values()} == {T2}
        assert "value" not in vars(first.cells_src)
        w1 = _eager_mode_reach(init, p, T1, {}, {}, g, 0.01, oracle_cache,
                               key, Metrics(), dyn, back=bk)
        w2 = _eager_mode_reach(w1.init_cells, p, T2, {}, {}, g, 0.01,
                               oracle_cache, key, Metrics(), dyn, back=bk)
        assert len(first.init_cells) > 1
        assert np.array_equal(first.seg_cells.keys, w1.seg_cells.keys)
        assert np.array_equal(second.seg_cells.keys, w2.seg_cells.keys)
        assert first.cells_src.cache is None  # a read lets the cache go
        assert not np.array_equal(first.seg_cells.keys, w2.seg_cells.keys)


# ---------------------------------------------------------------------------
# every guard exit of every walk against ``_old_edge_exit`` on that
# segment's tube: ``_eager_mode_reach`` reads the tube again from the
# cache the walk filled, so it sees the rows the segment used
# ---------------------------------------------------------------------------

FINITE = ("koch.scn", "random.scn", "rectangle.scn", "rectangle_road.scn",
          "s_shaped.scn", "s_shaped_linear.scn")


def _checked_exits(monkeypatch):
    """Make every ``mode_reach`` call of a walk check its exits against the
    oracle; returns the list of (tube key, initial cells, sample count,
    memo) per call."""
    import symreach.reach as reach
    from symreach.dynamics import n_samples
    real, calls = reach.mode_reach, []

    def checked(init, p, time_bound, out_guards, out_resets, g, dt, cache,
                key, metrics, dyn, back=None, memo=None):
        res = real(init, p, time_bound, out_guards, out_resets, g, dt, cache,
                   key, metrics, dyn, back=back, memo=memo)
        want = _eager_mode_reach(res.init_cells, p, time_bound, out_guards,
                                 out_resets, g, dt, cache, key, Metrics(),
                                 dyn, back=back)
        assert sorted(res.exits) == sorted(want.exits)
        for e, cells in want.exits.items():
            assert np.array_equal(res.exits[e].keys, cells.keys)
        calls.append((key, res.init_cells, n_samples(time_bound, dt), memo))
        return res

    monkeypatch.setattr(reach, "mode_reach", checked)
    return calls


def _scenario(scn, map_kind):
    s = load_scenario(scenario_path(scn))
    if map_kind is not None:
        s = replace(s, map_kind=map_kind)
    return s, build_automaton(s), build_map(s, s.dyn())


class TestMemoisedExitsMatchOracle:
    @pytest.mark.parametrize("scn,method,map_kind", [
        (scn, method, map_kind)
        for scn in FINITE
        for method, map_kind in (("ns", None), ("sc", "t"), ("sc", "tr"),
                                 ("sv", "t"), ("sv", "tr"))
        if not (scn == "rectangle.scn" and map_kind == "tr")])
    def test_walk_exits_equal_oracle(self, monkeypatch, scn, method,
                                     map_kind):
        calls = _checked_exits(monkeypatch)
        res = _walk(scn, method, map_kind)
        assert len(calls) == len(res.segments) > 0
        assert len({id(memo) for (_, _, _, memo) in calls}) == 1

    def test_sv_pushes_each_cell_once(self, monkeypatch):
        # the waypoint rectangle's one virtual mode revisits most cells
        calls = _checked_exits(monkeypatch)
        _walk("rectangle.scn", "sv", "t")
        memo = calls[0][3]
        pushed = sum(len(cells) for (_, cells, _, _) in calls)
        (table,) = memo.values()
        assert len(table) == len({k for (_, cells, _, _) in calls
                                  for k in cells.keys.tolist()}) < pushed

    def test_sc_revisits_a_cell_at_another_sample_count(self, monkeypatch):
        # s_shaped_linear with the x legs' time bounds 13.5 and 14.0 in
        # turn: under SC/TR those legs share a virtual mode, so SC reads
        # the same cached tubes at two sample counts
        calls = _checked_exits(monkeypatch)
        s, _, _ = _scenario("s_shaped_linear.scn", "tr")
        s = replace(s, time_bounds=[13.5, 17.5, 14.0, 17.5] * 4)
        a, phi = build_automaton(s), build_map(s, s.dyn())
        res = compute_reachset(a, s.jmax, s.grid(), s.dt, "sc", phi=phi)
        assert len(res.segments) == 16
        counts = {}
        for key, cells, count, _ in calls:
            for k in cells.keys.tolist():
                counts.setdefault((key, k), set()).add(count)
        assert max(len(c) for c in counts.values()) > 1

    def test_memo_shared_across_sample_counts_and_back_maps(self):
        # one memo, one edge and one tube key, read at two sample counts
        # and with two back-maps: every exit still equals the oracle
        dyn = robot()
        g = state_grid(dyn)
        init = Region.from_boxes([box(np.array([0.0, 0.0, 0.1]),
                                      np.array([0.6, 0.6, 0.4]))])
        p = np.array([5.0, 1.0])
        e = (0, 1)
        guard = Region.from_boxes([HyperRect(np.array([0.5, -1.0, -np.inf]),
                                             np.array([4.0, 1.5, np.inf]))])
        maps = [AffineMap.translation([-3.0, 0.0, 0.0])]
        cache, memo = TubeCache(), {}
        seen = []
        for T, back in ((1.5, None), (3.0, None), (1.5, SWAP_XY),
                        (3.0, None), (1.5, None)):
            res = mode_reach(init, p, T, {e: guard}, {e: maps}, g, 0.01,
                             cache, ("v", 0), Metrics(), dyn, back=back,
                             memo=memo)
            want = _eager_mode_reach(init, p, T, {e: guard}, {e: maps}, g,
                                     0.01, cache, ("v", 0), Metrics(), dyn,
                                     back=back)
            assert np.array_equal(res.exits[e].keys, want.exits[e].keys)
            seen.append(res.exits[e].keys)
        assert len(memo) == 3
        assert not np.array_equal(seen[0], seen[1])
        assert not np.array_equal(seen[0], seen[2])

    def test_tube_cache_shared_by_two_walks(self, monkeypatch):
        # SC fills the cache at the concrete time bounds, SV then reads
        # (and extends) the same tubes with a memo of its own
        calls = _checked_exits(monkeypatch)
        s, a, phi = _scenario("s_shaped_linear.scn", "tr")
        cache = TubeCache()
        first = compute_reachset(a, s.jmax, s.grid(), s.dt, "sc", phi=phi,
                                 cache=cache)
        n_first = len(calls)
        second = compute_reachset(a, s.jmax, s.grid(), s.dt, "sv", phi=phi,
                                  cache=cache)
        assert first.metrics.co > 0 and second.metrics.re > 0
        assert len(calls) == len(first.segments) + len(second.segments)
        assert calls[0][3] is not calls[n_first][3]


# ---------------------------------------------------------------------------
# walks in lockstep rounds (``walk_together``)
# ---------------------------------------------------------------------------

def _centers_walk(dyn, cells, g, p, T, dt, cache):
    """A one-segment walk that asks for its cells' tubes and returns
    them."""
    from symreach.reach import _segment_centers
    yield (dyn, cells, g, p, T, dt, cache, "k")
    return _segment_centers(dyn, cells, g, p, T, dt, cache, "k", Metrics())


class TestWalkTogether:
    def test_non_finite_batch_fails_its_walk_alone(self, monkeypatch):
        # three walks of one horizon and step make one call; the walk
        # whose target is not finite gets a NumericalBlowup out of it, the
        # other two the rows of their own call, which they both asked for
        # and which was integrated once
        import symreach.reach as reach
        from symreach.dynamics import NumericalBlowup
        dyn = robot()
        g = state_grid(dyn)
        cells = occupied_cells(Region.from_boxes([box(
            np.array([0.0, 0.0, 3.0]), np.array([0.4, 0.4, 0.5]))]), g)
        real, calls = reach.simulate_batch, []

        def counting(*args):
            calls.append(args[5])
            return real(*args)

        monkeypatch.setattr(reach, "simulate_batch", counting)
        p, bad = np.array([5.0, 1.0]), np.array([np.nan, 1.0])
        walks = [_centers_walk(dyn, cells, g, q, 1.0, 0.01, TubeCache())
                 for q in (p, bad, p)]
        with np.errstate(invalid="ignore"):
            out = reach.walk_together(walks)
        assert calls == [[len(cells)] * 2]
        want = simulate_batch(dyn, g.cell_centers(cells.cells), p, 1.0, 0.01)
        assert np.array_equal(out[0], want)
        assert np.array_equal(out[2], want)
        assert isinstance(out[1], NumericalBlowup)

    def test_short_tubes_then_new_cells_in_order(self, monkeypatch):
        # a segment whose cache holds tubes shorter than its horizon asks
        # for one batch per short tube, then one for the cells with none
        # (no shipped scenario does); each walk gets its batches back in
        # that order, the two equal walks' batches integrated once
        import symreach.reach as reach
        from symreach.reach import _segment_centers
        dyn = robot()
        g = state_grid(dyn)
        cells = occupied_cells(Region.from_boxes([box(
            np.array([0.0, 0.0, 3.0]), np.array([0.4, 0.4, 0.5]))]), g)
        p = np.array([5.0, 1.0])

        def primed():
            cache = TubeCache()
            for rows, T in ((slice(0, None, 3), 0.37), (slice(1, 8, 3), 0.6)):
                _segment_centers(dyn, CellSet(cells.cells[rows], dim=g.dim),
                                 g, p, T, 0.01, cache, "k", Metrics())
            return cache

        want = _segment_centers(dyn, cells, g, p, 1.0, 0.01, primed(), "k",
                                Metrics())
        real, calls = reach.simulate_batch, []

        def counting(*args):
            calls.append((args[3], len(args[5])))
            return real(*args)

        walks = [_centers_walk(dyn, cells, g, p, 1.0, 0.01, primed())
                 for _ in range(2)]
        monkeypatch.setattr(reach, "simulate_batch", counting)
        out = reach.walk_together(walks)
        n_short = len(range(0, len(cells), 3)) + len(range(1, 8, 3))
        assert sorted(n for _, n in calls) == sorted([1, 3, n_short - 3])
        assert np.array_equal(out[0], want)
        assert np.array_equal(out[1], want)

    @pytest.mark.parametrize("scn,map_kind", [("s_shaped_linear.scn", "t"),
                                              ("koch.scn", "tr"),
                                              ("rectangle_road.scn", "tr")])
    def test_walks_equal_walks_alone(self, monkeypatch, scn, map_kind):
        import symreach.reach as reach
        s, a, phi = _scenario(scn, map_kind)
        args = (a, s.jmax, s.grid(), s.dt)
        methods = ("ns", "sc", "sv")
        real, calls = reach.simulate_batch, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(reach, "simulate_batch", counting)
        together = reach.walk_together(
            [reach.walk(*args, m, phi=None if m == "ns" else phi)
             for m in methods])
        merged = len(calls)
        alone = [compute_reachset(*args, m, phi=None if m == "ns" else phi)
                 for m in methods]
        assert merged < len(calls) - merged
        assert any(len(c) > 5 and len(c[5]) > 1 for c in calls[:merged])
        for got, want in zip(together, alone):
            assert (got.metrics.co, got.metrics.re, got.metrics.cp) == \
                (want.metrics.co, want.metrics.re, want.metrics.cp)
            assert len(got.segments) == len(want.segments)
            for mine, theirs in zip(got.segments, want.segments):
                assert np.array_equal(mine.profile, theirs.profile)
                assert np.array_equal(mine.seg_cells.keys,
                                      theirs.seg_cells.keys)

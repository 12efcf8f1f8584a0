"""Reachability engine: cell tubes, per-mode segments, the fixed point,
transform-back, caches, and the unbounded verifier."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from symreach.abstraction import construct_virtual_model
from symreach.automaton import build_road_automaton
from symreach.dynamics import simulate
from symreach.geom import (OCC_TOL, AffineMap, CellSet, Grid, HyperRect,
                           Region, box, fm_feasible, occupied_cells)
from symreach.reach import (Metrics, NoFixedPoint, PerModeDict, SafetyCache,
                            TubeCache, UncoveredMode, cell_reachtube,
                            check_fixed_point, compute_reachset, mode_reach,
                            overapprox_error, sym_safety, transform_back,
                            unbounded_verif, DegenerateBaseline,
                            _cells_intersect_region, _edge_exit)
from symreach.scenarios import build_automaton, build_map, load_scenario
from symreach.symmetry import make_translation_map, make_tr_map

from conftest import (linear, rect_eps, rect_road_automaton, robot,
                      s_road_automaton, scenario_path, state_grid)
from test_geom import oracle_fm_axis_bounds, oracle_fm_feasible


def lin_grid():
    return Grid(np.zeros(3), np.array([0.2, 0.2, np.pi / 16]))


class TestCellReachtube:
    def test_equilibrium_cell_stays_put(self):
        g = lin_grid()
        cell = (3, 3, 0)
        center = g.cell_center(np.array(cell))
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
        cell = g.cell_of([0.1, 0.1, 0.1])
        start = g.cell_center(np.array(cell))
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
            cell = np.array(g.cell_of(state))
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
        phi = make_translation_map(linear(), "road")
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
        phi = make_translation_map(linear(), "road")
        va = construct_virtual_model(a, phi)
        assert not check_fixed_point(PerModeDict(3), va, lin_grid())

    def test_universal_cells_true(self):
        a = s_road_automaton(linear())
        phi = make_translation_map(linear(), "road")
        va = construct_virtual_model(a, phi)
        g = lin_grid()
        dct = PerModeDict(3)
        grid_all = np.stack(np.meshgrid(*[np.arange(-120, 120, 1)] * 2,
                                        np.arange(-20, 20, 1),
                                        indexing="ij"), axis=-1).reshape(-1, 3)
        big = CellSet(grid_all)
        from symreach.reach import PerModeEntry
        for k in range(len(va.auto.modes)):
            dct.entries[k] = PerModeEntry(big, big, {}, None, 0.0)
        assert check_fixed_point(dct, va, g)

    def test_s_robot_fixed_point_at_fifth_segment(self):
        a = s_road_automaton()
        phi = make_translation_map(robot(), "road")
        res = compute_reachset(a, None, state_grid(a.dyn), 0.01, "sv", phi=phi)
        assert res.fixed_point
        assert len(res.segments) == 5
        assert res.metrics.cp == 11

    def test_monotone_once_true(self):
        a = s_road_automaton()
        phi = make_translation_map(robot(), "road")
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
        res.dct.update(vi, ent.K, again, va.auto.time_bounds[vi])
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
        phi = make_translation_map(robot(), "road")
        va = construct_virtual_model(a, phi)
        with pytest.raises(UncoveredMode):
            transform_back(PerModeDict(3), phi, a, va, state_grid(a.dyn), [0])

    def test_ns_segments_inside_transformed(self):
        a = s_road_automaton()
        g = state_grid(a.dyn)
        phi = make_translation_map(robot(), "road")
        ns = compute_reachset(a, None, g, 0.01, "ns")
        sv = compute_reachset(a, None, g, 0.01, "sv", phi=phi)
        segs = transform_back(sv.dct, phi, a, sv.va, g, range(16))
        for nseg, tseg in zip(ns.segments, segs):
            assert nseg.seg_cells.issubset(tseg.cells)


class TestUnbounded:
    def test_far_unsafe_set_safe(self):
        a = s_road_automaton()
        phi = make_translation_map(robot(), "road")
        U = Region.from_boxes([box([500.0, 500.0, 0.0], [1, 1, 1])])
        out = unbounded_verif(a, phi, U, None, state_grid(a.dyn), 0.01)
        assert out.verdict == "Safe"

    def test_unsafe_covering_init_unknown(self):
        a = s_road_automaton()
        phi = make_translation_map(robot(), "road")
        U = Region.from_boxes([box([0.0, 0.0, 0.0], [3, 3, 13])])
        out = unbounded_verif(a, phi, U, None, state_grid(a.dyn), 0.01)
        assert out.verdict == "Unknown"

    def test_budget_exhaustion_raises(self):
        from symreach.automaton import PeriodInfo
        a = s_road_automaton()
        a.period = PeriodInfo(4, np.array([0.0, 32.0]))
        phi = make_translation_map(robot(), "road")
        with pytest.raises(NoFixedPoint):
            compute_reachset(a, None, state_grid(a.dyn), 0.01, "sv", phi=phi,
                             segment_budget=2)


class TestSafetyQueries:
    def test_repeat_query_hits_cache(self):
        a = s_road_automaton()
        g = state_grid(a.dyn)
        phi = make_translation_map(robot(), "road")
        scache, tcache = SafetyCache(), TubeCache()
        K = Region.from_boxes([box([0.4, 0.0, 0.0], [0.4, 0.4, 0.4])])
        U = Region.from_boxes([box([30.0, 30.0, 0.0], [1, 1, 1])])
        r1 = sym_safety(K, a.modes[0], 4.0, U, phi, scache, tcache, g, 0.01,
                        a.dyn)
        tubes_after_first = len(tcache)
        r2 = sym_safety(K, a.modes[0], 4.0, U, phi, scache, tcache, g, 0.01,
                        a.dyn)
        assert r1 is True and r2 is True
        assert scache.hits == 1
        assert len(tcache) == tubes_after_first

    def test_translated_copy_answered_from_cache(self):
        # a congruent scenario in another mode maps to the same virtual
        # query, so the second call never computes a tube
        a = s_road_automaton()
        g = state_grid(a.dyn)
        phi = make_translation_map(robot(), "road")
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
        stored = len(tcache)
        out = sym_safety(K1, a.modes[4], 4.0, U1, phi, scache, tcache, g,
                         0.01, a.dyn)
        assert out is True
        assert scache.hits == 1 and len(tcache) == stored

    def test_subsumed_query_reuses_safe_verdict(self):
        a = s_road_automaton()
        g = state_grid(a.dyn)
        phi = make_translation_map(robot(), "road")
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
                            [4.0], path=[0] * 8, mode_style="waypoint")
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
        for phi in (make_translation_map(robot(), "road"),
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
            piece = poly.intersect(HyperRect(l, h).to_polytope())
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


class TestExactEdgeExit:
    def test_koch_tr_virtual_guard_matches_per_cell_loop(self):
        # the TR virtual automaton of koch: mode 1's self-loop guard is a
        # union of 15 rotated polytopes, reset by two rotations
        s = load_scenario(scenario_path("koch.scn"))
        a = build_automaton(s)
        g = s.grid()
        va = construct_virtual_model(a, build_map(s, s.dyn()))
        av = va.auto
        e0, e1 = (0, 1), (1, 1)
        r0 = mode_reach(av.init_set, av.modes[0], av.time_bounds[0],
                        {e0: av.guards[e0]}, {e0: va.reset_maps(e0)}, g,
                        s.dt, TubeCache(), ("v", 0), Metrics(), a.dyn)
        r1 = mode_reach(r0.exits[e0], av.modes[1], av.time_bounds[1], {}, {},
                        g, s.dt, TubeCache(), ("v", 1), Metrics(), a.dyn)
        guard, maps = av.guards[e1], va.reset_maps(e1)
        assert guard.boxes() is None
        assert not any(m.is_identity() or m.axis_action() for m in maps)
        got = _edge_exit(r1.tube_lo, r1.tube_hi, r1.seg_cells, guard, maps, g)
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

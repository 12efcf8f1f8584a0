"""Virtual automaton construction and the sampled FSR checker."""

import os
from dataclasses import replace

import numpy as np
import pytest

from symreach.abstraction import (VirtualAutomaton, check_fsr,
                                  construct_virtual_model, dump_structure)
from symreach.geom import AffineMap, Region, box
from symreach.scenarios import build_automaton, build_map, load_scenario
from symreach.symmetry import (SymmetryPair, VirtualMap,
                               make_translation_map, make_tr_map)

from conftest import (SCENARIO_DIR, linear, rect_road_automaton,
                      rect_waypoint_automaton, robot, s_road_automaton,
                      scenario_path)


class TestWaypointTranslationModel:
    def test_single_mode_self_loop(self):
        a = rect_waypoint_automaton()
        va = construct_virtual_model(a, make_translation_map(robot()))
        assert len(va.auto.modes) == 1
        assert va.auto.edges == [(0, 0)]
        assert np.allclose(va.auto.modes[0], [0.0, 0.0])
        assert len(va.reset_provenance[(0, 0)]) == 4

    def test_guard_union_is_largest_box(self):
        a = rect_waypoint_automaton()
        va = construct_virtual_model(a, make_translation_map(robot()))
        boxes = va.auto.guards[(0, 0)].boxes()
        hull_lo = np.min([b.lo for b in boxes], axis=0)
        hull_hi = np.max([b.hi for b in boxes], axis=0)
        assert np.allclose(hull_lo[:2], [-0.5, -0.7])
        assert np.allclose(hull_hi[:2], [0.5, 0.7])

    def test_reset_maps_are_waypoint_differences(self):
        a = rect_waypoint_automaton()
        va = construct_virtual_model(a, make_translation_map(robot()))
        diffs = {tuple(np.round(m.b[:2], 9))
                 for m in va.reset_maps((0, 0), dedup=False)}
        wps = [m[:2] for m in a.modes]
        want = {tuple(np.round(wps[i] - wps[(i + 1) % 4], 9))
                for i in range(4)}
        assert diffs == want

    def test_offset_initial_set_recenters(self):
        # with the original initial box the image recenters at [-2, 1]
        a = rect_waypoint_automaton()
        a.init_set = Region.from_boxes(
            [box([-4.4, -0.4, -np.pi / 4], [0.8, 0.8, np.pi / 2])])
        va = construct_virtual_model(a, make_translation_map(robot()))
        bx = va.auto.init_set.polys[0].as_box()
        assert np.allclose(bx.center, [-2.0, 1.0, -np.pi / 4])


class TestRoadModels:
    def test_rectangle_tr_modes_and_edges(self):
        a = rect_road_automaton()
        va = construct_virtual_model(a, make_tr_map(robot()))
        got = sorted(round(float(v[0]), 9) for v in va.auto.modes)
        assert got == [-5.0, -3.0, round(-np.sqrt(5), 9)]
        for v in va.auto.modes:
            assert np.allclose(v[1:], 0.0, atol=1e-9)
        assert len(va.auto.edges) == 3
        sizes = sorted(len(va.reset_provenance[e]) for e in va.auto.edges)
        assert sizes == [1, 2, 2]

    def test_rectangle_tr_guard_rotations(self):
        a = rect_road_automaton()
        va = construct_virtual_model(a, make_tr_map(robot()))
        # the approach edge's guard is the eps0 box rotated by atan2(-1, 2)
        v_init = va.concrete_to_virtual[0]
        (ev,) = [e for e in va.auto.edges if e[0] == v_init]
        poly = va.auto.guards[ev].polys[0]
        assert poly.as_box() is None
        bb = poly.bounding_box()
        theta = np.arctan2(-1.0, 2.0)
        half = np.abs(np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )) @ np.array([0.5, 0.7])
        assert np.allclose(bb.lo[:2], -half, atol=1e-9)
        assert np.allclose(bb.hi[:2], half, atol=1e-9)

    def test_rectangle_t_is_five_by_five(self):
        a = rect_road_automaton()
        va = construct_virtual_model(a, make_translation_map(robot()))
        assert (len(va.auto.modes), len(va.auto.edges)) == (5, 5)

    def test_s_shaped_structure(self):
        a = s_road_automaton()
        vaT = construct_virtual_model(a, make_translation_map(robot()))
        vaTR = construct_virtual_model(a, make_tr_map(robot()))
        assert (len(vaT.auto.modes), len(vaT.auto.edges)) == (3, 4)
        assert (len(vaTR.auto.modes), len(vaTR.auto.edges)) == (2, 2)

    def test_identity_map_preserves_structure(self):
        a = rect_road_automaton()
        ident = VirtualMap(robot(), "Custom", lambda p: SymmetryPair.from_gamma(
            AffineMap.identity(3), AffineMap.identity(p.shape[0])))
        va = construct_virtual_model(a, ident)
        assert len(va.auto.modes) == len(a.modes)
        assert sorted(va.auto.edges) == sorted(a.edges)

    def test_time_bound_is_class_maximum(self):
        a = rect_road_automaton()
        va = construct_virtual_model(a, make_tr_map(robot()))
        for k, cls in va.mode_classes.items():
            assert va.auto.time_bounds[k] == max(a.time_bounds[i] for i in cls)

    def test_mode_and_edge_counts_never_grow(self):
        for a in (rect_road_automaton(), s_road_automaton()):
            for phi in (make_translation_map(robot()),
                        make_tr_map(robot())):
                va = construct_virtual_model(a, phi)
                assert len(va.auto.modes) <= len(a.modes)
                assert len(va.auto.edges) <= len(a.edges)

    def test_guard_union_covers_each_member(self):
        a = s_road_automaton()
        phi = make_tr_map(robot())
        va = construct_virtual_model(a, phi)
        rng = np.random.default_rng(2)
        for ev, cls in va.edge_classes.items():
            gv = va.auto.guards[ev]
            for e in cls:
                gamma = phi.gamma(a.modes[e[0]])
                bb = a.guards[e].polys[0].bounding_box()
                lo = np.where(np.isfinite(bb.lo), bb.lo, -1.0)
                hi = np.where(np.isfinite(bb.hi), bb.hi, 1.0)
                for x in rng.uniform(lo, hi, size=(20, 3)):
                    if a.guards[e].contains_point(x):
                        assert gv.contains_point(gamma(x), tol=1e-7)

    def test_dump_mentions_counts(self):
        a = s_road_automaton()
        va = construct_virtual_model(a, make_tr_map(robot()))
        text = dump_structure(va)
        assert "virtual modes: 2" in text and "virtual edges: 2" in text


class TestFsrChecker:
    def test_identity_map_no_violations(self):
        a = s_road_automaton(linear())
        ident = VirtualMap(linear(), "Custom", lambda p: SymmetryPair.from_gamma(
            AffineMap.identity(3), AffineMap.identity(p.shape[0])))
        va = construct_virtual_model(a, ident)
        rep = check_fsr(a, va, ident, n_execs=10, max_transitions=4, seed=2)
        assert rep["violations"] == []

    def test_linear_s_translation_no_violations(self):
        a = s_road_automaton(linear())
        phi = make_translation_map(linear())
        va = construct_virtual_model(a, phi)
        rep = check_fsr(a, va, phi, n_execs=50, max_transitions=8, seed=0)
        assert rep["violations"] == []

    def test_corrupted_guard_reports_violations(self):
        # robot transitions land spread across the guard box, so halving
        # the abstract guard must exclude some image transitions
        a = rect_waypoint_automaton()
        phi = make_translation_map(robot())
        va = construct_virtual_model(a, phi)
        with np.errstate(invalid="ignore"):
            for ev, g in list(va.auto.guards.items()):
                shrunk = []
                for p in g.polys:
                    bx = p.as_box()
                    c, w = bx.center, bx.widths
                    w = np.where(np.isfinite(w), w / 2, w)
                    c = np.where(np.isfinite(c), c, 0.0)
                    shrunk.append(box(c, w).to_polytope())
                va.auto.guards[ev] = Region(tuple(shrunk), 3)
        rep = check_fsr(a, va, phi, n_execs=50, max_transitions=8, seed=0)
        assert len(rep["violations"]) >= 1
        assert any(v.kind == "guard" for v in rep["violations"])


# ---------------------------------------------------------------------------
# virtual guards keep one of each bitwise-equal polytope copy
# ---------------------------------------------------------------------------

def _shipped(scn, map_kind):
    s = replace(load_scenario(scenario_path(scn)), map_kind=map_kind)
    a = build_automaton(s)
    phi = build_map(s, s.dyn())
    return a, phi, construct_virtual_model(a, phi)


def _images(a, phi, va):
    """Every gamma_src(guard(e)) polytope of each edge class, in class
    order: the virtual guards as they were built before copies were
    dropped."""
    return {ev: [p.transform(phi.gamma(a.modes[e[0]]))
                 for e in cls for p in a.guards[e].polys]
            for ev, cls in va.edge_classes.items()}


def _bits(p):
    return (p.A.shape, p.A.tobytes(), p.b.tobytes())


def _with_all_copies(a, phi, va):
    auto = replace(va.auto, guards={ev: Region(tuple(polys), a.dim)
                                    for ev, polys in _images(a, phi,
                                                             va).items()})
    return VirtualAutomaton(auto, va.mode_classes, va.edge_classes,
                            va.reset_provenance, va.concrete_to_virtual)


SHIPPED = [(scn, mk) for scn in sorted(os.listdir(SCENARIO_DIR))
           for mk in ("t", "tr")
           if not (scn == "rectangle.scn" and mk == "tr")]


class TestGuardCopiesDropped:
    def test_s_shaped_linear_tr_keeps_four_of_fifteen(self):
        a, phi, va = _shipped("s_shaped_linear.scn", "tr")
        images = _images(a, phi, va)
        assert sum(len(polys) for polys in images.values()) == 15
        kept = {ev: va.auto.guards[ev].polys for ev in images}
        assert sum(len(polys) for polys in kept.values()) == 4
        for ev, polys in images.items():
            first = []
            for p in polys:
                if _bits(p) not in map(_bits, first):
                    first.append(p)
            assert list(map(_bits, kept[ev])) == list(map(_bits, first))

    @pytest.mark.parametrize("scn,map_kind,count", [
        ("rectangle.scn", "t", 5),      # four eps1 boxes within 1e-16
        ("koch.scn", "tr", 14),         # 8 would go at a 1e-9 tolerance
    ])
    def test_near_copies_stay(self, scn, map_kind, count):
        a, phi, va = _shipped(scn, map_kind)
        kept = [p for ev in va.auto.edges for p in va.auto.guards[ev].polys]
        assert len(kept) == count == len(set(map(_bits, kept)))

    @pytest.mark.parametrize("scn,map_kind", SHIPPED)
    def test_structure_fsr_and_membership_unchanged(self, scn, map_kind):
        a, phi, va = _shipped(scn, map_kind)
        full = _with_all_copies(a, phi, va)
        assert dump_structure(va) == dump_structure(full)
        got = check_fsr(a, va, phi, n_execs=10, max_transitions=4, seed=3)
        want = check_fsr(a, full, phi, n_execs=10, max_transitions=4, seed=3)
        assert got["violations"] == want["violations"]
        # the sampled executions meet no violation here, so also compare
        # guard membership directly, around and inside each guard
        rng = np.random.default_rng(5)
        inside = 0
        for ev, guard in va.auto.guards.items():
            bb = guard.bounding_box()
            lo = np.where(np.isfinite(bb.lo), bb.lo - 0.5, -4.0)
            hi = np.where(np.isfinite(bb.hi), bb.hi + 0.5, 4.0)
            for x in rng.uniform(lo, hi, size=(100, a.dim)):
                member = guard.contains_point(x)
                assert member == full.auto.guards[ev].contains_point(x)
                inside += member
        assert 0 < inside < 100 * len(va.auto.guards)

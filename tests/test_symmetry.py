"""Symmetry pairs: equivariance residuals and solution transport."""

import numpy as np
import pytest

from symreach.dynamics import DynamicsId, simulate, state_deviation
from symreach.geom import AffineMap
from symreach.symmetry import (DegenerateRoad, EquivarianceError,
                               SymmetryPair, check_equivariance,
                               make_custom_map, make_translation_map,
                               make_tr_map)

from conftest import linear, robot


ROAD = np.array([1.0, 2.0, 4.0, 5.0])
ROAD6 = np.array([1.0, 2.0, 0.0, 4.0, 5.0, 0.0])


class TestFamilies:
    def test_waypoint_translation_collapses_modes(self):
        phi = make_translation_map(robot())
        for w in ([1.0, 2.0], [-3.0, 7.0]):
            assert np.allclose(phi.rv(np.asarray(w)), [0.0, 0.0])

    def test_road_translation_keeps_relative_source(self):
        phi = make_translation_map(robot())
        assert np.allclose(phi.rv(ROAD), [-3.0, -3.0, 0.0, 0.0])

    def test_tr_maps_road_onto_first_axis(self):
        phi = make_tr_map(robot())
        rv = phi.rv(ROAD)
        length = np.hypot(3.0, 3.0)
        assert np.allclose(rv, [-length, 0.0, 0.0, 0.0], atol=1e-12)

    def test_tr_target_axis_flag(self):
        phi = make_tr_map(robot(), target_axis=1)
        rv = phi.rv(np.array([0.0, 0.0, 5.0, 0.0]))
        assert np.allclose(rv, [0.0, -5.0, 0.0, 0.0], atol=1e-12)

    def test_tr_rejects_degenerate_road(self):
        phi = make_tr_map(robot())
        with pytest.raises(DegenerateRoad):
            phi.pair(np.array([1.0, 1.0, 1.0, 1.0]))

    def test_tr_linear_keeps_third_coordinate(self):
        phi = make_tr_map(linear())
        pair = phi.pair(ROAD6)
        x = np.array([0.3, -0.7, 2.5])
        assert abs(pair.gamma(x)[2] - 2.5) < 1e-12

    def test_gamma_round_trip(self):
        rng = np.random.default_rng(9)
        for phi in (make_translation_map(robot()),
                    make_tr_map(robot())):
            pair = phi.pair(ROAD)
            X = rng.uniform(-5, 5, size=(50, 3))
            back = pair.gamma_inv(pair.gamma(X))
            assert np.max(np.abs(back - X)) < 1e-9

    def test_rv_constant_on_waypoint_translation(self):
        phi = make_translation_map(linear())
        vals = [phi.rv(np.array([x, y, 0.0]))
                for x, y in [(-2.4, -1.4), (0.6, 3.6), (9.0, -4.0)]]
        for v in vals:
            assert np.allclose(v, 0.0)

    def test_tr_rv_depends_only_on_length(self):
        phi = make_tr_map(robot())
        a = phi.rv(np.array([0.0, 0.0, 3.0, 4.0]))       # length 5
        b = phi.rv(np.array([10.0, -2.0, 10.0, -7.0]))   # length 5, rotated
        assert np.allclose(a, b, atol=1e-12)


class TestEquivariance:
    @pytest.mark.parametrize("dyn", [robot(), linear()])
    def test_builtin_families_pass_tightly(self, dyn):
        road = ROAD if dyn.id is DynamicsId.ROBOT else ROAD6
        for phi in (make_translation_map(dyn), make_tr_map(dyn)):
            rep = check_equivariance(dyn, phi.pair(road), road,
                                     samples=1000, seed=3, tol=1e-9)
            assert rep["passed"], rep

    def test_broken_mode_map_fails_loudly(self):
        dyn = robot()
        good = make_tr_map(dyn).pair(ROAD)
        bad = SymmetryPair.from_gamma(good.gamma, AffineMap.identity(4))
        rep = check_equivariance(dyn, bad, ROAD, samples=200, seed=1,
                                 tol=1e-2)
        assert not rep["passed"]
        assert rep["max_residual"] > 1e-2

    def test_construction_gate_rejects_broken_custom(self):
        dyn = robot()
        good = make_tr_map(dyn).pair(ROAD)
        bad = SymmetryPair.from_gamma(good.gamma, AffineMap.identity(4))
        phi = make_custom_map(dyn, {ROAD.tobytes(): bad})
        with pytest.raises(EquivarianceError):
            phi.pair(ROAD)


class TestSolutionTransport:
    @pytest.mark.parametrize("dyn", [robot(), linear()])
    @pytest.mark.parametrize("kind", ["t", "tr"])
    def test_trajectories_commute_with_maps(self, dyn, kind):
        road = ROAD if dyn.id is DynamicsId.ROBOT else ROAD6
        phi = make_translation_map(dyn) if kind == "t" \
            else make_tr_map(dyn)
        pair = phi.pair(road)
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(20):
            x0 = rng.uniform([-2, -2, -1], [2, 2, 1])
            t1 = simulate(dyn, x0, road, 4.0, 0.01)
            t2 = simulate(dyn, pair.gamma(x0), pair.rho(road), 4.0, 0.01)
            worst = max(worst, state_deviation(dyn, pair.gamma(t1.states),
                                               t2.states))
        assert worst < 1e-5, worst


"""Automaton builders, discrete steps, and execution sampling."""

from typing import Optional

import numpy as np
import pytest

from symreach.automaton import (DisconnectedPath, Execution, GuardNotSatisfied,
                                HybridAutomaton, build_road_automaton,
                                build_waypoint_automaton, execution_is_valid,
                                sample_executions, sample_init_state,
                                step_discrete)
from symreach.dynamics import Dynamics, DynamicsId, simulate
from symreach.geom import AffineMap, Region, box
from symreach.scenarios import RECT_WP_INIT_CENTER, RECT_WAYPOINTS

from conftest import (linear, rect_eps, rect_road_automaton,
                      rect_waypoint_automaton, robot, s_road_automaton)


# One execution at a time, as the package sampled them before
# ``sample_executions`` batched them: the oracle of the batched sampler.
def sample_execution(a: HybridAutomaton, rng_seed: int, max_transitions: int,
                     dt: float = 0.01,
                     x0: Optional[np.ndarray] = None) -> Execution:
    """Seeded random execution honoring the forced-at-time-bound semantics.

    Each trajectory runs for exactly the mode's time bound; if guards are
    then satisfied, an enabled edge (and a reset image) is chosen uniformly,
    otherwise the execution terminates.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(rng_seed)
    x = sample_init_state(a, rng) if x0 is None else np.asarray(x0, dtype=float)
    mode = a.init_mode
    pairs = []
    for _ in range(max_transitions + 1):
        traj = simulate(a.dyn, x, a.modes[mode], a.time_bounds[mode], dt)
        pairs.append((traj, mode))
        if len(pairs) == max_transitions + 1:
            break
        enabled = [e for e in a.out_edges(mode)
                   if a.guards[e].contains_point(traj.lstate)]
        if not enabled:
            break
        e = enabled[rng.integers(len(enabled))]
        maps = a.resets[e]
        m = maps[rng.integers(len(maps))]
        x = m(traj.lstate)
        mode = e[1]
    return Execution(tuple(pairs))


class TestWaypointBuilder:
    def test_figure_rectangle(self):
        a = rect_waypoint_automaton()
        assert len(a.modes) == 4
        assert len(a.edges) == 4
        # the first edge's guard is the union of both rectangles at w0
        g0 = a.guards[(0, 1)]
        assert len(g0.polys) == 2
        boxes = g0.boxes()
        assert np.allclose(boxes[0].widths[:2], [1.0, 1.4])
        assert np.allclose(boxes[1].widths[:2], [0.6, 1.0])
        for e in [(1, 2), (2, 3), (3, 0)]:
            assert len(a.guards[e].polys) == 1
            assert np.allclose(a.guards[e].boxes()[0].widths[:2], [0.6, 1.0])

    def test_two_waypoints_no_loop_single_edge(self):
        e0, e1 = rect_eps()
        a = build_waypoint_automaton([[0, 0], [5, 0]], e0, e1, robot(),
                                     loops=1)
        assert a.edges == [(0, 1)]

    def test_unrolled_path_length(self):
        a = rect_waypoint_automaton(loops=4)
        assert a.path == [0, 1, 2, 3] * 4

    def test_first_guard_contains_later_guards(self):
        # eps0 >= eps1 componentwise for the shipped values
        a = rect_waypoint_automaton()
        big = a.guards[(0, 1)].boxes()[0]
        small = a.guards[(0, 1)].boxes()[1]
        assert np.all(big.lo <= small.lo + 1e-12)
        assert np.all(big.hi >= small.hi - 1e-12)


class TestRoadBuilder:
    def test_figure_rectangle_roads(self):
        a = rect_road_automaton()
        assert len(a.modes) == 5
        assert sorted(a.edges) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)]
        assert len(a.path) == 16

    def test_single_road(self):
        e0, e1 = rect_eps()
        a = build_road_automaton([([0, 0], [3, 0])], e0, e1, robot())
        assert len(a.modes) == 1 and len(a.edges) == 0

    def test_s_shaped_line(self):
        a = s_road_automaton()
        assert len(a.modes) == 16
        assert len(a.edges) == 15
        assert a.path == list(range(16))

    def test_broken_chain_rejected(self):
        e0, e1 = rect_eps()
        with pytest.raises(DisconnectedPath):
            build_road_automaton([([0, 0], [3, 0]), ([4, 0], [6, 0])],
                                 e0, e1, robot())

    def test_linear_modes_carry_z(self):
        e0, e1 = rect_eps()
        a = build_road_automaton([([0, 0], [3, 0]), ([3, 0], [3, 4])],
                                 e0, e1, linear())
        assert a.modes[0].shape == (6,)
        assert a.modes[0][2] == 0.0 and a.modes[0][5] == 0.0


class TestStepDiscrete:
    def test_identity_reset(self):
        a = rect_waypoint_automaton()
        x = np.array([-2.4, -1.4, 0.3])
        out = step_discrete(a, x, 0, (0, 1))
        assert out.contains_point(x)

    def test_affine_reset(self):
        a = rect_waypoint_automaton()
        a.resets[(0, 1)] = [AffineMap.translation([1.0, 0.0, 0.0])]
        x = np.array([-2.4, -1.4, 0.3])
        out = step_discrete(a, x, 0, (0, 1))
        assert out.contains_point(x + [1.0, 0.0, 0.0])

    def test_two_map_union(self):
        a = rect_waypoint_automaton()
        a.resets[(0, 1)] = [AffineMap.identity(3),
                            AffineMap.translation([0.0, 1.0, 0.0])]
        x = np.array([-2.4, -1.4, 0.3])
        out = step_discrete(a, x, 0, (0, 1))
        assert len(out.polys) == 2

    def test_guard_violation_raises(self):
        a = rect_waypoint_automaton()
        with pytest.raises(GuardNotSatisfied):
            step_discrete(a, np.array([10.0, 10.0, 0.0]), 0, (0, 1))


class TestExecutions:
    def test_zero_transitions(self):
        a = rect_waypoint_automaton()
        ex = sample_execution(a, 1, 0)
        assert len(ex.pairs) == 1

    def test_center_start_visits_cycle(self):
        # oracle: simulate from the center and check guard membership at
        # each time bound; the sampled execution must agree
        a = rect_waypoint_automaton()
        ex = sample_execution(a, 0, 4, x0=np.array(RECT_WP_INIT_CENTER))
        assert [m for (_, m) in ex.pairs][:4] == [0, 1, 2, 3]
        assert execution_is_valid(a, ex)

    def test_invariants_hold_for_random_seeds(self):
        a = rect_waypoint_automaton()
        for seed in range(6):
            ex = sample_execution(a, seed, 6)
            assert execution_is_valid(a, ex)

    def test_batch_matches_singles(self):
        a = s_road_automaton(linear())
        batch = sample_executions(a, 4, 11, 3)
        for j, ex in enumerate(batch):
            single = sample_execution(a, 11 + j, 3)
            assert len(ex.pairs) == len(single.pairs)
            for (t1, m1), (t2, m2) in zip(ex.pairs, single.pairs):
                assert m1 == m2
                assert np.allclose(t1.states, t2.states)

    def test_deterministic_for_seed(self):
        a = rect_waypoint_automaton()
        e1 = sample_execution(a, 42, 4)
        e2 = sample_execution(a, 42, 4)
        assert all(np.array_equal(t1.states, t2.states)
                   for (t1, _), (t2, _) in zip(e1.pairs, e2.pairs))

"""Vehicle models and the fixed-step integrator."""

import numpy as np
import pytest

from symreach.dynamics import (Dynamics, DynamicsId, NumericalBlowup,
                               eval_f, n_samples, simulate, simulate_batch,
                               state_deviation)


def robot(L=1.0):
    return Dynamics(DynamicsId.ROBOT, v=1.0, L=L)


LIN = Dynamics(DynamicsId.LINEAR3D)


class TestEvalF:
    def test_aligned_heading_moves_straight(self):
        f = eval_f(robot(), np.array([0.0, 0.0, 0.0]), np.array([5.0, 0.0]))
        assert np.allclose(f, [1.0, 0.0, 0.0])

    def test_linear_equilibrium(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(eval_f(LIN, x, x), 0.0)

    def test_robot_turn_rate_hand_value(self):
        # target straight above: alpha = pi/2, so dheading = 2 v / L
        f = eval_f(robot(), np.array([0.0, 0.0, 0.0]), np.array([0.0, 5.0]))
        assert np.allclose(f, [1.0, 0.0, 2.0])

    def test_road_mode_chases_destination(self):
        f4 = eval_f(robot(), np.array([0.0, 0.0, 0.0]),
                    np.array([-3.0, 0.0, 5.0, 0.0]))
        f2 = eval_f(robot(), np.array([0.0, 0.0, 0.0]), np.array([5.0, 0.0]))
        assert np.allclose(f4, f2)

    def test_speed_invariant(self):
        rng = np.random.default_rng(2)
        dyn = robot()
        X = rng.uniform(-5, 5, size=(200, 3))
        F = eval_f(dyn, X, np.array([1.0, 1.0]))
        assert np.allclose(np.hypot(F[:, 0], F[:, 1]), dyn.v)


class TestSimulate:
    def test_zero_horizon_single_state(self):
        tr = simulate(LIN, np.array([1.0, 1.0, 1.0]), np.zeros(3), 0.0, 0.01)
        assert tr.states.shape == (1, 3)
        assert tr.duration == 0.0

    def test_linear_contracts(self):
        x0 = np.array([4.0, -3.0, 2.0])
        tr = simulate(LIN, x0, np.zeros(3), 10.0, 0.01)
        assert np.linalg.norm(tr.lstate) < 1e-3 * np.linalg.norm(x0)

    def test_sample_counts(self):
        assert n_samples(1.0, 0.1) == 11
        assert n_samples(1.05, 0.1) == 12  # final partial step
        tr = simulate(LIN, np.ones(3), np.zeros(3), 1.05, 0.1)
        assert tr.states.shape[0] == 12

    def test_linear_matches_closed_form(self):
        # x(t) = p + exp(D t) (x0 - p), D = diag(-3,-3,-1)
        x0 = np.array([2.0, -1.0, 3.0])
        p = np.array([0.5, 0.5, 0.5])
        tr = simulate(LIN, x0, p, 1.0, 1e-3)
        t = np.arange(tr.states.shape[0]) * 1e-3
        rates = np.array([-3.0, -3.0, -1.0])
        closed = p + np.exp(np.outer(t, rates)) * (x0 - p)
        assert np.max(np.abs(tr.states - closed)) < 1e-6

    def test_rk4_order_both_models(self):
        # halving dt reduces endpoint error about 16x against a dt/100 ref
        cases = [(LIN, np.array([2.0, -1.0, 1.5]), np.zeros(3)),
                 (robot(), np.array([-4.0, -0.5, -np.pi / 4]),
                  np.array([0.0, 0.0]))]
        for dyn, x0, p in cases:
            T = 1.6
            ref = simulate(dyn, x0, p, T, T / 3200).lstate
            e1 = state_deviation(dyn, simulate(dyn, x0, p, T, T / 16).lstate, ref)
            e2 = state_deviation(dyn, simulate(dyn, x0, p, T, T / 32).lstate, ref)
            ratio = e1 / e2
            assert 8.0 <= ratio <= 32.0, ratio

    def test_robot_approach_vs_fine_reference(self):
        dyn = robot(L=0.4)
        x0 = np.array([-4.5, -0.5, -np.pi / 4])
        p = np.array([-2.4, -1.4])
        coarse = simulate(dyn, x0, p, 2.0, 0.01)
        fine = simulate(dyn, x0, p, 2.0, 0.0001)
        assert state_deviation(dyn, coarse.states[-1], fine.states[-1]) < 1e-4
        d = np.linalg.norm(coarse.states[:, :2] - p, axis=1)
        settled = d[50:]  # after the initial heading transient
        assert np.all(np.diff(settled) < 1e-9)

    def test_heading_stays_wrapped(self):
        tr = simulate(robot(L=0.4), np.array([0.0, 0.3, 3.0]),
                      np.array([1.0, 0.0]), 20.0, 0.01)
        assert np.all(tr.states[:, 2] >= -np.pi - 1e-12)
        assert np.all(tr.states[:, 2] < np.pi + 1e-12)

    def test_blowup_detected(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalBlowup):
                simulate(LIN, np.array([1e3, 0.0, 0.0]), np.zeros(3),
                         600.0, 1.5)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        X0 = rng.uniform(-2, 2, size=(5, 3))
        p = np.array([1.0, 1.0])
        batch = simulate_batch(robot(), X0, p, 0.5, 0.01)
        for i in range(5):
            single = simulate(robot(), X0[i], p, 0.5, 0.01)
            assert np.array_equal(batch[i], single.states)


# ---------------------------------------------------------------------------
# bit-identity against the first, per-sample integrator, kept as the one
# oracle of the kernel: every input case of the kernels that came between
# runs against it
# ---------------------------------------------------------------------------

def _ref_eval_f(dyn, x, p):
    from symreach.dynamics import LINEAR_RATES, target_of
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    tgt = target_of(dyn, p)
    if dyn.id is DynamicsId.ROBOT:
        heading = X[:, 2]
        alpha = np.arctan2(tgt[1] - X[:, 1], tgt[0] - X[:, 0]) - heading
        out = np.stack([dyn.v * np.cos(heading),
                        dyn.v * np.sin(heading),
                        2.0 * dyn.v * np.sin(alpha) / dyn.L], axis=1)
    else:
        out = LINEAR_RATES * (X - tgt)
    return out[0] if single else out


def _ref_wrap_heading(dyn, X):
    if dyn.id is not DynamicsId.ROBOT:
        return X
    theta = X[..., 2]
    if np.all(theta >= -np.pi) and np.all(theta < np.pi):
        return X
    X = X.copy()
    X[..., 2] = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    return X


def _ref_rk4_steps(dyn, X, p, h, k, out):
    for _ in range(k):
        k1 = _ref_eval_f(dyn, X, p)
        k2 = _ref_eval_f(dyn, X + 0.5 * h * k1, p)
        k3 = _ref_eval_f(dyn, X + 0.5 * h * k2, p)
        k4 = _ref_eval_f(dyn, X + h * k3, p)
        X = _ref_wrap_heading(dyn, X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        out.append(X)
    return X


def _ref_simulate_batch(dyn, X0, p, T, dt):
    from symreach.dynamics import split_steps
    X = _ref_wrap_heading(dyn, np.atleast_2d(np.asarray(X0, dtype=float)))
    p = np.asarray(p, dtype=float)
    n_full, rem = split_steps(T, dt)
    samples = [X]
    X = _ref_rk4_steps(dyn, X, p, dt, n_full, samples)
    if rem > 0.0:
        _ref_rk4_steps(dyn, X, p, rem, 1, samples)
    traj = np.stack(samples, axis=1)
    if not np.all(np.isfinite(traj)):
        raise NumericalBlowup("non-finite state during integration")
    return traj


MODELS = {
    "robot-v1-L0.4": Dynamics(DynamicsId.ROBOT, v=1.0, L=0.4),
    "robot-v1-L1": Dynamics(DynamicsId.ROBOT, v=1.0, L=1.0),
    "robot-v1.3-L1": Dynamics(DynamicsId.ROBOT, v=1.3, L=1.0),
    "robot-v1.3-L0.4": Dynamics(DynamicsId.ROBOT, v=1.3, L=0.4),
    "linear": LIN,
}
ROBOTS = sorted(m for m in MODELS if m.startswith("robot"))


def _oracle_case(dyn, rows, seed):
    rng = np.random.default_rng(seed)
    X0 = rng.uniform(-6.0, 6.0, size=(rows, 3))
    if dyn.id is DynamicsId.ROBOT:
        # headings on both sides of the wrap, some starting off the circle
        X0[:, 2] = rng.uniform(-3.5 * np.pi, 3.5 * np.pi, size=rows)
        p = rng.uniform(-3.0, 3.0, size=2 if seed % 2 else 4)
    else:
        p = rng.uniform(-3.0, 3.0, size=3 if seed % 2 else 6)
    return X0, p


def _wrap_case(dyn, rows, kind, dt, seed):
    """Starts whose headings lie within one step's heading bound of +-pi
    ("edge"), or near a close target, so tight turns cross +-pi ("turn")."""
    rng = np.random.default_rng(seed)
    p = np.array([0.5, -0.25]) if dyn.id is DynamicsId.ROBOT \
        else np.array([0.5, -0.25, 1.0])
    if kind == "edge":
        X0 = rng.uniform(-4.0, 4.0, size=(rows, 3))
        step = dt * 2.0 * dyn.v / dyn.L
        off = rng.uniform(0.0, step, size=rows)
        off[:3] = [0.0, 1e-15, step][:rows]
        X0[:, 2] = np.where(np.arange(rows) % 2, -np.pi + off, np.pi - off)
    else:
        X0 = rng.uniform(-0.6, 0.6, size=(rows, 3)) + [0.5, -0.25, 0.0]
        X0[:, 2] = rng.uniform(-np.pi, np.pi, size=rows)
    return X0, p


class TestKernelMatchesReference:
    @pytest.fixture
    def wraps(self, monkeypatch):
        """Steps at which the headings really leave [-pi, pi) and are
        wrapped: [kernel, oracle].  The kernel's test is skipped while a
        rate bound rules a wrap out, so it must wrap where the oracle's
        every-step test does."""
        import symreach.dynamics as dynamics
        counts = [0, 0]
        kernel_wrap, oracle_wrap = dynamics.wrap_heading, _ref_wrap_heading

        def kernel(theta):
            counts[0] += not (theta.min() >= -np.pi and theta.max() < np.pi)
            kernel_wrap(theta)

        def oracle(dyn, X):
            wrapped = oracle_wrap(dyn, X)
            counts[1] += wrapped is not X
            return wrapped

        monkeypatch.setattr(dynamics, "wrap_heading", kernel)
        monkeypatch.setitem(globals(), "_ref_wrap_heading", oracle)
        return counts

    def check(self, wraps, dyn, X0, p, T, dt):
        new = simulate_batch(dyn, X0, p, T, dt)
        ref = _ref_simulate_batch(dyn, X0, p, T, dt)
        assert new.shape == ref.shape == (len(X0), n_samples(T, dt), 3)
        assert np.array_equal(new, ref)
        assert wraps[0] == wraps[1]
        return ref

    @pytest.mark.parametrize("rows", [0, 1, 20, 24, 48, 544, 1000])
    @pytest.mark.parametrize("T,dt", [(0.0, 0.01), (0.5, 0.01),
                                      (0.537, 0.01), (1.3, 0.1)])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_bit_identical(self, wraps, rows, T, dt, model):
        dyn = MODELS[model]
        X0, p = _oracle_case(dyn, rows, seed=rows + int(T * 1000))
        self.check(wraps, dyn, X0, p, T, dt)

    @pytest.mark.parametrize("rows", [0, 1, 24, 544])
    @pytest.mark.parametrize("kind", ["edge", "turn"])
    @pytest.mark.parametrize("T,dt", [(1.0, 0.01), (0.537, 0.01),
                                      (1.3, 0.1)])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_near_the_wrap(self, wraps, rows, kind, T, dt, model):
        dyn = MODELS[model]
        X0, p = _wrap_case(dyn, rows, kind, dt, seed=rows + int(T * 100))
        self.check(wraps, dyn, X0, p, T, dt)
        if dyn.id is DynamicsId.ROBOT and rows > (kind == "turn"):
            assert wraps[1] > 0

    @pytest.mark.parametrize("v", [1.0, 1.3])
    def test_headings_wrap_during_run(self, wraps, v):
        # a tight turn around a close target crosses +-pi many times, on a
        # whole run and on one ending in a partial step
        dyn = Dynamics(DynamicsId.ROBOT, v=v, L=0.1)
        p = np.array([0.0, 0.0])
        X0 = np.array([[0.0, 0.3, 3.1], [0.05, -0.2, -3.1], [1.0, 1.0, 0.0]])
        for theta in (np.pi, -np.pi):   # the ends of [-pi, pi)
            start = X0.copy()
            start[2, 2] = theta
            self.check(wraps, dyn, start, p, 0.0, 0.01)
        X0 = np.vstack([X0, [[0.0, 0.0, np.pi], [0.2, 0.1, -np.pi]]])
        for T in (3.0, 2.995):
            ref = self.check(wraps, dyn, X0, p, T, 0.01)
            assert np.ptp(ref[:, :, 2]) > 6.0

    @pytest.mark.parametrize("model", ROBOTS)
    def test_far_from_the_edge_then_crossing(self, wraps, model):
        # one row starts far from +-pi and turns round a close target, so
        # the room first skips tests and then runs out before the crossing
        X0 = np.array([[1.5, 0.0, 0.0]])
        ref = self.check(wraps, MODELS[model], X0, np.array([1.0, 0.3]),
                         4.0, 0.01)
        assert np.ptp(ref[0, :, 2]) > 6.0 and wraps[1] > 0

    @pytest.mark.parametrize("start", [[0.0, 0.0, np.nan], [0.0, 0.0, np.inf],
                                       [np.nan, 0.0, 0.0],
                                       [0.0, 0.0, -np.inf]])
    @pytest.mark.parametrize("model", ["robot-v1-L0.4", "robot-v1.3-L0.4"])
    def test_non_finite_start_blows_up(self, wraps, start, model):
        X0 = np.array([start, [1.0, 1.0, 0.0]])
        p = np.array([5.0, 0.0])
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalBlowup):
                simulate_batch(MODELS[model], X0, p, 0.5, 0.01)
            with pytest.raises(NumericalBlowup):
                _ref_simulate_batch(MODELS[model], X0, p, 0.5, 0.01)
        assert wraps[0] == wraps[1] > 1

    @pytest.mark.parametrize("L", [0.4, 1.0, 0.3, 1e-300])
    def test_one_division_heading_rate(self, wraps, L):
        # sin(alpha) / (L/2) is (2 sin(alpha)) / L bit for bit
        dyn = Dynamics(DynamicsId.ROBOT, v=1.0, L=L)
        X, p = _oracle_case(dyn, 200, seed=5)
        with np.errstate(over="ignore"):
            assert np.array_equal(eval_f(dyn, X, p), _ref_eval_f(dyn, X, p))
            self.check(wraps, dyn, X, p, 0.05, 0.01)

    @pytest.mark.parametrize("seed", [9, 11])
    @pytest.mark.parametrize("model", sorted(MODELS) + ["robot-v1-L0.7"])
    def test_eval_f_matches_reference(self, model, seed):
        dyn = MODELS[model] if model in MODELS else robot(L=0.7)
        X, p = _oracle_case(dyn, 50, seed=seed)
        assert np.array_equal(eval_f(dyn, X, p), _ref_eval_f(dyn, X, p))
        assert np.array_equal(eval_f(dyn, X[3], p), _ref_eval_f(dyn, X[3], p))


# ---------------------------------------------------------------------------
# several batches of one horizon and step in one call (``sizes``): each
# group's rows are those of its own call, bit for bit
# ---------------------------------------------------------------------------

def _merged(dyn, groups, T, dt):
    """One call over the (X0, p) ``groups``, and each group's rows of it."""
    out = simulate_batch(dyn, np.concatenate([X0 for X0, _ in groups]),
                         [p for _, p in groups], T, dt,
                         [len(X0) for X0, _ in groups])
    cut = np.cumsum([0] + [len(X0) for X0, _ in groups])
    return [out[lo:hi] for lo, hi in zip(cut, cut[1:])]


class TestMergedGroups:
    @pytest.mark.parametrize("T,dt", [(0.5, 0.01), (0.537, 0.01),
                                      (1.3, 0.1)])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_groups_with_different_targets(self, model, T, dt):
        dyn = MODELS[model]
        groups = [_oracle_case(dyn, rows, seed)
                  for rows, seed in ((20, 1), (3, 2), (1, 3), (48, 4))]
        assert len({p.tobytes() for _, p in groups}) == 4
        for (X0, p), got in zip(groups, _merged(dyn, groups, T, dt)):
            assert np.array_equal(got, simulate_batch(dyn, X0, p, T, dt))
            assert np.array_equal(got, _ref_simulate_batch(dyn, X0, p, T,
                                                           dt))

    @pytest.mark.parametrize("model", ROBOTS)
    @pytest.mark.parametrize("T", [3.0, 2.995])
    def test_wrapping_group_beside_a_calm_one(self, model, T):
        # the first group turns round a close target and crosses +-pi
        # again and again; the second heads straight for a far one, so a
        # wrap of its headings would change their bits
        dyn = MODELS[model]
        turning = (np.array([[0.0, 0.3, 3.1], [0.05, -0.2, -3.1]]),
                   np.array([0.0, 0.0]))
        calm = (np.array([[0.0, 0.0, 0.1], [0.0, 0.1, 0.3]]),
                np.array([100.0, 1.0]))
        for groups in ([turning, calm], [calm, turning]):
            got = _merged(dyn, groups, T, 0.01)
            for (X0, p), rows in zip(groups, got):
                alone = simulate_batch(dyn, X0, p, T, 0.01)
                assert np.array_equal(rows, alone)
                if X0 is turning[0]:
                    assert np.ptp(rows[:, :, 2]) > 6.0
                else:
                    assert np.all(np.abs(rows[:, :, 2]) < 1.0)

    @pytest.mark.parametrize("start", [[0.0, 0.0, np.nan], [np.inf, 0.0, 0.0],
                                       [0.0, 0.0, -np.inf]])
    @pytest.mark.parametrize("model", ["robot-v1-L0.4", "linear"])
    def test_non_finite_start_fails_its_group_alone(self, model, start):
        dyn = MODELS[model]
        tgt = np.zeros(2 if dyn.id is DynamicsId.ROBOT else 3)
        fine = _oracle_case(dyn, 5, seed=8)
        broken = (np.array([start, [1.0, 1.0, 0.0]]), tgt + 5.0)
        with np.errstate(invalid="ignore", over="ignore"):
            got = _merged(dyn, [fine, broken, fine], 0.5, 0.01)
            with pytest.raises(NumericalBlowup):
                simulate_batch(dyn, *broken, 0.5, 0.01)
        alone = simulate_batch(dyn, *fine, 0.5, 0.01)
        assert np.array_equal(got[0], alone)
        assert np.array_equal(got[2], alone)
        assert not np.isfinite(got[1]).all()

    @pytest.mark.parametrize("rows", [1, 24, 544])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_one_group_is_a_plain_call(self, model, rows):
        dyn = MODELS[model]
        X0, p = _oracle_case(dyn, rows, seed=rows)
        got = simulate_batch(dyn, X0, [p], 0.537, 0.01, [rows])
        assert np.array_equal(got, simulate_batch(dyn, X0, p, 0.537, 0.01))
        assert np.array_equal(got, _ref_simulate_batch(dyn, X0, p, 0.537,
                                                       0.01))

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
        assert tr.dur == 0.0

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
# bit-identity against the per-sample integrator the in-place kernel replaced
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


ORACLE_ROWS = [1, 20, 48, 544, 1000]


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


class TestKernelMatchesReference:
    @pytest.mark.parametrize("rows", ORACLE_ROWS)
    @pytest.mark.parametrize("T,dt", [(0.0, 0.01), (0.5, 0.01),
                                      (0.537, 0.01), (1.3, 0.1)])
    @pytest.mark.parametrize("model", ["robot", "linear"])
    def test_bit_identical(self, rows, T, dt, model):
        dyn = robot(L=0.4) if model == "robot" else LIN
        X0, p = _oracle_case(dyn, rows, seed=rows + int(T * 1000))
        new = simulate_batch(dyn, X0, p, T, dt)
        ref = _ref_simulate_batch(dyn, X0, p, T, dt)
        assert new.shape == ref.shape
        assert np.array_equal(new, ref)

    def test_headings_wrap_during_run(self):
        # a tight turn around a close target crosses +-pi many times
        dyn = robot(L=0.1)
        X0 = np.array([[0.0, 0.3, 3.1], [0.05, -0.2, -3.1], [1.0, 1.0, 0.0]])
        for theta in (np.pi, -np.pi):   # the ends of [-pi, pi)
            start = X0.copy()
            start[2, 2] = theta
            assert np.array_equal(
                simulate_batch(dyn, start, np.array([0.0, 0.0]), 0.0, 0.01),
                _ref_simulate_batch(dyn, start, np.array([0.0, 0.0]), 0.0,
                                    0.01))
        p = np.array([0.0, 0.0])
        new = simulate_batch(dyn, X0, p, 3.0, 0.01)
        ref = _ref_simulate_batch(dyn, X0, p, 3.0, 0.01)
        assert np.ptp(ref[:, :, 2]) > 6.0
        assert np.array_equal(new, ref)

    @pytest.mark.parametrize("model", ["robot", "linear"])
    def test_eval_f_matches_reference(self, model):
        dyn = robot(L=0.7) if model == "robot" else LIN
        X, p = _oracle_case(dyn, 50, seed=9)
        assert np.array_equal(eval_f(dyn, X, p), _ref_eval_f(dyn, X, p))
        assert np.array_equal(eval_f(dyn, X[3], p), _ref_eval_f(dyn, X[3], p))


# ---------------------------------------------------------------------------
# bit-identity against the in-place kernel the fixed-layout step replaced,
# kept verbatim (renamed) as the oracle
# ---------------------------------------------------------------------------

def _old_derivative(dyn, X, tgt, out, scratch):
    from symreach.dynamics import LINEAR_RATES
    if dyn.id is DynamicsId.ROBOT:
        heading = X[2]
        np.cos(heading, out=out[0])
        np.sin(heading, out=out[1])
        out[:2] *= dyn.v
        np.subtract(tgt[:, None], X[:2], out=scratch)
        alpha = np.arctan2(scratch[1], scratch[0], out=scratch[1])
        alpha -= heading
        np.sin(alpha, out=out[2])
        out[2] *= 2.0 * dyn.v
        out[2] /= dyn.L
    else:
        np.subtract(X, tgt[:, None], out=out)
        out *= LINEAR_RATES[:, None]
    return out


def _old_wrap_heading(theta):
    if theta.size == 0 or (theta.min() >= -np.pi and theta.max() < np.pi):
        return
    theta += np.pi
    np.mod(theta, 2.0 * np.pi, out=theta)
    theta -= np.pi


def _old_simulate_batch(dyn, X0, p, T, dt):
    from symreach.dynamics import split_steps, target_of
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < 0:
        raise ValueError("duration must be nonnegative")
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    n_full, rem = split_steps(T, dt)
    steps = [dt] * n_full + ([rem] if rem > 0.0 else [])
    robot = dyn.id is DynamicsId.ROBOT
    tgt = target_of(dyn, p)
    N = X0.shape[0]
    traj = np.empty((len(steps) + 1, 3, N))   # sample, coordinate, row
    traj[0] = X0.T
    if robot:
        _old_wrap_heading(traj[0, 2])
    k1, k2, k3, k4, Y = np.empty((5, 3, N))
    scratch = np.empty((2, N))
    for i, h in enumerate(steps):
        X = traj[i]
        _old_derivative(dyn, X, tgt, k1, scratch)
        np.multiply(k1, 0.5 * h, out=Y)
        Y += X
        _old_derivative(dyn, Y, tgt, k2, scratch)
        np.multiply(k2, 0.5 * h, out=Y)
        Y += X
        _old_derivative(dyn, Y, tgt, k3, scratch)
        np.multiply(k3, h, out=Y)
        Y += X
        _old_derivative(dyn, Y, tgt, k4, scratch)
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= h / 6.0
        np.add(X, k2, out=traj[i + 1])
        if robot:
            _old_wrap_heading(traj[i + 1, 2])
    if not np.all(np.isfinite(traj)):
        raise NumericalBlowup("non-finite state during integration")
    return np.ascontiguousarray(traj.transpose(2, 0, 1))


KERNEL_MODELS = {
    "robot": Dynamics(DynamicsId.ROBOT, v=1.0, L=1.0),
    "robot-v1.3": Dynamics(DynamicsId.ROBOT, v=1.3, L=1.0),
    "robot-v1.3-L0.4": Dynamics(DynamicsId.ROBOT, v=1.3, L=0.4),
    "linear": LIN,
}


class TestKernelMatchesInPlaceKernel:
    @pytest.mark.parametrize("rows", [0, 1, 24, 544])
    @pytest.mark.parametrize("T,dt", [(0.0, 0.01), (0.5, 0.01),
                                      (0.537, 0.01), (1.3, 0.1)])
    @pytest.mark.parametrize("model", sorted(KERNEL_MODELS))
    def test_bit_identical(self, rows, T, dt, model):
        dyn = KERNEL_MODELS[model]
        X0, p = _oracle_case(dyn, rows, seed=rows + int(T * 1000))
        new = simulate_batch(dyn, X0, p, T, dt)
        old = _old_simulate_batch(dyn, X0, p, T, dt)
        assert new.shape == old.shape == (rows, n_samples(T, dt), 3)
        assert np.array_equal(new, old)

    @pytest.mark.parametrize("v", [1.0, 1.3])
    def test_headings_wrap_during_run(self, v):
        # a tight turn around a close target crosses +-pi many times, on a
        # whole run and on one ending in a partial step
        dyn = Dynamics(DynamicsId.ROBOT, v=v, L=0.1)
        X0 = np.array([[0.0, 0.3, 3.1], [0.05, -0.2, -3.1], [1.0, 1.0, 0.0],
                       [0.0, 0.0, np.pi], [0.2, 0.1, -np.pi]])
        p = np.array([0.0, 0.0])
        for T in (3.0, 2.995):
            new = simulate_batch(dyn, X0, p, T, 0.01)
            old = _old_simulate_batch(dyn, X0, p, T, 0.01)
            assert np.ptp(old[:, :, 2]) > 6.0
            assert np.array_equal(new, old)

    def test_blowup_still_detected(self):
        dyn = Dynamics(DynamicsId.ROBOT, v=1.3, L=0.4)
        X0 = np.array([[0.0, 0.0, np.nan], [1.0, 1.0, 0.0]])
        with pytest.raises(NumericalBlowup):
            simulate_batch(dyn, X0, np.array([5.0, 0.0]), 0.1, 0.01)

    @pytest.mark.parametrize("model", sorted(KERNEL_MODELS))
    def test_eval_f_matches_old_derivative(self, model):
        from symreach.dynamics import target_of
        dyn = KERNEL_MODELS[model]
        X, p = _oracle_case(dyn, 50, seed=11)
        Xc = np.ascontiguousarray(X.T)
        old = _old_derivative(dyn, Xc, target_of(dyn, p), np.empty_like(Xc),
                              np.empty((2, 50)))
        assert np.array_equal(eval_f(dyn, X, p), old.T)


# ---------------------------------------------------------------------------
# the bounded heading-wrap test against the kernel that tests every step,
# kept verbatim (docstrings dropped, names prefixed) as the oracle
# ---------------------------------------------------------------------------

def _lean_views(a):
    return (a, a[..., 0, :], a[..., 1, :], a[..., 2, :], a[..., :2, :])


def _lean_field(dyn, p, N):
    from symreach.dynamics import LINEAR_RATES, target_of
    tgt = np.ascontiguousarray(target_of(dyn, p)[:, None])
    sin, cos, subtract, multiply = np.sin, np.cos, np.subtract, np.multiply
    if dyn.id is not DynamicsId.ROBOT:
        rates = LINEAR_RATES[:, None]

        def linear(x, out):
            subtract(x[0], tgt, out=out[0])
            multiply(out[0], rates, out=out[0])
        return linear

    arctan2, divide = np.arctan2, np.divide
    scratch = np.empty((2, N))
    s0, s1 = scratch
    v, v2, L = dyn.v, 2.0 * dyn.v, dyn.L

    def robot(x, out):
        heading, position = x[3], x[4]
        _, o0, o1, o2, o01 = out
        cos(heading, out=o0)
        sin(heading, out=o1)
        if v != 1.0:
            multiply(o01, v, out=o01)
        subtract(tgt, position, out=scratch)
        arctan2(s1, s0, out=s1)                 # bearing to the target
        subtract(s1, heading, out=s1)           # alpha
        sin(s1, out=o2)
        multiply(o2, v2, out=o2)
        if L != 1.0:
            divide(o2, L, out=o2)
    return robot


def _lean_wrap_heading(theta):
    if theta.size == 0 or (theta.min() >= -np.pi and theta.max() < np.pi):
        return
    theta += np.pi
    np.mod(theta, 2.0 * np.pi, out=theta)
    theta -= np.pi


def _lean_simulate_batch(dyn, X0, p, T, dt):
    from symreach.dynamics import split_steps
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < 0:
        raise ValueError("duration must be nonnegative")
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    n_full, rem = split_steps(T, dt)
    steps = [dt] * n_full + ([rem] if rem > 0.0 else [])
    N = X0.shape[0]
    traj = np.empty((len(steps) + 1, 3, N))   # sample, coordinate, row
    traj[0] = X0.T
    f = _lean_field(dyn, p, N)
    if N == 0:
        return np.empty((0, len(steps) + 1, 3))
    robot = dyn.id is DynamicsId.ROBOT
    if robot:
        _lean_wrap_heading(traj[0, 2])
    k1, k2, k3, k4, Y = np.empty((5, 3, N))
    K1, K2, K3, K4, y = map(_lean_views, (k1, k2, k3, k4, Y))
    states = list(zip(*_lean_views(traj)))
    add, multiply = np.add, np.multiply
    lowest, highest = np.minimum.reduce, np.maximum.reduce
    pi = np.pi
    for i, h in enumerate(steps):
        x = states[i]
        X = x[0]
        hh = 0.5 * h
        f(x, K1)
        multiply(k1, hh, out=Y)
        add(Y, X, out=Y)
        f(y, K2)
        multiply(k2, hh, out=Y)
        add(Y, X, out=Y)
        f(y, K3)
        multiply(k3, h, out=Y)
        add(Y, X, out=Y)
        f(y, K4)
        multiply(k2, 2.0, out=k2)
        add(k2, k1, out=k2)
        multiply(k3, 2.0, out=k3)
        add(k2, k3, out=k2)
        add(k2, k4, out=k2)
        multiply(k2, h / 6.0, out=k2)
        add(X, k2, out=states[i + 1][0])
        if robot:
            theta = states[i + 1][3]
            if not (lowest(theta) >= -pi and highest(theta) < pi):
                _lean_wrap_heading(theta)
    if not np.all(np.isfinite(traj)):
        raise NumericalBlowup("non-finite state during integration")
    return np.ascontiguousarray(traj.transpose(2, 0, 1))


WRAP_MODELS = {
    "robot-v1-L0.4": Dynamics(DynamicsId.ROBOT, v=1.0, L=0.4),
    "robot-v1-L1": Dynamics(DynamicsId.ROBOT, v=1.0, L=1.0),
    "robot-v1.3-L0.4": Dynamics(DynamicsId.ROBOT, v=1.3, L=0.4),
    "linear": LIN,
}


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


class TestBoundedWrapMatchesLeanKernel:
    @pytest.fixture
    def wraps(self, monkeypatch):
        """Counts of wrap_heading calls: [new kernel, oracle]."""
        import symreach.dynamics as dynamics
        counts = [0, 0]

        def counting(i, real):
            def wrap(theta):
                counts[i] += 1
                return real(theta)
            return wrap

        monkeypatch.setattr(dynamics, "wrap_heading",
                            counting(0, dynamics.wrap_heading))
        monkeypatch.setitem(globals(), "_lean_wrap_heading",
                            counting(1, _lean_wrap_heading))
        return counts

    def check(self, wraps, dyn, X0, p, T, dt):
        new = simulate_batch(dyn, X0, p, T, dt)
        old = _lean_simulate_batch(dyn, X0, p, T, dt)
        assert new.shape == old.shape == (len(X0), n_samples(T, dt), 3)
        assert np.array_equal(new, old)
        assert wraps[0] == wraps[1]
        return old

    @pytest.mark.parametrize("rows", [0, 1, 24, 544])
    @pytest.mark.parametrize("kind", ["edge", "turn"])
    @pytest.mark.parametrize("T,dt", [(1.0, 0.01), (0.537, 0.01),
                                      (1.3, 0.1)])
    @pytest.mark.parametrize("model", sorted(WRAP_MODELS))
    def test_bit_identical_with_same_wraps(self, wraps, rows, kind, T, dt,
                                           model):
        dyn = WRAP_MODELS[model]
        X0, p = _wrap_case(dyn, rows, kind, dt, seed=rows + int(T * 100))
        self.check(wraps, dyn, X0, p, T, dt)
        if rows and dyn.id is DynamicsId.ROBOT:
            assert wraps[1] > 0

    @pytest.mark.parametrize("model", ["robot-v1-L0.4", "robot-v1-L1",
                                       "robot-v1.3-L0.4"])
    def test_far_from_the_edge_then_crossing(self, wraps, model):
        # one row starts far from +-pi and turns round a close target, so
        # the room first skips tests and then runs out before the crossing
        dyn = WRAP_MODELS[model]
        X0 = np.array([[1.5, 0.0, 0.0]])
        old = self.check(wraps, dyn, X0, np.array([1.0, 0.3]), 4.0, 0.01)
        assert np.ptp(old[0, :, 2]) > 6.0 and wraps[1] > 1

    @pytest.mark.parametrize("start", [[0.0, 0.0, np.nan], [0.0, 0.0, np.inf],
                                       [np.nan, 0.0, 0.0],
                                       [0.0, 0.0, -np.inf]])
    def test_non_finite_start_blows_up_with_same_wraps(self, wraps, start):
        dyn = WRAP_MODELS["robot-v1-L0.4"]
        X0 = np.array([start, [1.0, 1.0, 0.0]])
        p = np.array([5.0, 0.0])
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalBlowup):
                simulate_batch(dyn, X0, p, 0.5, 0.01)
            with pytest.raises(NumericalBlowup):
                _lean_simulate_batch(dyn, X0, p, 0.5, 0.01)
        assert wraps[0] == wraps[1] > 1

    @pytest.mark.parametrize("L", [0.4, 1.0, 0.3, 1e-300])
    def test_one_division_heading_rate(self, L):
        # sin(alpha) / (L/2) is (2 sin(alpha)) / L bit for bit
        from symreach.dynamics import target_of
        dyn = Dynamics(DynamicsId.ROBOT, v=1.0, L=L)
        X, p = _oracle_case(dyn, 200, seed=5)
        Xc = np.ascontiguousarray(X.T)
        with np.errstate(over="ignore"):
            old = _old_derivative(dyn, Xc, target_of(dyn, p),
                                  np.empty_like(Xc), np.empty((2, 200)))
            assert np.array_equal(eval_f(dyn, X, p), old.T)

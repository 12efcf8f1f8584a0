"""Continuous vehicle dynamics and a fixed-step RK4 integrator.

Two models share the 3-dimensional state space:

* ``ROBOT``: planar unicycle chasing a waypoint at constant speed,
  state (x, y, heading),
      dx/dt = v cos(heading)
      dy/dt = v sin(heading)
      dheading/dt = 2 v sin(alpha) / L,   alpha = bearing-to-target - heading
* ``LINEAR3D``: stable linear contraction toward the target,
      dx/dt = diag(-3, -3, -1) (x - target)

The mode vector either names the target directly (waypoint style) or is a
road [src, dst] whose destination is chased (road style).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np


class NumericalBlowup(Exception):
    """Integrator produced a non-finite state."""


class DynamicsId(Enum):
    ROBOT = "robot"
    LINEAR3D = "linear3d"


LINEAR_RATES = np.array([-3.0, -3.0, -1.0])


@dataclass(frozen=True)
class Dynamics:
    """Dynamics id plus the robot's physical constants (ignored by LINEAR3D)."""

    id: DynamicsId
    v: float = 1.0
    L: float = 1.0


def target_of(dyn: Dynamics, p: np.ndarray) -> np.ndarray:
    """The chased point encoded by mode vector ``p``.

    Waypoint style gives the point itself (2-d for ROBOT, 3-d for LINEAR3D);
    road style gives [src, dst] and the destination half is chased.
    """
    p = np.asarray(p, dtype=float)
    if dyn.id is DynamicsId.ROBOT:
        if p.shape[0] == 2:
            return p
        if p.shape[0] == 4:
            return p[2:4]
    else:
        if p.shape[0] == 3:
            return p
        if p.shape[0] == 6:
            return p[3:6]
    raise ValueError(f"mode dimension {p.shape[0]} invalid for {dyn.id}")


def _views(a: np.ndarray) -> tuple:
    """(a, a[0], a[1], a[2], a[:2]) of a (3, N) array, or the same views of
    each array of a stack of them."""
    return (a, a[..., 0, :], a[..., 1, :], a[..., 2, :], a[..., :2, :])


def _linear_field(tgt: np.ndarray):
    """LINEAR3D's derivative f for states stored by coordinate, as a
    closure over the chased point ``tgt`` (3,), or one per row (3, N),
    which it holds as a contiguous array: ``f(x, out)`` writes f(X) into
    O, given ``x = _views(X)`` and ``out = _views(O)`` of (3, N) arrays."""
    tgt = np.ascontiguousarray(tgt if tgt.ndim == 2 else tgt[:, None])
    subtract, multiply = np.subtract, np.multiply
    rates = LINEAR_RATES[:, None]

    def linear(x, out):
        subtract(x[0], tgt, out=out[0])
        multiply(out[0], rates, out=out[0])
    return linear


def eval_f(dyn: Dynamics, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Derivative f(x, p); ``x`` may be a single state (3,) or a batch (N, 3).

    The formulas of the module docstring, by coordinate over rows."""
    x = np.asarray(x, dtype=float)
    X = np.ascontiguousarray(np.atleast_2d(x).T)
    tgt = target_of(dyn, p)
    if dyn.id is DynamicsId.ROBOT:
        heading = X[2]
        alpha = np.arctan2(tgt[1] - X[1], tgt[0] - X[0]) - heading
        out = np.stack([dyn.v * np.cos(heading), dyn.v * np.sin(heading),
                        2.0 * dyn.v * np.sin(alpha) / dyn.L])
    else:
        out = LINEAR_RATES[:, None] * (X - tgt[:, None])
    return out[:, 0] if x.ndim == 1 else out.T


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step solution samples over ``duration``; states[0] is the
    initial state (the last step is shorter than the others when the
    duration is not a multiple of it)."""

    states: np.ndarray
    duration: float

    @property
    def fstate(self) -> np.ndarray:
        return self.states[0]

    @property
    def lstate(self) -> np.ndarray:
        return self.states[-1]


def wrap_heading(theta: np.ndarray) -> None:
    """Put robot headings back on the circle [-pi, pi), in place: when any
    entry lies outside, every entry becomes (theta + pi) mod 2 pi - pi."""
    if theta.size == 0 or (theta.min() >= -np.pi and theta.max() < np.pi):
        return
    theta += np.pi
    np.mod(theta, 2.0 * np.pi, out=theta)
    theta -= np.pi


# slack of the heading-wrap bound of ``simulate_batch``: relative to the
# rate bound, and absolute per step for the rounding of a heading update
# and of the room (each below 4.5e-16 for |heading| < 4)
HEADING_SLACK = 1e-9
ROOM_SLACK = 1e-15


def split_steps(T: float, dt: float):
    """Number of full RK4 steps and the remainder step for horizon T."""
    n_full = int(np.floor(T / dt + 1e-12))
    rem = T - n_full * dt
    if rem <= 1e-12 * max(1.0, T):
        rem = 0.0
    return n_full, rem


def n_samples(T: float, dt: float) -> int:
    """Sample count of a simulated trajectory over horizon T (incl. t=0)."""
    n_full, rem = split_steps(T, dt)
    return n_full + 1 + (1 if rem > 0.0 else 0)


def simulate_batch(dyn: Dynamics, X0: np.ndarray, p: np.ndarray, T: float,
                   dt: float, sizes: Optional[Sequence[int]] = None
                   ) -> np.ndarray:
    """RK4 trajectories from all rows of ``X0`` at once; shape (N, k+1, 3).

    A final partial step is taken when T is not a multiple of dt.  The
    states are integrated by coordinate into one preallocated array, with
    the stage and update arithmetic of the textbook step in its usual order:
    X + (h/2) k1, ..., X + (h/6) (((k1 + 2 k2) + 2 k3) + k4).  A step is a
    fixed sequence of ufunc calls on views made once per call, each operand
    with the same shape and layout at every step; the robot's step is
    ``_robot_steps``.

    With ``sizes``, the rows are groups of that many rows, none empty,
    and ``p`` holds each group's mode vector; a group's rows are those of
    its own call bit for bit, and the caller tests them for finiteness.
    """
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
    tgt = target_of(dyn, p) if sizes is None else np.repeat(
        np.array([target_of(dyn, q) for q in p]).T, sizes, axis=1)
    cuts = None if sizes is None or len(sizes) < 2 else np.cumsum(sizes)[:-1]
    if N == 0:
        return np.empty((0, len(steps) + 1, 3))
    if dyn.id is DynamicsId.ROBOT:
        _robot_steps(dyn, tgt, traj, steps, cuts)
        return _finished(traj, sizes is None)
    f = _linear_field(tgt)
    k1, k2, k3, k4, Y = np.empty((5, 3, N))
    K1, K2, K3, K4, y = map(_views, (k1, k2, k3, k4, Y))
    states = list(zip(*_views(traj)))
    add, multiply = np.add, np.multiply
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
    return _finished(traj, sizes is None)


def _finished(traj: np.ndarray, check: bool) -> np.ndarray:
    """The (k+1, 3, N) samples ``traj`` as (N, k+1, 3), once every state
    is finite if ``check``."""
    if check and not np.all(np.isfinite(traj)):
        raise NumericalBlowup("non-finite state during integration")
    return np.ascontiguousarray(traj.transpose(2, 0, 1))


def _robot_steps(dyn: Dynamics, tgt: np.ndarray, traj: np.ndarray,
                 steps: list, cuts: Optional[np.ndarray] = None) -> None:
    """Robot RK4 steps of ``simulate_batch``, written into ``traj``, to
    ``tgt`` (2,), or per row (2, N) for the row groups split at ``cuts``.

    Every ufunc operand is an array made once per call: numpy's per-call
    cost, not arithmetic, bounds a step of a small batch, and a call with
    a Python float operand or a broadcast one costs 1.4 to 2.3 times an
    array-against-array call (numpy 2.4.6).  So the step factors h/2, h,
    h/6 and 2 are (3, N) arrays, one set per distinct step length (at
    most two: dt and the remainder), the target is a contiguous (2, N)
    array and the heading divisor an (N,) one.  Each factor array holds
    one value, so every product and quotient rounds as with the scalar.
    The last operand of each call is its output, passed by position,
    which numpy parses faster than the ``out=`` keyword.  Every sin and
    cos reads one contiguous row: numpy's vector sin and cos need not give
    the bits of its scalar path, so rows of different arrays are never
    fused into one call.

    For v = 1 the heading rate is sin(alpha) / (L/2), which equals
    (2 sin(alpha)) / L bit for bit when L/2 is exact: both scalings are
    exact, so both quotients round the same real number.  Otherwise each
    stage is scaled by (v, v, 2 v) and its heading rate divided by L, in
    the order of the module docstring; a scaling or division by exactly
    1.0 that this adds is exact.

    The headings are tested against [-pi, pi) after a step, and wrapped
    when one leaves it, only while a rate bound cannot rule that out.
    Every stage has |k_heading| <= |2 v / L| (|sin| <= 1 and rounding is
    monotone), so a step of length h moves a heading by at most
    h |2 v / L|, plus a relative slack for the rounding of the update and
    an absolute one for the add.  The room to the ends of the interval is
    measured after each test or wrap and shrinks by that much per step; a
    step is tested once the room is used up.  A start or target that is
    not finite is tested at every step.  Groups share the least of their
    rooms (``_wrap_groups``): a test that a finite group's own call skips
    finds its headings inside and wraps nothing.
    """
    N = traj.shape[2]
    pi = np.pi
    v, L = dyn.v, dyn.L
    rate = abs(2.0 * v) / abs(L) if L else np.inf
    bound = rate * (1.0 + HEADING_SLACK)
    if cuts is None:
        wrap_heading(traj[0, 2])
        room = -np.inf
        if np.isfinite(traj[0]).all() and np.isfinite(tgt).all():
            lo, hi = traj[0, 2].min(), traj[0, 2].max()
            room = min(lo + pi, pi - hi) - ROOM_SLACK
    else:
        room = _wrap_groups(traj[0, 2], cuts)
    half_L = 0.5 * L
    scaled = not (v == 1.0 and 2.0 * half_L == L)
    scale = np.repeat([[v], [v], [2.0 * v]], N, axis=1)
    divisor = np.full(N, L if scaled else half_L)
    target = np.ascontiguousarray(tgt) if tgt.ndim == 2 else \
        np.repeat(tgt[:, None], N, axis=1)
    two = np.full((3, N), 2.0)
    factors = {h: (np.full((3, N), 0.5 * h), np.full((3, N), h),
                   np.full((3, N), h / 6.0), h * bound + ROOM_SLACK)
               for h in set(steps)}
    k1, k2, k3, k4, Y = np.empty((5, 3, N))
    (c1, s1, r1), (c2, s2, r2), (c3, s3, r3), (c4, s4, r4) = k1, k2, k3, k4
    y_heading, y_position = Y[2], Y[:2]
    d = np.empty((2, N))                        # target - position
    dx, dy = d
    samples = list(zip(traj, traj[:, 2], traj[:, :2]))
    add, subtract, multiply, divide = (np.add, np.subtract, np.multiply,
                                       np.divide)
    sin, cos, arctan2 = np.sin, np.cos, np.arctan2
    lowest, highest = np.minimum.reduce, np.maximum.reduce
    for (X, heading, position), (X_next, theta, _), h in zip(
            samples, samples[1:], steps):
        half_h, whole_h, sixth_h, drop = factors[h]
        cos(heading, c1)                    # k1 = f(X)
        sin(heading, s1)
        subtract(target, position, d)
        arctan2(dy, dx, dy)                 # bearing to the target
        subtract(dy, heading, dy)           # alpha
        sin(dy, r1)
        if scaled:
            multiply(k1, scale, k1)
        divide(r1, divisor, r1)
        multiply(k1, half_h, Y)             # k2 = f(X + (h/2) k1)
        add(Y, X, Y)
        cos(y_heading, c2)
        sin(y_heading, s2)
        subtract(target, y_position, d)
        arctan2(dy, dx, dy)
        subtract(dy, y_heading, dy)
        sin(dy, r2)
        if scaled:
            multiply(k2, scale, k2)
        divide(r2, divisor, r2)
        multiply(k2, half_h, Y)             # k3 = f(X + (h/2) k2)
        add(Y, X, Y)
        cos(y_heading, c3)
        sin(y_heading, s3)
        subtract(target, y_position, d)
        arctan2(dy, dx, dy)
        subtract(dy, y_heading, dy)
        sin(dy, r3)
        if scaled:
            multiply(k3, scale, k3)
        divide(r3, divisor, r3)
        multiply(k3, whole_h, Y)            # k4 = f(X + h k3)
        add(Y, X, Y)
        cos(y_heading, c4)
        sin(y_heading, s4)
        subtract(target, y_position, d)
        arctan2(dy, dx, dy)
        subtract(dy, y_heading, dy)
        sin(dy, r4)
        if scaled:
            multiply(k4, scale, k4)
        divide(r4, divisor, r4)
        multiply(k2, two, k2)               # X + (h/6) (((k1 + 2 k2)
        add(k2, k1, k2)                     #            + 2 k3) + k4)
        multiply(k3, two, k3)
        add(k2, k3, k2)
        add(k2, k4, k2)
        multiply(k2, sixth_h, k2)
        add(X, k2, X_next)
        if room > drop:
            room -= drop
            continue
        if cuts is not None:
            room = _wrap_groups(theta, cuts)
            continue
        lo, hi = lowest(theta), highest(theta)
        if not (lo >= -pi and hi < pi):
            wrap_heading(theta)
            lo, hi = lowest(theta), highest(theta)
        room = min(lo + pi, pi - hi) - ROOM_SLACK


def _wrap_groups(theta: np.ndarray, cuts: np.ndarray) -> float:
    """``wrap_heading`` on each group of ``theta`` (split at ``cuts``), and
    the least room to the ends of [-pi, pi) of the groups that are finite
    once wrapped (min skips a NaN room)."""
    room = np.inf
    for group in np.split(theta, cuts):
        wrap_heading(group)
        room = min(room, group.min() + np.pi, np.pi - group.max())
    return room - ROOM_SLACK


def simulate(dyn: Dynamics, x0: np.ndarray, p: np.ndarray, T: float,
             dt: float) -> Trajectory:
    """Single-trajectory wrapper over :func:`simulate_batch`."""
    traj = simulate_batch(dyn, np.asarray(x0, dtype=float)[None, :], p, T, dt)
    return Trajectory(traj[0], float(T))


def state_deviation(dyn: Dynamics, a: np.ndarray, b: np.ndarray) -> float:
    """Sup-norm distance between state arrays, measuring the robot's
    heading on the circle (so states differing by full turns coincide)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = np.abs(a - b)
    if dyn.id is DynamicsId.ROBOT and a.shape[-1] == 3:
        dth = np.mod(d[..., 2], 2.0 * np.pi)
        d = d.copy()
        d[..., 2] = np.minimum(dth, 2.0 * np.pi - dth)
    return float(np.max(d)) if d.size else 0.0

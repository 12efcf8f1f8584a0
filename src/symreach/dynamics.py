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
from typing import Optional

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

    @property
    def state_dim(self) -> int:
        return 3


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


def _field(dyn: Dynamics, p: np.ndarray, N: int):
    """The derivative f in mode ``p`` for N states stored by coordinate, as
    a closure over its work space and the chased point, which it holds as a
    contiguous column.

    ``f(x, out)`` writes f(X) into O, given ``x = _views(X)`` and
    ``out = _views(O)`` of (3, N) arrays.  The formulas of the module
    docstring, evaluated in that order; a scaling by exactly 1.0 is
    skipped.  For v = 1 the heading rate is sin(alpha) / (L/2), which
    equals (2 sin(alpha)) / L bit for bit when L/2 is exact: both scalings
    are exact, so both quotients round the same real number."""
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
    half_L = 0.5 * L
    one_division = v == 1.0 and 2.0 * half_L == L

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
        if one_division:
            divide(o2, half_L, out=o2)
            return
        multiply(o2, v2, out=o2)
        if L != 1.0:
            divide(o2, L, out=o2)
    return robot


def eval_f(dyn: Dynamics, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Derivative f(x, p); ``x`` may be a single state (3,) or a batch (N, 3)."""
    x = np.asarray(x, dtype=float)
    X = np.ascontiguousarray(np.atleast_2d(x).T)
    out = np.empty_like(X)
    _field(dyn, p, X.shape[1])(_views(X), _views(out))
    return out[:, 0] if x.ndim == 1 else out.T


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step solution samples; states[0] is the initial state.

    ``duration`` records the true horizon when it is not a multiple of the
    step (the last step is then shorter than dt)."""

    states: np.ndarray
    dt: float
    mode: np.ndarray
    duration: Optional[float] = None

    @property
    def fstate(self) -> np.ndarray:
        return self.states[0]

    @property
    def lstate(self) -> np.ndarray:
        return self.states[-1]

    @property
    def dur(self) -> float:
        if self.duration is not None:
            return self.duration
        return (self.states.shape[0] - 1) * self.dt


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
                   dt: float) -> np.ndarray:
    """RK4 trajectories from all rows of ``X0`` at once; shape (N, k+1, 3).

    A final partial step is taken when T is not a multiple of dt.  The
    states are integrated by coordinate into one preallocated array, with
    the stage and update arithmetic of the textbook step in its usual order:
    X + (h/2) k1, ..., X + (h/6) (((k1 + 2 k2) + 2 k3) + k4).  A step is a
    fixed sequence of ufunc calls on views made once per call, each operand
    with the same shape and layout at every step.

    The robot's headings are tested against [-pi, pi) after a step, and
    wrapped when one leaves it, only while a rate bound cannot rule that
    out.  Every stage has |k_heading| <= |2 v / L| (|sin| <= 1 and rounding
    is monotone), so a step of length h moves a heading by at most
    h |2 v / L|, plus a relative slack for the rounding of the update and
    an absolute one for the add.  The room to the ends of the interval is
    measured after each test or wrap and shrinks by that much per step; a
    step is tested once the room is used up.  A start or target that is
    not finite is tested at every step, as before.
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
    f = _field(dyn, p, N)
    if N == 0:
        return np.empty((0, len(steps) + 1, 3))
    robot = dyn.id is DynamicsId.ROBOT
    pi = np.pi
    if robot:
        wrap_heading(traj[0, 2])
        rate = abs(2.0 * dyn.v) / abs(dyn.L) if dyn.L else np.inf
        bound = rate * (1.0 + HEADING_SLACK)
        room = -np.inf
        if np.isfinite(traj[0]).all() and np.isfinite(target_of(dyn, p)).all():
            lo, hi = traj[0, 2].min(), traj[0, 2].max()
            room = min(lo + pi, pi - hi) - ROOM_SLACK
    k1, k2, k3, k4, Y = np.empty((5, 3, N))
    K1, K2, K3, K4, y = map(_views, (k1, k2, k3, k4, Y))
    states = list(zip(*_views(traj)))
    add, multiply = np.add, np.multiply
    lowest, highest = np.minimum.reduce, np.maximum.reduce
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
            drop = h * bound + ROOM_SLACK
            if room > drop:
                room -= drop
                continue
            theta = states[i + 1][3]
            lo, hi = lowest(theta), highest(theta)
            if not (lo >= -pi and hi < pi):
                wrap_heading(theta)
                lo, hi = lowest(theta), highest(theta)
            room = min(lo + pi, pi - hi) - ROOM_SLACK
    if not np.all(np.isfinite(traj)):
        raise NumericalBlowup("non-finite state during integration")
    return np.ascontiguousarray(traj.transpose(2, 0, 1))


def simulate(dyn: Dynamics, x0: np.ndarray, p: np.ndarray, T: float,
             dt: float) -> Trajectory:
    """Single-trajectory wrapper over :func:`simulate_batch`."""
    traj = simulate_batch(dyn, np.asarray(x0, dtype=float)[None, :], p, T, dt)
    return Trajectory(traj[0], dt, np.asarray(p, dtype=float), duration=float(T))


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

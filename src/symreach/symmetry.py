"""Affine symmetry pairs (state map, mode map) and the built-in families.

A pair (gamma, rho) is a symmetry of the dynamics when the equivariance
identity A_gamma f(x, p) = f(gamma(x), rho(p)) holds for all states and
modes; solutions then transport: gamma(xi(x0, p, .)) = xi(gamma(x0),
rho(p), .).  Two families are built in:

* T  - translation moving the chased point to the origin,
* TR - translation plus rotation aligning the road with a chosen axis
       (roads only; needs a direction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .dynamics import Dynamics, DynamicsId, eval_f
from .geom import AffineMap, GeometryError


class DegenerateRoad(Exception):
    """Rotation family needs roads of positive length."""


class DimMismatch(Exception):
    pass


class EquivarianceError(Exception):
    """A candidate pair failed the construction-time equivariance gate."""


PAIR_GATE_TOL = 1e-6
PAIR_GATE_SAMPLES = 100


@dataclass(frozen=True)
class SymmetryPair:
    gamma: AffineMap
    gamma_inv: AffineMap
    rho: AffineMap

    def __post_init__(self):
        rt = self.gamma.compose(self.gamma_inv)
        if not rt.is_identity(tol=1e-9):
            raise GeometryError("gamma o gamma_inv is not the identity")

    @staticmethod
    def from_gamma(gamma: AffineMap, rho: AffineMap) -> "SymmetryPair":
        return SymmetryPair(gamma, gamma.inverse(), rho)


def check_equivariance(dyn: Dynamics, pair: SymmetryPair, p: np.ndarray,
                       samples: int = 100, seed: int = 0,
                       tol: float = 1e-9,
                       sample_box: Optional[tuple] = None) -> dict:
    """Numerically test A_gamma f(x,p) = f(gamma(x), rho(p)) on sampled states.

    Returns {"max_residual": r, "passed": r <= tol}.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    rng = np.random.default_rng(seed)
    if sample_box is None:
        lo = np.array([-10.0, -10.0, -np.pi])
        hi = np.array([10.0, 10.0, np.pi])
    else:
        lo, hi = (np.asarray(v, dtype=float) for v in sample_box)
    X = rng.uniform(lo, hi, size=(samples, len(lo)))
    p = np.asarray(p, dtype=float)
    lhs = eval_f(dyn, X, p) @ pair.gamma.A.T
    rhs = eval_f(dyn, pair.gamma(X), pair.rho(p))
    r = float(np.max(np.abs(lhs - rhs))) if samples else 0.0
    return {"max_residual": r, "passed": r <= tol}


class VirtualMap:
    """Per-mode family of symmetry pairs; rv(p) = rho_p(p).

    Pairs are constructed lazily per mode and pass an equivariance gate at
    construction (sampled residual below PAIR_GATE_TOL), so user-supplied
    Custom families fail fast.
    """

    def __init__(self, dyn: Dynamics, kind: str,
                 family: Callable[[np.ndarray], SymmetryPair],
                 gate: bool = True):
        self.dyn = dyn
        self.kind = kind
        self._family = family
        self._gate = gate
        self._pairs: Dict[bytes, SymmetryPair] = {}

    def pair(self, p: np.ndarray) -> SymmetryPair:
        p = np.asarray(p, dtype=float)
        key = p.tobytes()
        got = self._pairs.get(key)
        if got is None:
            got = self._family(p)
            if self._gate:
                rep = check_equivariance(self.dyn, got, p,
                                         samples=PAIR_GATE_SAMPLES, seed=7,
                                         tol=PAIR_GATE_TOL)
                if not rep["passed"]:
                    raise EquivarianceError(
                        f"pair for mode {p} has residual {rep['max_residual']:.3e}")
            self._pairs[key] = got
        return got

    def gamma(self, p) -> AffineMap:
        return self.pair(p).gamma

    def gamma_inv(self, p) -> AffineMap:
        return self.pair(p).gamma_inv

    def rho(self, p) -> AffineMap:
        return self.pair(p).rho

    def rv(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return self.rho(p)(p)


def _chase_point(dyn: Dynamics, p: np.ndarray) -> np.ndarray:
    """Translation target: the waypoint itself, or the road destination."""
    p = np.asarray(p, dtype=float)
    if dyn.id is DynamicsId.ROBOT:
        return p if p.shape[0] == 2 else p[2:4]
    return p if p.shape[0] == 3 else p[3:6]


def _state_translation(dyn: Dynamics, tgt: np.ndarray) -> AffineMap:
    """Move the chased point to the origin; the robot's heading is untouched,
    the linear model's third coordinate translates with its target."""
    if dyn.id is DynamicsId.ROBOT:
        return AffineMap(np.eye(3), np.array([-tgt[0], -tgt[1], 0.0]))
    return AffineMap(np.eye(3), -np.asarray(tgt, dtype=float))


def make_translation_map(dyn: Dynamics, mode_style: str = "waypoint") -> VirtualMap:
    """The T family: gamma_p translates the chased point of p to the origin,
    rho_p translates mode space the same way."""

    def family(p: np.ndarray) -> SymmetryPair:
        tgt = _chase_point(dyn, p)
        gamma = _state_translation(dyn, tgt)
        m = p.shape[0]
        if m == tgt.shape[0]:
            off = -tgt
        else:
            off = np.concatenate([-tgt, -tgt])
        rho = AffineMap(np.eye(m), off)
        return SymmetryPair.from_gamma(gamma, rho)

    return VirtualMap(dyn, "T", family)


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def make_tr_map(dyn: Dynamics, target_axis: int = 0) -> VirtualMap:
    """The TR family for road modes: translate the destination to the origin
    and rotate so the road lies along ``target_axis`` (0: the x[0]-axis,
    1: the x[1]-axis)."""
    if target_axis not in (0, 1):
        raise ValueError("target_axis must be 0 or 1")

    def family(p: np.ndarray) -> SymmetryPair:
        p = np.asarray(p, dtype=float)
        if p.shape[0] == 4:
            src, dst = p[0:2], p[2:4]
        elif p.shape[0] == 6:
            src, dst = p[0:3], p[3:6]
        else:
            raise DimMismatch("TR needs road modes ([src, dst])")
        d2 = dst[:2] - src[:2]
        if np.hypot(d2[0], d2[1]) < 1e-12:
            raise DegenerateRoad("zero-length road has no direction")
        theta = math.atan2(d2[1], d2[0])
        if target_axis == 1:
            theta -= math.pi / 2
        R = _rot(theta)
        if dyn.id is DynamicsId.ROBOT:
            A = np.eye(3)
            A[0:2, 0:2] = R
            A[2, 2] = 1.0
            b = np.concatenate([-R @ dst, [-theta]])
            gamma = AffineMap(A, b)
            m = p.shape[0]
            Am = np.zeros((m, m))
            Am[0:2, 0:2] = R
            Am[2:4, 2:4] = R
            bm = np.concatenate([-R @ dst, -R @ dst])
            rho = AffineMap(Am, bm)
        else:
            R3 = np.eye(3)
            R3[0:2, 0:2] = R
            gamma = AffineMap(R3, -R3 @ dst)
            m = p.shape[0]
            Am = np.zeros((m, m))
            Am[0:3, 0:3] = R3
            Am[3:6, 3:6] = R3
            bm = np.concatenate([-R3 @ dst, -R3 @ dst])
            rho = AffineMap(Am, bm)
        return SymmetryPair.from_gamma(gamma, rho)

    return VirtualMap(dyn, "TR", family)


def make_custom_map(dyn: Dynamics, table: Dict[bytes, SymmetryPair],
                    gate: bool = True) -> VirtualMap:
    """Family backed by an explicit per-mode table (scenario file import)."""

    def family(p: np.ndarray) -> SymmetryPair:
        key = np.asarray(p, dtype=float).tobytes()
        if key not in table:
            raise KeyError("no symmetry pair supplied for mode")
        return table[key]

    return VirtualMap(dyn, "Custom", family, gate=gate)


def compose_maps(phi_ab: VirtualMap, phi_bc: VirtualMap) -> VirtualMap:
    """Pairwise composition: the pair for p applies phi_ab's maps, then
    phi_bc's maps taken at the intermediate mode rv_ab(p)."""
    if phi_ab.dyn.state_dim != phi_bc.dyn.state_dim:
        raise DimMismatch("state dimensions differ")

    def family(p: np.ndarray) -> SymmetryPair:
        first = phi_ab.pair(p)
        mid = first.rho(p)
        second = phi_bc.pair(mid)
        if second.gamma.dim != first.gamma.dim:
            raise DimMismatch("incompatible state maps")
        gamma = second.gamma.compose(first.gamma)
        rho = second.rho.compose(first.rho)
        return SymmetryPair.from_gamma(gamma, rho)

    gate = phi_ab._gate and phi_bc._gate
    return VirtualMap(phi_ab.dyn, "Custom", family, gate=gate)

"""Exact affine-transformable set representations and grid algebra.

Sets are finite unions of convex polytopes in H-representation
{x : A x <= b}.  Axis-aligned hyper-rectangles are the common case and
get fast interval arithmetic; everything else goes through a small
self-contained Fourier-Motzkin feasibility check (no LP solver).

Tolerances are centralized here: GEOM_TOL for coordinate comparisons,
DET_TOL for invertibility, OCC_TOL for cell-occupancy boundary slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

GEOM_TOL = 1e-7
DET_TOL = 1e-9
OCC_TOL = 1e-9


class GeometryError(Exception):
    pass


class SingularMap(GeometryError):
    """Affine map used as a symmetry must be invertible."""


class UnboundedRegion(GeometryError):
    """Gridding requires the region to be bounded in every gridded dimension."""


# ---------------------------------------------------------------------------
# hyper-rectangles
# ---------------------------------------------------------------------------

def box(center, widths) -> "HyperRect":
    """Rectangle centered at ``center`` whose side i has full length widths[i]."""
    c = np.asarray(center, dtype=float)
    w = np.asarray(widths, dtype=float)
    return HyperRect(c - w / 2.0, c + w / 2.0)


@dataclass(frozen=True)
class HyperRect:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape:
            raise GeometryError("lo/hi length mismatch")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def is_empty(self) -> bool:
        return bool(np.any(self.lo > self.hi))

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    def contains_point(self, x, tol: float = GEOM_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def to_polytope(self) -> "ConvexPolytope":
        """H-representation; halfspaces for infinite bounds are omitted."""
        n = self.dim
        rows, rhs = [], []
        eye = np.eye(n)
        for i in range(n):
            if np.isfinite(self.hi[i]):
                rows.append(eye[i])
                rhs.append(self.hi[i])
            if np.isfinite(self.lo[i]):
                rows.append(-eye[i])
                rhs.append(-self.lo[i])
        if not rows:
            return ConvexPolytope(np.zeros((0, n)), np.zeros(0))
        return ConvexPolytope(np.array(rows), np.array(rhs))


# ---------------------------------------------------------------------------
# convex polytopes, Ax <= b
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexPolytope:
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.shape[0] != b.shape[0]:
            raise GeometryError("A rows and b length mismatch")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def contains_point(self, x, tol: float = GEOM_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        if self.A.shape[0] == 0:
            return True
        return bool(np.all(self.A @ x <= self.b + tol))

    def as_box(self, tol: float = GEOM_TOL) -> Optional[HyperRect]:
        """Return the equivalent HyperRect if every row is axis-aligned."""
        boxes = _as_boxes(self.A, self.b[None, :], tol)
        if boxes is None:
            return None
        return HyperRect(boxes[0][0], boxes[1][0])

    def bounding_box(self) -> HyperRect:
        """Axis-aligned bounding box via per-axis Fourier-Motzkin projection."""
        bx = self.as_box()
        if bx is not None:
            return bx
        lo, hi = fm_bounding_boxes(self.A, self.b[None, :])
        return HyperRect(lo[0], hi[0])

    def transform(self, m: "AffineMap") -> "ConvexPolytope":
        """Exact image {m(x) : A x <= b} under an invertible affine map."""
        # y = M x + c  =>  x = Minv.A y + Minv.b, substitute into A x <= b
        Minv = m.inverse()
        return ConvexPolytope(self.A @ Minv.A, self.b - self.A @ Minv.b)


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility (n <= 4 in this artifact)
#
# The routines decide families of K systems {x : A x <= B[k]} that share the
# coefficient matrix A (only the right-hand sides differ), with numpy
# operations over K.  Every elementwise step is the one a single system
# would take, so each member's decision does not depend on its batch.
# ---------------------------------------------------------------------------

def _axis_intervals(A: np.ndarray, B: np.ndarray, tol: float):
    """Per-axis intervals implied by the single-variable rows of A x <= B[k].

    Returns (lo, hi, count): bounds of shape (K, n) and the number of
    entries of each row of A with magnitude above ``tol``.
    """
    n = A.shape[1]
    nz = np.abs(A) > tol
    count = nz.sum(axis=1)
    lo = np.full((B.shape[0], n), -np.inf)
    hi = np.full((B.shape[0], n), np.inf)
    single = np.flatnonzero(count == 1)
    axis = nz[single].argmax(axis=1)
    coef = A[single, axis]
    val = B[:, single] / coef
    for j in range(n):
        up = (axis == j) & (coef > 0)
        down = (axis == j) & (coef < 0)
        if up.any():
            hi[:, j] = val[:, up].min(axis=1)
        if down.any():
            lo[:, j] = val[:, down].max(axis=1)
    return lo, hi, count


def _zero_row_violated(B: np.ndarray, count: np.ndarray, tol: float) -> np.ndarray:
    """Per system: some row 0 . x <= B[k, i] has B[k, i] < -tol."""
    return (B[:, count == 0] < -tol).any(axis=1)


def _eliminate_column(A: np.ndarray, B: np.ndarray, j: int, pos: np.ndarray,
                      neg: np.ndarray):
    """Project column j out of A x <= B (A of shape (..., m, n), B of shape
    (K, m)): rows without the variable are kept, and every (positive,
    negative) row pair is combined as (1/cp) row_p + (1/cn) row_n.  Column j
    is still present in the result."""
    zero = ~pos & ~neg
    parts_A = [A[..., zero, :]]
    parts_B = [B[:, zero]]
    if pos.any() and neg.any():
        Ap, bp = A[..., pos, :], B[:, pos]
        An, bn = A[..., neg, :], B[:, neg]
        cp = Ap[..., j:j + 1]
        cn = -An[..., j:j + 1]
        comb_A = (Ap / cp)[..., :, None, :] + (An / cn)[..., None, :, :]
        comb_B = (bp / cp[..., 0])[:, :, None] + (bn / cn[..., 0])[:, None, :]
        parts_A.append(comb_A.reshape(A.shape[:-2] + (-1, A.shape[-1])))
        parts_B.append(comb_B.reshape(B.shape[0], -1))
    return (np.concatenate(parts_A, axis=-2),
            np.concatenate(parts_B, axis=1))


def fm_feasible_batch(A: np.ndarray, B: np.ndarray,
                      tol: float = GEOM_TOL) -> np.ndarray:
    """Decide which of the systems {x : A x <= B[k]} are nonempty.

    ``A`` has shape (m, n) and ``B`` shape (K, m); returns K booleans.  Per
    system: a single-variable interval prefilter, rows scaled by
    max(|A_row|, |b_row|), then variable elimination, always of the column
    with the fewest pos*neg products, dropping rows that become zero.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[0] == 0:
        return np.ones(B.shape[0], dtype=bool)
    lo, hi, count = _axis_intervals(A, B, tol)
    out = ~_zero_row_violated(B, count, tol) & (lo <= hi + tol).all(axis=1)
    live = np.flatnonzero(out)
    if live.size:
        # normalize row scales for numerical stability
        scale = np.maximum(np.max(np.abs(A), axis=1), np.abs(B[live]))
        scale[scale < tol] = 1.0
        out[live] = _fm_eliminate(A / scale[:, :, None], B[live] / scale,
                                  tol, reduce=False)
    return out


def _fm_eliminate(A: np.ndarray, B: np.ndarray, tol: float,
                  reduce: bool) -> np.ndarray:
    """Variable elimination on K scaled systems A[k] x <= B[k] of equal shape.

    Column choice and row sets follow the sign pattern (entries above tol,
    below -tol) of the systems; where the patterns of the batch differ, it
    is split by pattern and each part continues on its own.  ``reduce``
    marks a state after an elimination, whose zero rows are checked and
    dropped first.
    """
    out = np.zeros(B.shape[0], dtype=bool)
    idx = np.arange(B.shape[0])
    while True:
        pos = A > tol
        neg = A < -tol
        sign = pos.astype(np.int8) - neg
        if len(idx) > 1 and (sign != sign[0]).any():
            _, group = np.unique(sign.reshape(len(idx), -1), axis=0,
                                 return_inverse=True)
            group = group.ravel()
            for gid in range(group.max() + 1):
                sel = group == gid
                out[idx[sel]] = _fm_eliminate(A[sel], B[sel], tol, reduce)
            return out
        pos, neg = pos[0], neg[0]
        if reduce:
            # drop all-zero rows, checking their rhs
            zero_rows = ~(pos | neg).any(axis=1)
            ok = ~(B[:, zero_rows] < -tol).any(axis=1)
            A, B, idx = A[ok][:, ~zero_rows], B[ok][:, ~zero_rows], idx[ok]
            pos, neg = pos[~zero_rows], neg[~zero_rows]
            if len(idx) == 0:
                return out
            if A.shape[1] == 0:
                out[idx] = True
                return out
        npos, nneg = pos.sum(axis=0), neg.sum(axis=0)
        j = int(np.argmin(npos * nneg + (npos + nneg)))
        A, B = _eliminate_column(A, B, j, pos[:, j], neg[:, j])
        A = np.delete(A, j, axis=2)
        if A.shape[1] == 0:
            out[idx] = True
            return out
        if A.shape[2] == 0:
            out[idx] = (B >= -tol).all(axis=1)
            return out
        reduce = True


def fm_feasible(A: np.ndarray, b: np.ndarray, tol: float = GEOM_TOL) -> bool:
    """Decide whether {x : A x <= b} is nonempty by variable elimination."""
    return bool(fm_feasible_batch(A, b, tol)[0])


def fm_bounding_boxes(A: np.ndarray, B: np.ndarray, tol: float = GEOM_TOL):
    """Axis-aligned bounding boxes (lo, hi), each of shape (K, n), of the
    systems {A x <= B[k]}: per axis, [min, max] of that coordinate by
    eliminating the others."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[1]
    lo = np.empty((B.shape[0], n))
    hi = np.empty((B.shape[0], n))
    for axis in range(n):
        Aa, Ba, col = A, B, axis
        for j in sorted((j for j in range(n) if j != axis), reverse=True):
            Aa, Ba = _eliminate_column(Aa, Ba, j, Aa[:, j] > tol,
                                       Aa[:, j] < -tol)
            Aa = np.delete(Aa, j, axis=1)
            if j < col:
                col -= 1
        c = Aa[:, col]
        up, down = c > tol, c < -tol
        hi[:, axis] = (Ba[:, up] / c[up]).min(axis=1, initial=np.inf)
        lo[:, axis] = (Ba[:, down] / c[down]).max(axis=1, initial=-np.inf)
    return lo, hi


def _as_boxes(A: np.ndarray, B: np.ndarray, tol: float = GEOM_TOL):
    """The systems as boxes (lo, hi) of shape (K, n) if every row of A is
    axis-aligned, else None; a system with a violated zero row gets
    lo = 1, hi = 0 (empty)."""
    lo, hi, count = _axis_intervals(A, B, tol)
    if (count > 1).any():
        return None
    bad = _zero_row_violated(B, count, tol)
    lo[bad], hi[bad] = 1.0, 0.0
    return lo, hi


def stack_boxes(A: np.ndarray, B: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Each system A x <= B[k] intersected with the box [lo[k], hi[k]].

    ``B`` is (K, m), or (m,) for one system shared by every box.  The box
    rows come in HyperRect.to_polytope order: +e_0, -e_0, +e_1, ...
    """
    n = A.shape[1]
    eye = np.eye(n)
    rows = np.stack([eye, -eye], axis=1).reshape(2 * n, n)
    rhs = np.stack([hi, -lo], axis=2).reshape(lo.shape[0], 2 * n)
    B = np.broadcast_to(B, (lo.shape[0], A.shape[0]))
    return np.vstack([A, rows]), np.hstack([B, rhs])


# ---------------------------------------------------------------------------
# regions: finite unions of polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Region:
    polys: tuple
    dim: int

    @staticmethod
    def from_boxes(boxes: Iterable[HyperRect]) -> "Region":
        boxes = [bx for bx in boxes if not bx.is_empty]
        if not boxes:
            raise GeometryError("cannot infer dimension of an empty box list")
        return Region(tuple(bx.to_polytope() for bx in boxes), boxes[0].dim)

    @staticmethod
    def empty(dim: int) -> "Region":
        return Region((), dim)

    @property
    def is_empty(self) -> bool:
        return len(self.polys) == 0

    def contains_point(self, x, tol: float = GEOM_TOL) -> bool:
        return any(p.contains_point(x, tol) for p in self.polys)

    def boxes(self) -> Optional[list]:
        """All members as HyperRects, or None if any member is not a box."""
        out = []
        for p in self.polys:
            bx = p.as_box()
            if bx is None:
                return None
            out.append(bx)
        return out

    def bounding_box(self) -> HyperRect:
        if self.is_empty:
            raise GeometryError("bounding box of empty region")
        bbs = [p.bounding_box() for p in self.polys]
        return HyperRect(np.min([b.lo for b in bbs], axis=0),
                         np.max([b.hi for b in bbs], axis=0))


def transform_region(r: Region, m: "AffineMap") -> Region:
    if abs(np.linalg.det(m.A)) < DET_TOL:
        raise SingularMap("affine map is singular within tolerance")
    if m.A.shape[0] != r.dim:
        raise GeometryError("map/region dimension mismatch")
    return Region(tuple(p.transform(m) for p in r.polys), r.dim)


# ---------------------------------------------------------------------------
# affine maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineMap:
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.shape[0] != A.shape[1] or A.shape[0] != b.shape[0]:
            raise GeometryError("affine map shape mismatch")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @staticmethod
    def identity(n: int) -> "AffineMap":
        return AffineMap(np.eye(n), np.zeros(n))

    @staticmethod
    def translation(offset) -> "AffineMap":
        off = np.asarray(offset, dtype=float)
        return AffineMap(np.eye(len(off)), off)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x @ self.A.T + self.b

    def inverse(self) -> "AffineMap":
        det = np.linalg.det(self.A)
        if abs(det) < DET_TOL:
            raise SingularMap("cannot invert map with |det| < 1e-9")
        Ainv = np.linalg.inv(self.A)
        return AffineMap(Ainv, -Ainv @ self.b)

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self o inner, i.e. x -> self(inner(x))."""
        return AffineMap(self.A @ inner.A, self.A @ inner.b + self.b)

    def is_identity(self, tol: float = DET_TOL) -> bool:
        return bool(np.allclose(self.A, np.eye(self.dim), atol=tol)
                    and np.allclose(self.b, 0.0, atol=tol))

    def equals(self, other: "AffineMap", tol: float = DET_TOL) -> bool:
        return bool(np.allclose(self.A, other.A, atol=tol)
                    and np.allclose(self.b, other.b, atol=tol))

    def axis_action(self, tol: float = DET_TOL) -> Optional[tuple]:
        """If the linear part is a signed permutation (one +-1 per row/col),
        return (perm, signs) so boxes map to boxes exactly; else None."""
        n = self.dim
        perm = np.full(n, -1, dtype=int)
        signs = np.zeros(n)
        for i in range(n):
            nz = np.flatnonzero(np.abs(self.A[i]) > tol)
            if len(nz) != 1:
                return None
            j = nz[0]
            v = self.A[i, j]
            if abs(abs(v) - 1.0) > 1e-6:
                return None
            perm[i] = j
            signs[i] = v
        if len(set(perm.tolist())) != n:
            return None
        return perm, signs

    def apply_boxes(self, lo: np.ndarray, hi: np.ndarray):
        """Images of axis-aligned boxes, for signed-permutation linear parts.

        lo/hi have shape (N, n); returns the transformed (lo, hi).
        """
        act = self.axis_action()
        if act is None:
            raise GeometryError("map does not preserve axis-aligned boxes")
        perm, signs = act
        a, c = lo[:, perm], hi[:, perm]   # new arrays, updated in place
        a *= signs
        c *= signs
        new_lo = np.minimum(a, c)
        new_lo += self.b
        np.maximum(a, c, out=a)
        a += self.b
        return new_lo, a


# ---------------------------------------------------------------------------
# grids and cell sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Uniform cell grid; ``wrap[i]`` > 0 marks dimension i as periodic with
    that period (an exact multiple of the cell width, e.g. a heading angle
    with period 2*pi), and cells of wrapped dimensions are canonicalized."""

    origin: np.ndarray
    cell_width: np.ndarray
    wrap: Optional[np.ndarray] = None

    def __post_init__(self):
        o = np.atleast_1d(np.asarray(self.origin, dtype=float))
        w = np.atleast_1d(np.asarray(self.cell_width, dtype=float))
        if np.any(w <= 0):
            raise GeometryError("cell widths must be positive")
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "cell_width", w)
        if self.wrap is not None:
            wr = np.atleast_1d(np.asarray(self.wrap, dtype=float))
            if wr.shape != o.shape:
                raise GeometryError("wrap period vector length mismatch")
            counts = wr / w
            for i in range(len(wr)):
                if wr[i] > 0 and abs(counts[i] - round(counts[i])) > 1e-9:
                    raise GeometryError("wrap period must be a multiple of "
                                        "the cell width")
            object.__setattr__(self, "wrap", wr)

    @property
    def dim(self) -> int:
        return self.origin.shape[0]

    def _wrap_counts(self) -> Optional[np.ndarray]:
        if self.wrap is None:
            return None
        counts = np.zeros(self.dim, dtype=np.int64)
        for i in range(self.dim):
            if self.wrap[i] > 0:
                counts[i] = int(round(self.wrap[i] / self.cell_width[i]))
        return counts

    def canonicalize(self, cells: np.ndarray) -> np.ndarray:
        """Map cell indices of wrapped dimensions into the canonical window
        centered on the origin cell (e.g. [-16, 16) for a 32-cell period)."""
        counts = self._wrap_counts()
        if counts is None or cells.size == 0:
            return cells
        out = cells.copy()
        for i in range(self.dim):
            m = counts[i]
            if m > 0:
                half = m // 2
                out[:, i] = ((out[:, i] + half) % m) - half
        return out

    def cell_volume(self) -> float:
        return float(np.prod(self.cell_width))

    def cell_centers(self, cells: np.ndarray) -> np.ndarray:
        return self.origin + (cells.astype(float) + 0.5) * self.cell_width

    def cell_bounds(self, cells: np.ndarray):
        lo = self.origin + cells.astype(float) * self.cell_width
        return lo, lo + self.cell_width

    def _index_boxes(self, lo: np.ndarray, hi: np.ndarray):
        """Inclusive integer index ranges (ilo, ihi) of the cells each box
        overlaps with positive measure (see ``boxes_to_cells``)."""
        lo = np.atleast_2d(np.asarray(lo, dtype=float))
        hi = np.atleast_2d(np.asarray(hi, dtype=float))
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise UnboundedRegion("cannot grid an unbounded box")
        degen = (hi - lo) <= 2 * OCC_TOL
        lo_eff = lo + OCC_TOL
        hi_eff = hi - OCC_TOL
        if degen.any():
            mid = (lo + hi) / 2.0
            np.copyto(lo_eff, mid, where=degen)
            np.copyto(hi_eff, mid, where=degen)
        for t in (lo_eff, hi_eff):      # floor((t - origin) / width), in place
            t -= self.origin
            t /= self.cell_width
            np.floor(t, out=t)
        return lo_eff.astype(np.int64), hi_eff.astype(np.int64)

    def boxes_to_cells(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Grid cells with positive-measure overlap with any of the boxes.

        Cells are half-open [origin + c*w, origin + (c+1)*w); boxes are
        shrunk by OCC_TOL per side so that boundary-aligned boxes occupy
        exactly their own cells.  Degenerate dimensions fall back to the
        half-open cell containing the midpoint.  Returns unique int cells,
        shape (M, n), lexicographically sorted, wrapped dimensions
        canonicalized.

        An index box equal to the one before it is dropped first: a tube
        lists each trajectory's samples in order, so most of its boxes
        repeat their predecessor.
        """
        if np.size(lo) == 0:
            return np.zeros((0, self.dim), dtype=np.int64)
        ilo, ihi = self._index_boxes(lo, hi)
        new = _changed(ilo, ihi)
        ilo, ihi = ilo[new], ihi[new]
        if ilo.shape[0] > 4096:
            # converged tubes repeat the same integer box thousands of times
            pl0, ph0 = _pack(ilo), _pack(ihi)
            order = np.lexsort((ph0, pl0))
            pl, ph = pl0[order], ph0[order]
            keep = np.ones(len(order), dtype=bool)
            keep[1:] = (pl[1:] != pl[:-1]) | (ph[1:] != ph[:-1])
            ilo = ilo[order][keep]
            ihi = ihi[order][keep]
        cells = self.canonicalize(_range_cells(ilo, ihi)[1])
        return _unpack(np.unique(_pack(cells)), self.dim)

    def box_cells(self, lo: np.ndarray, hi: np.ndarray):
        """The cells ``boxes_to_cells`` finds for each box, with the index of
        that box: (owner, cells).  Indices are not canonicalized, so they
        keep their geometric position for sweeps that still intersect."""
        return _range_cells(*self._index_boxes(lo, hi))

    def owner_keys(self, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray):
        """``boxes_to_cells`` of each owner's boxes, as the packed keys of
        the cells: sorted (owner, key) pairs, none repeated (see
        ``owner_pairs``).  ``owner`` labels each box; an index box equal
        to the one before it with the same owner is dropped first."""
        ilo, ihi = self._index_boxes(lo, hi)
        new = _changed(ilo, ihi, owner)
        which, cells = _range_cells(ilo[new], ihi[new])
        return owner_pairs(owner[new][which],
                           cell_keys(self.canonicalize(cells)))


def _changed(ilo: np.ndarray, ihi: np.ndarray,
             owner: Optional[np.ndarray] = None) -> np.ndarray:
    """Mask of the index boxes that differ from the box before them, or
    whose ``owner`` does; the first box is always kept."""
    diff = ilo[1:] != ilo[:-1]
    diff |= ihi[1:] != ihi[:-1]
    new = np.zeros(ilo.shape[0], dtype=bool)
    new[0] = True
    if owner is not None:
        new[1:] = owner[1:] != owner[:-1]
    for col in diff.T:              # column by column: faster than any()
        new[1:] |= col
    return new


def owner_pairs(owner: np.ndarray, keys: np.ndarray):
    """The distinct (owner, key) pairs, sorted by owner and then by key."""
    order = np.lexsort((keys, owner))
    owner, keys = owner[order], keys[order]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = (owner[1:] != owner[:-1]) | (keys[1:] != keys[:-1])
    return owner[keep], keys[keep]


def _range_cells(ilo: np.ndarray, ihi: np.ndarray):
    """Every integer cell of the index boxes [ilo[k], ihi[k]] (inclusive),
    box after box, each box in row-major order: (owner, cells), where
    owner[i] is the box of cells[i]."""
    size = ihi - ilo + 1
    count = np.prod(size, axis=1)
    owner = np.repeat(np.arange(len(count)), count)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    cells = np.empty((len(owner), ilo.shape[1]), dtype=np.int64)
    for d in range(ilo.shape[1] - 1, -1, -1):
        s = size[owner, d]
        cells[:, d] = ilo[owner, d] + rank % s
        rank //= s
    return owner, cells


# integer cells are bit-packed into one int64 (21 bits per dimension) so
# uniqueness and the set algebra run on fast 1-d sorted arrays
_PACK_OFF = np.int64(1) << 20
_PACK_M = np.int64(1) << 21


def _pack(cells: np.ndarray) -> np.ndarray:
    cells = np.asarray(cells, dtype=np.int64)
    if cells.size and np.any(np.abs(cells) >= _PACK_OFF):
        raise GeometryError("cell index exceeds the packable range")
    out = cells[:, 0] + _PACK_OFF
    for d in range(1, cells.shape[1]):
        out = out * _PACK_M + (cells[:, d] + _PACK_OFF)
    return out


def cell_keys(cells: np.ndarray) -> np.ndarray:
    """The packed key of each integer cell, as ``CellSet.keys`` holds it."""
    return _pack(cells)


def _unpack(keys: np.ndarray, dim: int) -> np.ndarray:
    out = np.empty((keys.shape[0], dim), dtype=np.int64)
    rest = keys.copy()
    for d in range(dim - 1, 0, -1):
        out[:, d] = rest % _PACK_M - _PACK_OFF
        rest //= _PACK_M
    out[:, 0] = rest - _PACK_OFF
    return out


class CellSet:
    """Exact set of integer grid cells; supports union/containment/volume.

    Internally a sorted array of packed int64 keys (lexicographic cell
    order); construction deduplicates.
    """

    __slots__ = ("keys", "_dim", "_cells")

    def __init__(self, cells: Optional[np.ndarray] = None,
                 dim: Optional[int] = None, _keys: Optional[np.ndarray] = None):
        if _keys is not None:
            self.keys = _keys
            self._dim = dim
            self._cells = None
            return
        if cells is None or len(cells) == 0:
            if dim is None:
                raise GeometryError("empty CellSet needs an explicit dimension")
            self.keys = np.zeros(0, dtype=np.int64)
            self._dim = dim
        else:
            cells = np.asarray(cells, dtype=np.int64)
            self.keys = np.unique(_pack(cells))
            self._dim = cells.shape[1]
        self._cells = None

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def cells(self) -> np.ndarray:
        if self._cells is None:
            self._cells = _unpack(self.keys, self._dim)
        return self._cells

    def __len__(self) -> int:
        return self.keys.shape[0]

    def union(self, other: "CellSet") -> "CellSet":
        if len(self) == 0:
            return other
        if len(other) == 0:
            return self
        return CellSet(dim=self._dim,
                       _keys=np.union1d(self.keys, other.keys))

    def issubset(self, other: "CellSet") -> bool:
        if len(self) == 0:
            return True
        if len(other) < len(self):
            return False
        return bool(np.isin(self.keys, other.keys, assume_unique=True).all())

    def volume(self, grid: Grid) -> float:
        return len(self) * grid.cell_volume()

    def boxes(self, grid: Grid):
        return grid.cell_bounds(self.cells)

    def bounding_box(self, grid: Grid) -> HyperRect:
        if len(self) == 0:
            raise GeometryError("bounding box of empty cell set")
        lo, hi = self.boxes(grid)
        return HyperRect(lo.min(axis=0), hi.max(axis=0))


def occupied_cells(r: Region, g: Grid) -> CellSet:
    """Cells of ``g`` with positive-measure overlap with region ``r``.

    Box members use interval arithmetic; other polytopes are swept over
    their bounding box, and all candidate cells of a member are decided by
    one batched exact Fourier-Motzkin test (see ``polytope_cells``).
    """
    if r.dim != g.dim:
        raise GeometryError("region/grid dimension mismatch")
    if r.is_empty:
        return CellSet(dim=g.dim)
    return CellSet(np.vstack([polytope_cells(p.A, p.b[None, :], g)[1]
                              for p in r.polys]), dim=g.dim)


def polytope_cells(A: np.ndarray, B: np.ndarray, g: Grid):
    """Cells of ``g`` with positive-measure overlap with each of the
    polytopes {x : A x <= B[k]} that share ``A``: (owner, cells), where
    owner[i] is the k of cells[i]; canonicalized, rows may repeat.
    Raises UnboundedRegion if a polytope is unbounded in some dimension.

    Boxes are gridded by interval arithmetic.  Otherwise each polytope's
    candidates are the cells of its bounding box, and every (polytope,
    candidate) pair is decided at once by ``fm_feasible_batch`` against the
    cell shrunk by OCC_TOL per side.
    """
    boxes = _as_boxes(A, B)
    if boxes is not None:
        lo, hi = boxes
        nonempty = np.flatnonzero(~(lo > hi).any(axis=1))
        owner, cells = g.box_cells(lo[nonempty], hi[nonempty])
        return nonempty[owner], g.canonicalize(cells)
    lo, hi = fm_bounding_boxes(A, B)
    owner, cand = g.box_cells(lo, hi)
    clo, chi = g.cell_bounds(cand)
    keep = fm_feasible_batch(*stack_boxes(A, B[owner], clo + OCC_TOL,
                                          chi - OCC_TOL))
    return owner[keep], g.canonicalize(cand[keep])

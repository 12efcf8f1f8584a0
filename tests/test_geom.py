"""Set algebra: affine transforms, gridding, Fourier-Motzkin feasibility."""

import numpy as np
import pytest

from symreach import geom
from symreach.geom import (GEOM_TOL, OCC_TOL, AffineMap, CellSet,
                           ConvexPolytope, Grid, HyperRect, Region,
                           SingularMap, UnboundedRegion, box,
                           fm_bounding_boxes, fm_feasible, fm_feasible_batch,
                           occupied_cells, stack_boxes, transform_region)


def unit_grid(n=2):
    return Grid(np.zeros(n), np.ones(n))


def rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestTransformRegion:
    def test_identity(self):
        r = Region.from_boxes([box([1.0, 2.0], [2.0, 3.0])])
        out = transform_region(r, AffineMap.identity(2))
        bx = out.polys[0].as_box()
        assert np.allclose(bx.lo, [0.0, 0.5])
        assert np.allclose(bx.hi, [2.0, 3.5])

    def test_translation_centers_guard_box(self):
        # translating by the waypoint sends B(w2, eps1) to B(0, eps1)
        w2 = np.array([0.6, 3.6])
        r = Region.from_boxes([box(w2, [0.6, 1.0])])
        out = transform_region(r, AffineMap.translation(-w2))
        bx = out.polys[0].as_box()
        assert np.allclose(bx.lo, [-0.3, -0.5])
        assert np.allclose(bx.hi, [0.3, 0.5])

    def test_quarter_turn_preserves_unit_square(self):
        sq = Region.from_boxes([box([0.0, 0.0], [2.0, 2.0])])
        m = AffineMap(rot(np.pi / 2), np.zeros(2))
        out = transform_region(sq, m)
        bx = out.polys[0].as_box()
        assert bx is not None
        assert np.allclose(bx.lo, [-1, -1], atol=1e-12)
        assert np.allclose(bx.hi, [1, 1], atol=1e-12)

    def test_singular_map_rejected(self):
        r = Region.from_boxes([box([0, 0], [1, 1])])
        with pytest.raises(SingularMap):
            transform_region(r, AffineMap(np.zeros((2, 2)), np.zeros(2)))

    def test_round_trip_random_affine(self):
        # image followed by preimage recovers the set up to 1e-7
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = rng.normal(size=(2, 2))
            while abs(np.linalg.det(A)) < 0.3:
                A = rng.normal(size=(2, 2))
            m = AffineMap(A, rng.normal(size=2))
            r = Region.from_boxes([box(rng.normal(size=2), [1.0, 1.5])])
            back = transform_region(transform_region(r, m), m.inverse())
            # compare H-representations on sampled points of the original
            pts = rng.uniform(-0.5, 0.5, size=(64, 2)) * [1.0, 1.5] \
                + r.polys[0].bounding_box().center
            for p in pts:
                assert back.contains_point(p, tol=1e-7) == \
                    r.contains_point(p, tol=1e-7)

    def test_volume_preserved_by_rigid_maps(self):
        r = Region.from_boxes([box([2.0, -1.0], [1.0, 1.4])])
        m = AffineMap(rot(np.pi / 2), np.array([3.0, 4.0]))
        out = transform_region(r, m)
        vol = np.prod(out.polys[0].as_box().widths)
        assert abs(vol - 1.4) < 1e-6 * 1.4


class TestOccupiedCells:
    def test_point_like_box_single_cell(self):
        g = unit_grid()
        r = Region.from_boxes([box([0.5, 0.5], [0.0, 0.0])])
        cs = occupied_cells(r, g)
        assert cs.cells.tolist() == [[0, 0]]

    def test_interval_covers_three_cells(self):
        g = unit_grid()
        r = Region.from_boxes([HyperRect(np.array([0.0, 0.0]),
                                         np.array([2.5, 0.5]))])
        cs = occupied_cells(r, g)
        assert cs.cells.tolist() == [[0, 0], [1, 0], [2, 0]]

    def test_rotated_square_four_cells(self):
        # diamond of diagonal 2 centered at a grid vertex
        sq = ConvexPolytope(np.array([[1.0, 1], [1, -1], [-1, 1], [-1, -1]]),
                            np.ones(4))
        got = occupied_cells(Region((sq,), 2), unit_grid())
        # oracle: brute-force point sampling inside the diamond
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, size=(20000, 2))
        pts = pts[np.abs(pts).sum(axis=1) < 0.999]
        want = sorted({(int(np.floor(x)), int(np.floor(y))) for x, y in pts})
        assert sorted(map(tuple, got.cells.tolist())) == want
        assert len(got) == 4

    def test_monotone_in_nested_boxes(self):
        g = unit_grid()
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = rng.uniform(-3, 3, size=2)
            w_in = rng.uniform(0.2, 2.0, size=2)
            w_out = w_in + rng.uniform(0.0, 2.0, size=2)
            inner = occupied_cells(Region.from_boxes([box(c, w_in)]), g)
            outer = occupied_cells(Region.from_boxes([box(c, w_out)]), g)
            assert inner.issubset(outer)

    def test_unbounded_region_raises(self):
        g = unit_grid()
        r = Region.from_boxes([HyperRect(np.array([0.0, -np.inf]),
                                         np.array([1.0, np.inf]))])
        with pytest.raises(UnboundedRegion):
            occupied_cells(r, g)

    def test_wrapped_dimension_canonicalizes(self):
        g = Grid(np.zeros(1), np.array([np.pi / 16]),
                 wrap=np.array([2 * np.pi]))
        r = Region.from_boxes([box([np.pi + 0.1], [0.05])])
        cs = occupied_cells(r, g)
        assert all(-16 <= c < 16 for (c,) in cs.cells.tolist())


class TestCellSets:
    def test_contains_trivials(self):
        empty = CellSet(dim=2)
        a = CellSet(np.array([[0, 0]]))
        ab = CellSet(np.array([[0, 0], [1, 0]]))
        c = CellSet(np.array([[2, 2]]))
        assert empty.issubset(ab)
        assert a.issubset(ab)
        assert not c.issubset(a)

    def test_set_algebra(self):
        a = CellSet(np.array([[0, 0], [1, 1], [2, 2]]))
        b = CellSet(np.array([[1, 1], [3, 3]]))
        assert len(a.union(b)) == 4


class TestFeasibility:
    def test_random_boxes_against_sampling(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            lo1, lo2 = rng.uniform(-2, 2, size=(2, 2))
            w1, w2 = rng.uniform(0.5, 2.0, size=(2, 2))
            p = HyperRect(lo1, lo1 + w1).to_polytope()
            q = HyperRect(lo2, lo2 + w2).to_polytope()
            stacked_A = np.vstack([p.A, q.A])
            stacked_b = np.concatenate([p.b, q.b])
            want = bool(np.all(np.maximum(lo1, lo2)
                               <= np.minimum(lo1 + w1, lo2 + w2)))
            assert fm_feasible(stacked_A, stacked_b) == want

    def test_empty_diamond_intersection(self):
        sq = ConvexPolytope(np.array([[1.0, 1], [1, -1], [-1, 1], [-1, -1]]),
                            np.ones(4))
        far = HyperRect(np.array([5.0, 5.0]), np.array([6.0, 6.0])).to_polytope()
        assert not fm_feasible(np.vstack([sq.A, far.A]),
                               np.concatenate([sq.b, far.b]))

    def test_three_dim_slab(self):
        A = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
        b = np.array([1.0, -2.0])  # x+y+z <= 1 and >= 2: empty
        assert not fm_feasible(A, b)
        b2 = np.array([2.0, -1.0])
        assert fm_feasible(A, b2)


# ---------------------------------------------------------------------------
# the one-system Fourier-Motzkin routines as first written, kept verbatim as
# the oracle for the batched ones
# ---------------------------------------------------------------------------

def _interval_prefilter(A, b, tol):
    """Cheap box propagation on single-variable rows; returns False if
    an axis interval is already empty, True if inconclusive."""
    n = A.shape[1]
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    for row, rhs in zip(A, b):
        nz = np.flatnonzero(np.abs(row) > tol)
        if len(nz) == 1:
            j = nz[0]
            if row[j] > 0:
                hi[j] = min(hi[j], rhs / row[j])
            else:
                lo[j] = max(lo[j], rhs / row[j])
        elif len(nz) == 0 and rhs < -tol:
            return False
    return bool(np.all(lo <= hi + tol))


def oracle_fm_feasible(A: np.ndarray, b: np.ndarray, tol: float = GEOM_TOL) -> bool:
    """Decide whether {x : A x <= b} is nonempty by variable elimination."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if A.shape[0] == 0:
        return True
    if not _interval_prefilter(A, b, tol):
        return False
    # normalize row scales for numerical stability
    scale = np.maximum(np.max(np.abs(A), axis=1), np.abs(b))
    scale[scale < tol] = 1.0
    A = A / scale[:, None]
    b = b / scale
    n = A.shape[1]
    for _ in range(n):
        # eliminate the column with the fewest pos*neg products
        counts = []
        for j in range(A.shape[1]):
            pos = np.sum(A[:, j] > tol)
            neg = np.sum(A[:, j] < -tol)
            counts.append(pos * neg + (pos + neg))
        j = int(np.argmin(counts))
        pos = A[:, j] > tol
        neg = A[:, j] < -tol
        zero = ~pos & ~neg
        new_A = [np.delete(A[zero], j, axis=1)]
        new_b = [b[zero]]
        if pos.any() and neg.any():
            Ap, bp = A[pos], b[pos]
            An, bn = A[neg], b[neg]
            cp = Ap[:, j][:, None]
            cn = -An[:, j][:, None]
            # (1/cp) row_p + (1/cn) row_n  for every pair
            comb_A = (Ap / cp)[:, None, :] + (An / cn)[None, :, :]
            comb_b = (bp / cp[:, 0])[:, None] + (bn / cn[:, 0])[None, :]
            comb_A = np.delete(comb_A.reshape(-1, A.shape[1]), j, axis=1)
            new_A.append(comb_A)
            new_b.append(comb_b.reshape(-1))
        A = np.vstack(new_A)
        b = np.concatenate(new_b)
        if A.shape[0] == 0:
            return True
        if A.shape[1] == 0:
            break
        # drop all-zero rows, checking their rhs
        zero_rows = np.all(np.abs(A) <= tol, axis=1)
        if np.any(b[zero_rows] < -tol):
            return False
        A = A[~zero_rows]
        b = b[~zero_rows]
        if A.shape[0] == 0:
            return True
    return bool(np.all(b >= -tol))


def oracle_fm_axis_bounds(A: np.ndarray, b: np.ndarray, axis: int, tol: float = GEOM_TOL):
    """[min, max] of coordinate ``axis`` over {A x <= b} by eliminating the rest."""
    A = np.atleast_2d(np.asarray(A, dtype=float)).copy()
    b = np.atleast_1d(np.asarray(b, dtype=float)).copy()
    n = A.shape[1]
    order = [j for j in range(n) if j != axis]
    col = axis
    for j in sorted(order, reverse=True):
        pos = A[:, j] > tol
        neg = A[:, j] < -tol
        zero = ~pos & ~neg
        parts_A = [A[zero]]
        parts_b = [b[zero]]
        if pos.any() and neg.any():
            Ap, bp = A[pos], b[pos]
            An, bn = A[neg], b[neg]
            cp = Ap[:, j][:, None]
            cn = -An[:, j][:, None]
            comb_A = (Ap / cp)[:, None, :] + (An / cn)[None, :, :]
            comb_b = (bp / cp[:, 0])[:, None] + (bn / cn[:, 0])[None, :]
            parts_A.append(comb_A.reshape(-1, A.shape[1]))
            parts_b.append(comb_b.reshape(-1))
        A = np.vstack(parts_A)
        b = np.concatenate(parts_b)
        A = np.delete(A, j, axis=1)
        if j < col:
            col -= 1
    lo, hi = -np.inf, np.inf
    for row, rhs in zip(A, b):
        c = row[col] if A.shape[1] else 0.0
        if c > tol:
            hi = min(hi, rhs / c)
        elif c < -tol:
            lo = max(lo, rhs / c)
    return lo, hi


def assert_matches_oracle(A, B, tol=GEOM_TOL):
    """The batch, each one-system call and the oracle agree on every system;
    returns the decisions."""
    got = fm_feasible_batch(A, B, tol)
    want = [oracle_fm_feasible(A, b, tol) for b in B]
    assert got.dtype == bool and got.shape == (len(B),)
    assert got.tolist() == want
    assert [fm_feasible(A, b, tol) for b in B] == want
    return got


def rotated_prism(rng, heading):
    """A random rectangle rotated in the plane, times a heading interval
    (heading=True) or a free heading (no third-coordinate rows)."""
    theta = rng.uniform(0, 2 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])
    half = rng.uniform(0.05, 0.5, size=2)
    center = rng.uniform(-1.0, 1.0, size=2)
    A2 = np.vstack([R.T, -R.T])
    b2 = np.concatenate([half, half]) + A2 @ center
    A = np.hstack([A2, np.zeros((4, 1))])
    b = b2
    if heading:
        h0 = rng.uniform(-1.0, 1.0)
        A = np.vstack([A, [[0, 0, 1.0], [0, 0, -1.0]]])
        b = np.concatenate([b, [h0 + rng.uniform(0.05, 0.6), -h0]])
    return A, b


class TestBatchedFeasibility:
    g = Grid(np.zeros(3), np.array([0.2, 0.2, np.pi / 16]))

    def candidate_systems(self, A, b, margin=1):
        # every cell of the padded bounding box, shrunk by OCC_TOL per side
        lo, hi = fm_bounding_boxes(A, b[None, :])
        lo = np.where(np.isfinite(lo), lo, -0.3)[0]
        hi = np.where(np.isfinite(hi), hi, 0.3)[0]
        w = self.g.cell_width
        cells = self.g.boxes_to_cells((lo - margin * w)[None], (hi + margin * w)[None])
        clo, chi = self.g.cell_bounds(cells)
        return stack_boxes(A, b, clo + OCC_TOL, chi - OCC_TOL)

    @pytest.mark.parametrize("heading", [True, False])
    def test_rotated_prisms_against_cells(self, heading):
        rng = np.random.default_rng(7 if heading else 8)
        for _ in range(12):
            A, b = rotated_prism(rng, heading)
            got = assert_matches_oracle(*self.candidate_systems(A, b))
            assert got.any() and not got.all()

    def test_bounding_boxes_match_oracle(self):
        rng = np.random.default_rng(9)
        for heading in (True, False):
            for _ in range(6):
                A, b = rotated_prism(rng, heading)
                B = b[None, :] + rng.uniform(-0.2, 0.2, size=(5, len(b)))
                lo, hi = fm_bounding_boxes(A, B)
                for k in range(len(B)):
                    for j in range(3):
                        assert (lo[k, j], hi[k, j]) == \
                            oracle_fm_axis_bounds(A, B[k], j)

    @pytest.mark.parametrize("offset", [-GEOM_TOL, -OCC_TOL, 0.0, OCC_TOL,
                                        GEOM_TOL, 2 * GEOM_TOL])
    def test_cells_touching_at_tolerance_offsets(self, offset):
        # a diamond whose right vertex lies on the cell boundary x = 1, moved
        # by the offset; cells of the unit grid, shrunk by OCC_TOL or not
        A = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        b = np.array([1.0, 1.0, 1.0, 1.0]) + np.array([1, 1, -1, -1]) * offset
        cells = np.array([[i, j] for i in range(-2, 2) for j in range(-2, 2)])
        lo, hi = cells.astype(float), cells + 1.0
        for shrink in (0.0, OCC_TOL, GEOM_TOL):
            for tol in (GEOM_TOL, OCC_TOL):
                assert_matches_oracle(*stack_boxes(A, b, lo + shrink,
                                                   hi - shrink), tol=tol)

    def test_mixed_sign_patterns_split_the_batch(self, monkeypatch):
        # row scaling by max(|A_row|, |b_row|) sends the 1e-3 entry below
        # tol only where |b| is large, so the systems disagree on its sign
        A = np.array([[1.0, 1e-3], [-1.0, 1.0], [0.0, -1.0], [-1.0, -1.0]])
        rng = np.random.default_rng(4)
        B = np.vstack([rng.uniform(-2, 2, size=(30, 4)),
                       rng.uniform(-2, 2, size=(30, 4)) * [1e6, 1, 1, 1]])
        calls = []
        real = geom._fm_eliminate

        def counting(*args, **kw):
            calls.append(len(args[1]))
            return real(*args, **kw)

        monkeypatch.setattr(geom, "_fm_eliminate", counting)
        fm_feasible_batch(A, B)
        assert len(calls) > 2          # split into parts, each went on alone
        got = assert_matches_oracle(A, B)
        assert got[:30].any() and got[30:].any() and not got.all()

    def test_empty_batch(self):
        A = np.array([[1.0, 0.0], [-1.0, 1.0]])
        got = fm_feasible_batch(A, np.zeros((0, 2)))
        assert got.shape == (0,) and got.dtype == bool

    def test_row_zero_in_every_system(self):
        A = np.array([[1.0, 1.0], [0.0, 0.0], [-1.0, 0.5], [0.0, -1.0]])
        B = np.array([[1.0, 0.0, 1.0, 0.0], [1.0, -1.0, 1.0, 0.0],
                      [1.0, -0.5 * GEOM_TOL, 1.0, 0.0],
                      [1.0, -2 * GEOM_TOL, 1.0, 0.0], [-5.0, 1.0, 1.0, 0.0]])
        got = assert_matches_oracle(A, B)
        assert got.tolist() == [True, False, True, False, False]

    def test_every_system_infeasible(self):
        sq = ConvexPolytope(np.array([[1.0, 1], [1, -1], [-1, 1], [-1, -1]]),
                            np.ones(4))
        lo = np.array([[5.0, 5.0], [-7.0, 0.0], [0.9, 0.9], [1.5, -0.2]])
        got = assert_matches_oracle(*stack_boxes(sq.A, sq.b, lo, lo + 0.5))
        assert not got.any()
        A = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
        B = np.array([[1.0, -2.0], [0.0, -0.5], [-1.0, 0.5]])
        assert not assert_matches_oracle(A, B).any()


# ---------------------------------------------------------------------------
# bit-identity of gridding against the sort-everything version, kept
# verbatim (as functions of the grid) as the oracle
# ---------------------------------------------------------------------------

def _old_index_boxes(self, lo, hi):
    lo = np.atleast_2d(np.asarray(lo, dtype=float))
    hi = np.atleast_2d(np.asarray(hi, dtype=float))
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise UnboundedRegion("cannot grid an unbounded box")
    w = self.cell_width
    o = self.origin
    degen = (hi - lo) <= 2 * OCC_TOL
    lo_eff = np.where(degen, (lo + hi) / 2.0, lo + OCC_TOL)
    hi_eff = np.where(degen, (lo + hi) / 2.0, hi - OCC_TOL)
    ilo = np.floor((lo_eff - o) / w).astype(np.int64)
    ihi = np.floor((hi_eff - o) / w).astype(np.int64)
    return ilo, ihi


def _old_boxes_to_cells(self, lo, hi):
    from symreach.geom import _pack, _range_cells, _unpack
    if np.size(lo) == 0:
        return np.zeros((0, self.dim), dtype=np.int64)
    ilo, ihi = _old_index_boxes(self, lo, hi)
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


def wrapped_grid():
    return Grid(np.zeros(3), np.array([0.25, 0.25, np.pi / 16]),
                wrap=np.array([0.0, 0.0, 2 * np.pi]))


def tube_boxes(rows, T, seed):
    """Cell-sized boxes at the samples of robot trajectories, listed
    trajectory after trajectory, sample after sample."""
    from symreach.dynamics import Dynamics, DynamicsId, simulate_batch
    rng = np.random.default_rng(seed)
    X0 = rng.uniform(-1.0, 1.0, size=(rows, 3))
    traj = simulate_batch(Dynamics(DynamicsId.ROBOT), X0,
                          np.array([4.0, 3.0]), T, 0.01)
    half = wrapped_grid().cell_width / 2.0
    flat = traj.reshape(-1, 3)
    return flat - half, flat + half


class TestGriddingMatchesOracle:
    def check(self, g, lo, hi):
        new = g.boxes_to_cells(lo, hi)
        old = _old_boxes_to_cells(g, lo, hi)
        assert new.dtype == old.dtype and new.shape == old.shape
        assert np.array_equal(new, old)
        for a, b in zip(g._index_boxes(lo, hi), _old_index_boxes(g, lo, hi)):
            assert np.array_equal(a, b)
        return new

    @pytest.mark.parametrize("rows,T", [(1, 0.5), (3, 1.0), (24, 2.0)])
    def test_trajectory_order_and_shuffled(self, rows, T):
        g = wrapped_grid()
        lo, hi = tube_boxes(rows, T, seed=rows)
        got = self.check(g, lo, hi)
        perm = np.random.default_rng(1).permutation(len(lo))
        assert np.array_equal(self.check(g, lo[perm], hi[perm]), got)
        assert np.array_equal(self.check(g, lo[::-1], hi[::-1]), got)

    def test_repeat_runs_cross_the_sort_threshold(self):
        g = wrapped_grid()
        rng = np.random.default_rng(2)
        lo = rng.uniform(-3.0, 3.0, size=(90, 3))
        hi = lo + rng.uniform(0.0, 0.6, size=(90, 3))
        for runs in ([46] * 90, rng.integers(1, 120, size=90)):
            rlo, rhi = np.repeat(lo, runs, axis=0), np.repeat(hi, runs, axis=0)
            assert len(rlo) > 4096
            self.check(g, rlo, rhi)
        # more than 4,096 distinct index boxes left after the drop
        blo = rng.uniform(-30.0, 30.0, size=(5000, 3))
        bhi = blo + 0.3
        keep = np.repeat(np.arange(5000), rng.integers(1, 3, size=5000))
        self.check(g, blo[keep], bhi[keep])
        # exactly at the threshold, with and without one repeat
        self.check(g, blo[:4096], bhi[:4096])
        self.check(g, np.vstack([blo[:4096], blo[4095:4096]]),
                   np.vstack([bhi[:4096], bhi[4095:4096]]))

    def test_repeats_are_dropped_before_the_sort(self, monkeypatch):
        # index boxes equal to their predecessor never reach the cell
        # enumeration; above 4,096 boxes the sort drops the other repeats
        g = wrapped_grid()
        seen = []
        range_cells = geom._range_cells
        monkeypatch.setattr(geom, "_range_cells", lambda a, b: (
            seen.append(len(a)), range_cells(a, b))[1])
        lo, hi = tube_boxes(24, 2.0, seed=5)
        ilo, ihi = g._index_boxes(lo, hi)
        step = np.any((ilo[1:] != ilo[:-1]) | (ihi[1:] != ihi[:-1]), axis=1)
        assert len(lo) > 4096 and 1 + step.sum() < len(lo) // 4
        g.boxes_to_cells(lo, hi)
        assert seen == [1 + step.sum()]
        blo = np.random.default_rng(6).uniform(-30.0, 30.0, size=(5000, 3))
        g.boxes_to_cells(np.vstack([blo, blo]), np.vstack([blo, blo]) + 0.3)
        ilo, ihi = g._index_boxes(blo, blo + 0.3)
        assert seen[1] == len(np.unique(np.hstack([ilo, ihi]), axis=0))

    def test_degenerate_boxes(self):
        g = wrapped_grid()
        rng = np.random.default_rng(3)
        lo = rng.uniform(-2.0, 2.0, size=(600, 3))
        hi = lo + rng.uniform(0.0, 0.5, size=(600, 3))
        flat = rng.random((600, 3)) < 0.3
        hi[flat] = lo[flat] + rng.choice([0.0, OCC_TOL, 2 * OCC_TOL], flat.sum())
        self.check(g, lo, hi)
        self.check(g, lo, lo)                    # every box a point
        self.check(g, lo[0], hi[0])              # one box given as 1-d
        self.check(g, np.repeat(lo, 10, axis=0), np.repeat(lo, 10, axis=0))

    def test_boundary_aligned_and_empty(self):
        g = unit_grid()
        lo = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        hi = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 1.0], [1.0, 1.0]])
        assert self.check(g, lo, hi).tolist() == [[0, 0], [1, 0]]
        assert self.check(g, lo[:0], hi[:0]).shape == (0, 2)

    def test_unbounded_box_still_raises(self):
        g = unit_grid()
        with pytest.raises(UnboundedRegion):
            g.boxes_to_cells(np.array([[0.0, -np.inf]]), np.array([[1.0, 1.0]]))
        with pytest.raises(UnboundedRegion):
            g.boxes_to_cells(np.array([[0.0, 0.0]]), np.array([[np.nan, 1.0]]))

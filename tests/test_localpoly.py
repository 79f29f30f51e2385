import gc
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import former_paths
import smoothbandit
from smoothbandit import localpoly
from smoothbandit.environments import make_smooth_instance
from smoothbandit.geometry import GridLattice, build_lattice
from smoothbandit.localpoly import (
    default_eig_tol,
    enumerate_basis,
    fit_at_centers,
    gram_matrix,
    local_poly_estimate,
    min_eigenvalue,
    scaled_design,
)
from smoothbandit.policy import PolicyConfig, run_two_arm


def brute_force_estimate(x, points, rewards, h, basis):
    """Independent oracle: least squares on the raw (unscaled) design.

    Fits sum_r a_r (p - x)^r over samples with ||p - x|| <= h via lstsq and
    evaluates at the query, where only the constant term survives.
    """
    x = np.asarray(x, dtype=float)
    diff = points - x[None, :]
    mask = np.einsum("ij,ij->i", diff, diff) <= h * h
    diff = diff[mask]
    design = np.stack(
        [np.prod(diff ** np.asarray(r, dtype=float), axis=1) for r in basis.indices], axis=1
    )
    coef, *_ = np.linalg.lstsq(design, rewards[mask], rcond=None)
    return coef[0]


class _BallIndex:
    """Fixed-radius neighbor queries; sorted-array fast path in one dimension."""

    def __init__(self, points: np.ndarray):
        self.points = np.atleast_2d(points)
        self.d = self.points.shape[1]
        if self.d == 1:
            self.order = np.argsort(self.points[:, 0], kind="stable")
            self.sorted = self.points[self.order, 0]
        else:
            self.tree = cKDTree(self.points) if len(self.points) else None

    def query_many(self, centers: np.ndarray, radius: float) -> list:
        centers = np.atleast_2d(centers)
        if len(self.points) == 0:
            return [np.empty(0, dtype=np.int64)] * len(centers)
        if self.d == 1:
            lo = np.searchsorted(self.sorted, centers[:, 0] - radius, side="left")
            hi = np.searchsorted(self.sorted, centers[:, 0] + radius, side="right")
            return [self.order[a:b] for a, b in zip(lo, hi)]
        return [np.asarray(ix, dtype=np.int64) for ix in self.tree.query_ball_point(centers, radius)]


def _fit_at_centers(centers, points, rewards, bandwidth, basis, eig_tol):
    """Local polynomial value at each center; zero when degenerate."""
    n = len(centers)
    values = np.zeros(n)
    degenerate = np.zeros(n, dtype=bool)
    min_eigs = np.full(n, np.nan)
    neighborhoods = _BallIndex(points).query_many(centers, bandwidth)
    for i, sel in enumerate(neighborhoods):
        U = scaled_design(centers[i], points[sel], bandwidth, basis)
        gram = U.T @ U
        lam = min_eigenvalue(gram)
        min_eigs[i] = lam
        if lam < eig_tol:
            degenerate[i] = True
            continue
        coef = np.linalg.solve(gram, U.T @ rewards[sel])
        values[i] = coef[0]
    return values, degenerate, min_eigs


class TestEnumerateBasis:
    def test_univariate(self):
        basis = enumerate_basis(1, 2)
        assert basis.indices == ((0,), (1,), (2,))
        assert basis.M == 3

    def test_bivariate_linear(self):
        basis = enumerate_basis(2, 1)
        assert basis.indices == ((0, 0), (1, 0), (0, 1))

    def test_counts_match_binomial(self):
        for d in (1, 2, 3):
            for l in (0, 1, 2, 3):
                basis = enumerate_basis(d, l)
                assert basis.M == math.comb(d + l, d)
                assert basis.indices[0] == tuple([0] * d)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            enumerate_basis(0, 1)
        with pytest.raises(ValueError):
            enumerate_basis(1, -1)

    def test_wrong_term_count_raises(self, monkeypatch):
        monkeypatch.setattr(localpoly, "_multi_indices", lambda d, degree: [(degree,) * d])
        with pytest.raises(RuntimeError, match="expected 6"):
            enumerate_basis(2, 2)


class TestGramMatrix:
    def test_empty_ball(self):
        basis = enumerate_basis(1, 1)
        g = gram_matrix(np.array([0.5]), np.array([[5.0]]), 0.1, basis)
        np.testing.assert_array_equal(g, np.zeros((2, 2)))

    def test_single_sample_at_query(self):
        basis = enumerate_basis(2, 1)
        g = gram_matrix(np.array([0.3, 0.3]), np.array([[0.3, 0.3]]), 0.1, basis)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0  # 0^0 = 1 convention
        np.testing.assert_allclose(g, expected)

    def test_two_symmetric_samples(self):
        # hand sum over u in {-1/2, +1/2}: sum u^(r1+r2)
        basis = enumerate_basis(1, 1)
        x = np.array([0.5])
        pts = np.array([[0.4], [0.6]])
        g = gram_matrix(x, pts, 0.2, basis)
        np.testing.assert_allclose(g, [[2.0, 0.0], [0.0, 0.5]], atol=1e-14)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        basis = enumerate_basis(2, 2)
        x = rng.random(2)
        pts = rng.random((40, 2))
        h = 0.4
        got = gram_matrix(x, pts, h, basis)
        expected = np.zeros((basis.M, basis.M))
        for i, r1 in enumerate(basis.indices):
            for j, r2 in enumerate(basis.indices):
                for p in pts:
                    if np.linalg.norm(p - x) <= h:
                        u = (p - x) / h
                        expected[i, j] += np.prod(u ** (np.array(r1) + np.array(r2)))
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert min_eigenvalue(np.diag([2.0, 0.5])) == pytest.approx(0.5)

    def test_rank_one(self):
        m = np.outer([1.0, 0.0], [1.0, 0.0])
        assert min_eigenvalue(m) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            min_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_matches_solver_on_random_symmetric(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 6):
            a = rng.standard_normal((n, n))
            sym = (a + a.T) / 2
            expected = np.linalg.eigvalsh(sym)[0]
            got = min_eigenvalue(sym)
            assert abs(got - expected) <= 1e-8 * (1 + np.abs(sym).max())

    def test_bounded_by_every_diagonal_entry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            basis = enumerate_basis(2, 2)
            pts = rng.random((30, 2))
            g = gram_matrix(rng.random(2), pts, 0.4, basis)
            assert min_eigenvalue(g) <= np.diag(g).min() + 1e-12


def _spectral(rng, eigs):
    """Symmetric matrices with the given eigenvalues, one per row of ``eigs``, in random bases."""
    q, _ = np.linalg.qr(rng.standard_normal((len(eigs), eigs.shape[1], eigs.shape[1])))
    m = (q * eigs[:, None, :]) @ np.swapaxes(q, 1, 2)
    return (m + np.swapaxes(m, 1, 2)) / 2


def _designs(rng, n, size):
    """Gram matrices of random designs: 0 to 12 rows (0 is an empty ball), columns of varied scale."""
    out = np.zeros((n, size, size))
    for i in range(n):
        x = rng.standard_normal((rng.integers(13), size)) * 10.0 ** rng.uniform(-3, 1, size)
        out[i] = x.T @ x
    return out


def _filter_cases():
    """Seeded (name, gram stack, eig_tol) inputs for ``_eigen_filter``."""
    rng = np.random.default_rng(21)
    for size in (1, 2):
        yield f"designs-M{size}", _designs(rng, 100, size), 1e-8 * size
    for size in (3, 4, 6):
        eig_tol = 1e-8 * size
        yield f"designs-M{size}", _designs(rng, 400, size), eig_tol
        # smallest eigenvalues at eig_tol (1 +- 1e-15 ... 1e-6), the others up to
        # 1e8 times larger, so that the norm and the margin vary
        rel = np.repeat(np.logspace(-15, -6, 10), 40) * rng.choice([-1.0, 1.0], 400)
        low = eig_tol * (1 + rel)
        eigs = low[:, None] * 10.0 ** np.hstack([np.zeros((400, 1)), rng.uniform(0, 8, (400, size - 1))])
        yield f"near-tol-M{size}", _spectral(rng, eigs), eig_tol
        mixed = np.concatenate([_spectral(rng, eigs), _designs(rng, 100, size)])
        yield f"near-tol-designs-M{size}", mixed, eig_tol
        # ties: 40 copies of the matrix with the least eigenvalue, above eig_tol
        tie = _spectral(rng, np.array([[1e-4] + [1.0] * (size - 1)]))
        others = _designs(rng, 60, size) + np.eye(size)
        yield f"ties-M{size}", np.concatenate([np.repeat(tie, 40, axis=0), others]), eig_tol
        # the least eigenvalue at the largest diagonal: scaled identities have the
        # smallest diagonal entries, a nearly collinear matrix the smallest eigenvalue
        collinear = np.full((1, size, size), 1.0) + 1e-5 * np.eye(size)
        scaled = np.eye(size) * rng.uniform(1e-3, 2e-3, (60, 1, 1))
        yield f"hidden-min-M{size}", np.concatenate([scaled[:30], collinear, scaled[30:]]), eig_tol
        indefinite = _spectral(rng, rng.uniform(-1, 1, (50, size)))
        yield f"indefinite-M{size}", np.concatenate([indefinite, _designs(rng, 50, size)]), eig_tol
        for n in (1, 5, 16, 17):
            yield f"chunk-{n}-M{size}", _designs(rng, n, size), eig_tol


FILTER_CASES = list(_filter_cases())


class TestEigenFilter:
    @pytest.mark.parametrize("case", FILTER_CASES, ids=[c[0] for c in FILTER_CASES])
    def test_matches_every_fit_oracle(self, case):
        _, gram, eig_tol = case
        want = localpoly._min_eigenvalues(gram)
        got = localpoly._eigen_filter(gram, eig_tol)
        np.testing.assert_array_equal(got < eig_tol, want < eig_tol)
        assert got.min() == want.min()
        computed = np.isfinite(got)
        np.testing.assert_array_equal(got[computed], want[computed])
        assert np.all(want[~computed] >= want.min())
        assert np.all(want[~computed] >= eig_tol)
        if len(gram) <= localpoly._PICKS or gram.shape[-1] <= 2:
            assert computed.all()

    def test_cases_reach_both_sides_and_skip(self):
        # the near-threshold stacks straddle eig_tol, and the filter skips most fits
        for name, gram, eig_tol in FILTER_CASES:
            if name.startswith("near-tol-M"):
                want = localpoly._min_eigenvalues(gram)
                assert (want < eig_tol).any() and (want >= eig_tol).any(), name
        for name, gram, eig_tol in FILTER_CASES:
            if name.startswith(("designs-M3", "designs-M4", "designs-M6", "ties", "hidden-min")):
                skipped = np.isinf(localpoly._eigen_filter(gram, eig_tol))
                assert skipped.mean() > 0.5, name


class TestLocalPolyEstimate:
    def test_noiseless_linear_reproduced(self):
        rng = np.random.default_rng(2)
        basis = enumerate_basis(1, 1)
        x = np.array([0.4])
        pts = x + rng.uniform(-0.1, 0.1, size=(20, 1))
        y = 2.0 + 3.0 * pts[:, 0]
        value, fit = local_poly_estimate(x, pts, y, 0.1, basis)
        assert abs(value - (2.0 + 3.0 * 0.4)) <= 1e-8
        assert not fit.degenerate

    def test_empty_ball_is_degenerate_zero(self):
        basis = enumerate_basis(1, 1)
        value, fit = local_poly_estimate(np.array([0.5]), np.array([[3.0]]), np.array([1.0]), 0.1, basis)
        assert value == 0.0
        assert fit.degenerate
        assert fit.n_in_ball == 0

    def test_constant_data(self):
        rng = np.random.default_rng(3)
        basis = enumerate_basis(2, 1)
        x = np.array([0.5, 0.5])
        pts = x + rng.uniform(-0.2, 0.2, size=(30, 2))
        value, fit = local_poly_estimate(x, pts, np.full(30, 0.7), 0.25, basis)
        assert value == pytest.approx(0.7, abs=1e-10)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for d, l in ((1, 0), (1, 2), (2, 1)):
            basis = enumerate_basis(d, l)
            x = rng.random(d)
            pts = x + rng.uniform(-0.15, 0.15, size=(50, d))
            y = rng.random(50)
            value, fit = local_poly_estimate(x, pts, y, 0.15, basis)
            assert not fit.degenerate
            assert value == pytest.approx(brute_force_estimate(x, pts, y, 0.15, basis), abs=1e-8)

    def test_polynomial_reproduction_random_configs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(1, 3))
            l = int(rng.integers(0, 3))
            basis = enumerate_basis(d, l)
            coef = rng.uniform(-1, 1, size=basis.M)
            x = rng.random(d)
            h = rng.uniform(0.05, 0.3)
            pts = x + rng.uniform(-h, h, size=(3 * basis.M + 20, d)) / math.sqrt(d)
            diff = pts - x
            y = sum(
                c * np.prod(diff ** np.asarray(r, dtype=float), axis=1)
                for c, r in zip(coef, basis.indices)
            )
            value, fit = local_poly_estimate(x, pts, y, h, basis)
            assert not fit.degenerate
            assert abs(value - coef[0]) <= 1e-6

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        basis = enumerate_basis(2, 1)
        x = np.array([0.5, 0.5])
        pts = rng.random((60, 2))
        y = rng.random(60)
        v1, _ = local_poly_estimate(x, pts, y, 0.3, basis)
        perm = rng.permutation(60)
        v2, _ = local_poly_estimate(x, pts[perm], y[perm], 0.3, basis)
        assert v1 == pytest.approx(v2, abs=1e-10)

    def test_rejects_nonfinite_rewards(self):
        basis = enumerate_basis(1, 0)
        with pytest.raises(ValueError):
            local_poly_estimate(np.array([0.5]), np.array([[0.5]]), np.array([np.nan]), 0.1, basis)

    def test_offline_error_shrinks_with_sample_size(self):
        # median sup error over a query grid is nonincreasing in n
        beta, d = 2.0, 1
        basis = enumerate_basis(d, 1)
        grid = np.linspace(0.05, 0.95, 50)[:, None]
        truth = np.sin(2 * math.pi * grid[:, 0]) / 4 + 0.5
        sup_errors = {n: [] for n in (500, 2000, 8000)}
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for n in sup_errors:
                pts = rng.random((n, d))
                y = np.sin(2 * math.pi * pts[:, 0]) / 4 + 0.5 + 0.1 * rng.standard_normal(n)
                h = n ** (-1.0 / (2 * beta + d))
                errs = [
                    abs(local_poly_estimate(q, pts, y, h, basis)[0] - t)
                    for q, t in zip(grid, truth)
                ]
                sup_errors[n].append(max(errs))
        medians = [np.median(sup_errors[n]) for n in (500, 2000, 8000)]
        assert medians[1] <= medians[0] and medians[2] <= medians[1]

    def test_gram_conditioning_on_uniform_data(self):
        # frozen pilot threshold: normalized min eigenvalue >= 0.01 in >= 95% of seeds
        basis = enumerate_basis(2, 1)
        ok = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pts = rng.random((2000, 2))
            g = gram_matrix(np.array([0.5, 0.5]), pts, 0.3, basis)
            n_in = int(np.sum(np.linalg.norm(pts - 0.5, axis=1) <= 0.3))
            if min_eigenvalue(g) / n_in >= 0.01:
                ok += 1
        assert ok >= 95

    def test_default_eig_tol_scales_with_basis(self):
        assert default_eig_tol(enumerate_basis(2, 2)) == pytest.approx(6e-8)

    def test_scaled_design_zero_power_convention(self):
        basis = enumerate_basis(1, 1)
        U = scaled_design(np.array([0.5]), np.array([[0.5]]), 0.1, basis)
        np.testing.assert_allclose(U, [[1.0, 0.0]])

    def test_scaled_design_matches_product_of_powers(self):
        # bit for bit the product of per-axis powers with an array exponent
        rng = np.random.default_rng(7)
        for d in (1, 2, 3):
            for l in (0, 1, 2, 3):
                basis = enumerate_basis(d, l)
                x = rng.random(d)
                pts = np.vstack([rng.random((200, d)), x[None, :]])
                u = (pts - x[None, :]) / 0.3
                expected = np.prod(u[:, None, :] ** np.array(basis.indices)[None, :, :], axis=2)
                np.testing.assert_array_equal(scaled_design(x, pts, 0.3, basis), expected)

    def test_scaled_design_one_query_per_row(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 3):
            basis = enumerate_basis(d, 3)
            centers = rng.random((5, d))
            owner = rng.integers(0, 5, size=60)
            pts = rng.random((60, d))
            rowwise = scaled_design(centers[owner], pts, 0.2, basis)
            for i in range(60):
                one = scaled_design(centers[owner[i]], pts[i : i + 1], 0.2, basis)
                np.testing.assert_array_equal(rowwise[i : i + 1], one)


def _kernel_cases():
    """Seeded (name, centers, points, rewards, h, basis) inputs for the kernel."""
    rng = np.random.default_rng(2024)
    for d in (1, 2, 3):
        for l in (0, 1, 2, 3):
            n = 300 * d
            pts = rng.random((n, d))
            y = np.sin(3 * pts.sum(axis=1)) + 0.1 * rng.standard_normal(n)
            # some centers outside the unit cube have empty or thin balls
            centers = rng.uniform(-0.3, 1.3, size=(40, d))
            yield f"d{d}-l{l}", centers, pts, y, 0.15 + 0.1 * d, enumerate_basis(d, l)
    for d in (1, 2):
        basis = enumerate_basis(d, 1)
        centers = rng.random((6, d))
        yield f"no-points-d{d}", centers, np.empty((0, d)), np.empty(0), 0.2, basis
        pts = np.repeat(rng.random((2, d)), 4, axis=0)
        y = rng.random(len(pts))
        yield f"duplicates-degenerate-d{d}", centers, pts, y, 2.0, enumerate_basis(d, 2)
        pts = np.vstack([rng.random((50, d)), pts])
        y = rng.random(len(pts))
        yield f"duplicates-d{d}", centers, pts, y, 0.4, basis
    # samples exactly at distance h (dyadic values, so the distance is exact)
    centers = np.array([[0.25], [0.5]])
    pts = np.array([[0.0], [0.125], [0.25], [0.5], [0.75], [0.875]])
    yield "at-h-d1", centers, pts, np.arange(6.0), 0.25, enumerate_basis(1, 1)
    centers = np.array([[0.25, 0.25], [0.5, 0.5]])
    pts = np.array([[0.625, 0.75], [0.25, 0.875], [0.5, 0.25], [0.375, 0.25], [0.25, 0.5], [0.0, 0.0]])
    yield "at-h-d2", centers, pts, np.arange(6.0), 0.625, enumerate_basis(2, 1)


KERNEL_CASES = list(_kernel_cases())


def _row_subset(lattice, rng, rows: int, keep: float) -> np.ndarray:
    """Flat ids, ascending as the policy passes them: ``keep`` of the cubes of ``rows`` random rows."""
    ids = lattice.cube_ids()
    row = ids[:, :-1] @ lattice.cells_per_axis ** np.arange(lattice.d - 2, -1, -1)
    chosen = rng.choice(np.unique(row), size=min(rows, len(np.unique(row))), replace=False)
    return np.flatnonzero(np.isin(row, chosen) & (rng.random(len(ids)) < keep))


def _lattice_cases():
    """Seeded (name, centers, points, rewards, h, basis) inputs whose rows hold many centers.

    The centers are lattice cube centers in flat order; each row is several
    times ``localpoly._origin_span(basis) * h`` long, so it spans several
    origin blocks.  The empty-rows case runs at every degree that sets a
    width of its own: l = 2 (h / 8) and, as ``-l0`` and ``-l1``, l = 0 and 1
    (h / 2) on the same samples.
    """
    rng = np.random.default_rng(31)
    horizons = {1: 2**12, 2: 2**11, 3: 2**10}
    for d in (1, 2, 3):
        lattice = build_lattice(horizons[d], 2.0, d)
        for l in (1, 2, 3):
            n = 400 * d * (l + 1)
            pts = rng.random((n, d))
            y = np.sin(3 * pts.sum(axis=1)) + 0.1 * rng.standard_normal(n)
            ids = _row_subset(lattice, rng, rows=6, keep=0.8)
            h = 0.12 + 0.08 * d
            yield f"lattice-d{d}-l{l}", lattice.centers(ids), pts, y, h, enumerate_basis(d, l)
        # rows whose strip |x_0 - c_0| <= h holds no sample, and balls that are empty
        pts = rng.random((300 * d, d))
        pts[:, 0] = np.where(pts[:, 0] < 0.5, 0.35 * pts[:, 0], 0.65 + 0.35 * pts[:, 0])
        y = rng.random(len(pts))
        ids = _row_subset(lattice, rng, rows=12, keep=0.5)
        yield f"lattice-empty-rows-d{d}", lattice.centers(ids), pts, y, 0.1, enumerate_basis(d, 2)
        for l in (0, 1):
            yield f"lattice-empty-rows-d{d}-l{l}", lattice.centers(ids), pts, y, 0.1, enumerate_basis(d, l)
    # samples exactly at a run end: dyadic centers, h = 5/16, and offsets
    # (3/16, 4/16) and (0, 5/16) whose squared lengths equal h^2 exactly
    for d in (1, 2, 3):
        lattice = GridLattice(d=d, delta=1 / 16, cells_per_axis=16)
        ids = _row_subset(lattice, rng, rows=4, keep=1.0)
        centers = lattice.centers(ids)
        picks = centers[rng.choice(len(centers), size=12)]
        offsets = [np.eye(d)[-1] * 5 / 16]
        if d > 1:
            offsets.append(np.eye(d)[0] * 3 / 16 + np.eye(d)[-1] * 4 / 16)
        edge = np.vstack([picks + sign * o for o in offsets for sign in (1, -1)])
        pts = np.vstack([rng.random((150 * d, d)), edge])
        y = rng.random(len(pts))
        yield f"run-end-d{d}", centers, pts, y, 5 / 16, enumerate_basis(d, 1)


LATTICE_CASES = list(_lattice_cases())
ORACLE_CASES = KERNEL_CASES + LATTICE_CASES


class TestOriginBlocks:
    @pytest.mark.parametrize("case", LATTICE_CASES, ids=[c[0] for c in LATTICE_CASES])
    def test_blocks_are_narrower_than_their_span(self, case):
        _, centers, pts, y, h, basis = case
        span = localpoly._origin_span(basis)
        assert span == (0.5 if basis.l <= 1 else 0.125)
        sweep = localpoly._Sweep([(centers, pts, y, h)], span)
        widths = sweep.last[sweep.block_end - 1] - sweep.last[sweep.block_start]
        assert np.all(widths < span * h)
        if case[0].startswith("lattice-"):
            # every row meets several blocks, as the cases promise
            blocks = sweep.block_of[sweep.row_end - 1] - sweep.block_of[sweep.row_start] + 1
            assert blocks.min() >= 5, blocks.min()


def _single_center_cases():
    """Seeded (name, centers, points, rewards, h, basis) inputs for one-query fits."""
    rng = np.random.default_rng(9)
    pts = rng.random((500, 2))
    y = rng.random(500)
    yield "random-d2", rng.random((10, 2)), pts, y, 0.3, enumerate_basis(2, 2)
    # 0.1 + 0.2 rounds up to 0.30000000000000004: its squared distance from
    # 0.1 exceeds 0.2 * 0.2, but the window's edge 0.1 + 0.2 rounds alike
    pts = np.array([[0.1 + 0.2], [0.1], [0.2]])
    yield "window-edge-d1", np.array([[0.1]]), pts, np.array([0.9, 0.2, 0.4]), 0.2, enumerate_basis(1, 1)
    # one sample at the query, one at exactly h along an axis
    centers = np.array([[0.25, 0.5], [0.5, 0.5]])
    pts = np.array([[0.25, 0.5], [0.5, 0.5], [0.25, 0.75], [0.375, 0.625], [0.125, 0.5], [0.75, 0.5]])
    yield "zero-and-h-d2", centers, pts, np.arange(6.0) / 6, 0.25, enumerate_basis(2, 1)


SINGLE_CENTER_CASES = list(_single_center_cases())


def _condition_numbers(centers, pts, h, basis):
    """Gram condition number of the loop's fit at each center (inf if singular)."""
    out = np.full(len(centers), np.inf)
    for i, sel in enumerate(_BallIndex(pts).query_many(centers, h)):
        U = scaled_design(centers[i], pts[sel], h, basis)
        eigs = np.linalg.eigvalsh(U.T @ U)
        if eigs[0] > 0:
            out[i] = eigs[-1] / eigs[0]
    return out


class TestFitAtCenters:
    @pytest.mark.parametrize("case", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_matches_per_center_loop(self, case):
        _, centers, pts, y, h, basis = case
        eig_tol = default_eig_tol(basis)
        values, degenerate, min_eigs = _fit_at_centers(centers, pts, y, h, basis, eig_tol)
        counts = [len(sel) for sel in _BallIndex(pts).query_many(centers, h)]
        got = fit_at_centers(centers, pts, y, h, basis)
        np.testing.assert_array_equal(got.n_in_ball, counts)
        np.testing.assert_array_equal(got.degenerate, degenerate)
        np.testing.assert_allclose(got.min_eig, min_eigs.min(), rtol=1e-12, atol=1e-12)
        # The two sum the normal equations in different orders, and a solve
        # amplifies that rounding by the Gram condition number kappa: within
        # 1e-12 where kappa <= 1e3, within 1e-14 * kappa on every fit.
        err = np.abs(got.values - values)
        kappa = _condition_numbers(centers, pts, h, basis)
        assert np.all(err[degenerate] == 0)
        assert np.all(err[~degenerate] <= 1e-14 * kappa[~degenerate]), np.max(err / kappa)
        assert np.all(err[kappa <= 1e3] <= 1e-12), np.max(err[kappa <= 1e3])

    def test_cases_cover_degenerate_and_regular_fits(self):
        flags = np.concatenate(
            [fit_at_centers(c, p, y, h, b).degenerate for _, c, p, y, h, b in KERNEL_CASES]
        )
        assert flags.any() and not flags.all()
        counts = np.concatenate(
            [fit_at_centers(c, p, y, h, b).n_in_ball for _, c, p, y, h, b in KERNEL_CASES]
        )
        assert (counts == 0).any()
        kappa = np.concatenate([_condition_numbers(c, p, h, b) for _, c, p, _, h, b in KERNEL_CASES])
        assert np.count_nonzero(~flags & (kappa <= 1e3)) >= len(flags) // 2

    def test_sample_at_distance_h_is_in_the_ball(self):
        _, centers, pts, y, h, basis = next(c for c in KERNEL_CASES if c[0] == "at-h-d2")
        assert np.any(np.linalg.norm(pts - centers[0], axis=1) == h)
        got = fit_at_centers(centers, pts, y, h, basis)
        assert got.n_in_ball[0] == np.count_nonzero(np.linalg.norm(pts - centers[0], axis=1) <= h)

    @pytest.mark.parametrize("case", SINGLE_CENTER_CASES, ids=[c[0] for c in SINGLE_CENTER_CASES])
    def test_single_center_matches_local_poly_estimate(self, case):
        _, centers, pts, y, h, basis = case
        got = fit_at_centers(centers, pts, y, h, basis)
        eigs = []
        for i, x in enumerate(centers):
            value, fit = local_poly_estimate(x, pts, y, h, basis)
            assert fit.n_in_ball == got.n_in_ball[i]
            assert value == got.values[i]
            assert fit.degenerate == got.degenerate[i]
            np.testing.assert_array_equal(gram_matrix(x, pts, h, basis), fit.gram)
            eigs.append(fit.min_eigenvalue)
        assert got.min_eig == min(eigs)

    @pytest.mark.parametrize("block", [1, 7, None, "every-fit"], ids=["1", "7", "default", "every-fit"])
    def test_result_does_not_depend_on_block(self, block, monkeypatch):
        expected = [fit_at_centers(c, p, y, h, b) for _, c, p, y, h, b in ORACLE_CASES]
        if block == "every-fit":
            # the eigenvalue filter replaced by the oracle on every fit
            monkeypatch.setattr(localpoly, "_eigen_filter", lambda gram, _: localpoly._min_eigenvalues(gram))
        elif block is not None:
            monkeypatch.setattr(localpoly, "_CHUNK", block)
        for (_, c, p, y, h, b), want in zip(ORACLE_CASES, expected):
            got = fit_at_centers(c, p, y, h, b)
            for field in got._fields:
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field))

    def test_rejects_bad_input(self):
        basis = enumerate_basis(1, 1)
        centers, pts = np.array([[0.5]]), np.array([[0.4], [0.6]])
        with pytest.raises(ValueError, match="bandwidth"):
            fit_at_centers(centers, pts, np.ones(2), 0.0, basis)
        with pytest.raises(ValueError, match="equal length"):
            fit_at_centers(centers, pts, np.ones(3), 0.1, basis)
        with pytest.raises(ValueError, match="finite"):
            fit_at_centers(centers, pts, np.array([1.0, np.nan]), 0.1, basis)
        # a query of another dimension than the samples once got a fit silently
        with pytest.raises(ValueError, match="dimension 2, samples 1"):
            fit_at_centers(np.array([[0.5, 0.9]]), pts, np.ones(2), 0.1, basis)
        with pytest.raises(ValueError, match="dimension 2, samples 1"):
            local_poly_estimate(np.array([0.5, 0.9]), pts, np.ones(2), 0.1, basis)

    def test_large_lattice_fits_in_bounded_memory(self):
        lat = build_lattice(2**16, 2.0, 2)
        centers = lat.centers()
        assert len(centers) == 200_704
        rng = np.random.default_rng(16)
        pts = rng.random((2**16, 2))
        y = rng.random(2**16)
        basis = enumerate_basis(2, 1)
        h = 0.01  # about 20 samples per ball, 4 million in-ball rows in all
        limit = 64 * 2**20
        tracemalloc.start()
        try:
            got = fit_at_centers(centers, pts, y, h, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, peak
        assert got.n_in_ball.sum() > 3_000_000
        assert not got.degenerate[got.n_in_ball >= 20].any()


def _blocks(widths):
    """(block, step) of rows laid out block after block, with the given block widths."""
    block = np.repeat(np.arange(len(widths)), widths)
    step = np.concatenate([np.arange(w) for w in widths])
    return block, step


def _running_sum_cases():
    """(name, raw, widths) inputs for the block running sums."""
    rng = np.random.default_rng(17)
    yield "width-1", rng.standard_normal((9, 3)), [1] * 9
    yield "one-block", rng.standard_normal((6, 2)), [6]
    yield "mixed", rng.standard_normal((31, 5)), [1, 4, 2, 7, 1, 1, 10, 3, 2]
    yield "long", rng.standard_normal((700, 2)) * 10.0 ** rng.integers(-8, 9, (700, 2)), [3, 400, 1, 296]
    # magnitudes where the grouping of the sum shows: any order but the
    # sequential one gives 1 for the last row of each block
    column = np.array([1e16, 1.0, -1e16, 1.0, 1e16, -1e16])
    yield "magnitudes", np.column_stack([column, column[::-1]]), [3, 3]


class TestRunningSums:
    @pytest.mark.parametrize("case", list(_running_sum_cases()), ids=lambda c: c[0])
    def test_matches_the_position_loop(self, case):
        _, raw, widths = case
        block, step = _blocks(widths)
        got = localpoly._running_sums(raw, block, step)
        want = former_paths.running_sums(raw, step)
        assert got.shape == raw.shape and got.tobytes() == want.tobytes()

    def test_adds_in_position_order(self):
        raw = np.array([[1e16], [1.0], [-1e16], [1.0], [1e16], [-1e16]])
        block, step = _blocks([3, 3])
        got = localpoly._running_sums(raw, block, step)[:, 0]
        np.testing.assert_array_equal(got, [1e16, 1e16, 0.0, 1.0, 1e16, 0.0])

    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["1", "7", "default"])
    def test_raw_moments_match_the_former_loop(self, chunk, monkeypatch):
        shipped = localpoly._Sweep.raw_moments
        widths = []
        seen = set()

        def both(sweep, pairs, factors, columns, c0, c1):
            got = shipped(sweep, pairs, factors, columns, c0, c1)
            want = former_paths.raw_moments(sweep, pairs, factors, columns, c0, c1)
            assert got.tobytes() == want.tobytes()
            widths.extend((sweep.block_end[c0:c1] - sweep.block_start[c0:c1]).tolist())
            picked = (pairs.first_block < c1) & (pairs.last_block >= c0)
            inside = picked & (pairs.last_block < c1)
            at_end = pairs.stop == sweep.block_end[pairs.last_block]
            branches = {
                "no pair": not picked.any(),
                "enters from an earlier chunk": (picked & (pairs.first_block < c0)).any(),
                "last block past the chunk": (picked & (pairs.last_block >= c1)).any(),
                "run ends at a block's end": (inside & at_end).any(),
                "run ends inside a block": (inside & ~at_end).any(),
            }
            seen.update(name for name, hit in branches.items() if hit)
            return got

        if chunk is not None:
            monkeypatch.setattr(localpoly, "_CHUNK", chunk)
        monkeypatch.setattr(localpoly._Sweep, "raw_moments", both)
        for _, c, p, y, h, b in ORACLE_CASES:
            fit_at_centers(c, p, y, h, b)
        # blocks of one query and blocks of several, in the same calls
        assert min(widths) == 1 and max(widths) >= 5
        assert seen == {"no pair", "enters from an earlier chunk", "last block past the chunk",
                        "run ends at a block's end", "run ends inside a block"}


def _relative_errors(got, want, gram):
    """Per system: the largest coefficient error over the largest coefficient, and the Gram condition number."""
    eigs = np.linalg.eigvalsh(gram)
    scale = np.maximum(np.max(np.abs(want), axis=1), np.finfo(float).tiny)
    return np.max(np.abs(got - want), axis=1) / scale, eigs[:, -1] / eigs[:, 0]


class TestSolve:
    # Both solvers are backward stable on positive definite systems, so they
    # differ by a rounding that the Gram condition number kappa amplifies:
    # within 1e-14 * kappa of the largest coefficient, as the fits' bound.

    @pytest.mark.parametrize("size", [1, 2, 3, 6, 10])
    def test_matches_lapack_on_positive_definite_stacks(self, size):
        rng = np.random.default_rng(size)
        gram = _spectral(rng, 10.0 ** rng.uniform(-6, 4, (300, size)))
        rhs = rng.standard_normal((300, size)) * 10.0 ** rng.uniform(-3, 3, (300, 1))
        got = localpoly._solve(gram, rhs, np.zeros(300, dtype=bool))
        want = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
        err, kappa = _relative_errors(got, want, gram)
        assert np.all(err <= 1e-14 * kappa), np.max(err / kappa)
        assert size == 1 or kappa.max() > 1e8

    def test_matches_lapack_on_every_chunk_of_the_kernel_cases(self, monkeypatch):
        shipped = localpoly._solve
        sizes, flags = set(), []

        def both(gram, rhs, degenerate):
            got = shipped(gram, rhs, degenerate)
            want = former_paths.solve(gram, rhs, degenerate)
            sizes.add(gram.shape[-1])
            flags.append(degenerate)
            assert np.all(got[degenerate] == 0.0)
            ok = ~degenerate
            if ok.any():
                err, kappa = _relative_errors(got[ok], want[ok], gram[ok])
                assert np.all(err <= 1e-14 * kappa), np.max(err / kappa)
            return got

        monkeypatch.setattr(localpoly, "_solve", both)
        for _, c, p, y, h, b in ORACLE_CASES:
            fit_at_centers(c, p, y, h, b)
        flags = np.concatenate(flags)
        assert sizes == {1, 2, 3, 4, 6, 10, 20}
        assert flags.any() and np.count_nonzero(~flags) > 2000

    def test_zero_gram_rows_give_zero_coefficients_without_warning(self):
        rng = np.random.default_rng(5)
        for size in (1, 2, 3, 6):
            gram = _designs(rng, 40, size) + np.eye(size)
            gram[::3] = 0.0
            degenerate = np.zeros(40, dtype=bool)
            degenerate[::3] = True
            rhs = rng.standard_normal((40, size))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = localpoly._solve(gram, rhs, degenerate)
            assert np.all(got[degenerate] == 0.0)
            assert np.all(np.isfinite(got))
        # empty balls through the kernel: every fit of a sample-free call
        _, centers, pts, y, h, basis = next(c for c in KERNEL_CASES if c[0] == "no-points-d2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fit_at_centers(centers, pts, y, h, basis)
        assert got.degenerate.all() and np.all(got.values == 0.0)

    def test_a_lost_pivot_falls_back_to_lapack(self):
        # [[0, 1], [1, 0]] meets a zero pivot, [[1, 2], [2, 1]] a negative one;
        # passed as non-degenerate, LAPACK's pivoted LU solves them
        gram = np.array([[[0.0, 1.0], [1.0, 0.0]], [[2.0, 1.0], [1.0, 2.0]], [[1.0, 2.0], [2.0, 1.0]]])
        rhs = np.array([[1.0, 2.0], [3.0, 3.0], [3.0, 0.0]])
        got = localpoly._solve(gram, rhs, np.zeros(3, dtype=bool))
        want = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
        np.testing.assert_array_equal(got[[0, 2]], want[[0, 2]])
        np.testing.assert_allclose(got[1], [1.0, 1.0], rtol=1e-15)

    def test_fits_call_no_lapack_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called")

        _, centers, pts, y, h, basis = next(c for c in LATTICE_CASES if c[0] == "lattice-d2-l1")
        want = fit_at_centers(centers, pts, y, h, basis)
        env = make_smooth_instance("sinusoidal", d=1, amplitude=0.4, beta=2.0)
        config = PolicyConfig(beta=2.0, d=1, horizon=4096, c_epoch=8.0)
        run = run_two_arm(env, config, seed=3, record_actions=True)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", refuse)
            got = fit_at_centers(centers, pts, y, h, basis)
            # d = 1 fits are 2 x 2 (beta = 2): closed-form eigenvalues, so no LAPACK at all
            patch.setattr(np.linalg, "eigvalsh", refuse)
            again = run_two_arm(env, config, seed=3, record_actions=True)
        for field in got._fields:
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        assert (~got.degenerate).sum() > 100
        assert again.equals(run) and len(run.epochs) >= 2


def _run_cases():
    """Seeded (name, centers, points, h) inputs at d >= 2 for the run search, each row crafted."""
    rng = np.random.default_rng(41)
    grid = (np.arange(24) + 0.5) / 24

    def rows(last_coords):
        """Centers of one row per list of last coordinates, rows 0.05 apart on the first axis."""
        return np.vstack([np.column_stack([np.full(len(c), 0.3 + 0.05 * i), c]) for i, c in enumerate(last_coords)])

    pts = rng.random((600, 2))
    yield "repeated-last", rows([np.repeat(grid[::2], 3), np.sort(np.append(grid, grid[5:9]))]), pts, 0.2
    yield "one-query-rows", rows([[0.1], [0.5], [0.93], [0.5]]), pts, 0.25
    yield "zero-span-rows", rows([np.full(5, 0.4), np.full(2, 0.71), grid]), pts, 0.2
    # most of a row within 1e-4 of 0.5: many queries share a bucket
    clustered = np.sort(np.concatenate([0.5 + 1e-4 * rng.random(30), [0.02, 0.98], grid[::5]]))
    yield "clustered", rows([clustered, clustered[10:]]), pts, 0.15
    # last coordinates far outside every row, with first coordinates near the rows
    far = np.column_stack([0.3 + 0.2 * rng.random(300), np.concatenate([-4 - rng.random(150), 4 + rng.random(150)])])
    yield "far-below-and-above", rows([grid, grid[3:7], [0.5]]), np.vstack([far, pts[:100]]), 0.3
    # samples on the ball boundary: dyadic centers and h = 5/16, offsets
    # whose squared lengths equal h^2 exactly, so x = c +- w exactly
    lattice = GridLattice(d=2, delta=1 / 16, cells_per_axis=16)
    centers = lattice.centers(_row_subset(lattice, rng, rows=6, keep=0.7))
    picks = centers[rng.choice(len(centers), size=40)]
    offsets = [(3, 4), (4, 3), (0, 5), (5, 0), (3, -4), (-4, -3)]
    edge = np.vstack([picks + np.array(o) / 16 for o in offsets])
    yield "ball-boundary-d2", centers, np.vstack([edge, pts[:200]]), 5 / 16
    # samples at fl(c_last +- w), w = sqrt(h^2 - r2) as the sweep rounds it,
    # and their neighbours: the search's compares against x -+ w can differ
    # from the rule by a rounding
    h = 0.21
    centers = rows([np.sort(rng.random(30)) for _ in range(8)])
    picks = centers[rng.choice(len(centers), size=600)]
    first = picks[:, 0] + h * (rng.random(600) - 0.5)
    r2 = (first - picks[:, 0]) * (first - picks[:, 0])
    w = np.sqrt(h * h - r2)
    ends = np.concatenate([picks[:, 1] + w, picks[:, 1] - w])
    ends = np.concatenate([ends, np.nextafter(ends, np.inf), np.nextafter(ends, -np.inf)])
    yield "rounded-ends-d2", centers, np.column_stack([np.tile(first, 6), ends]), h
    lattice = GridLattice(d=3, delta=1 / 12, cells_per_axis=12)
    ids = _row_subset(lattice, rng, rows=20, keep=0.6)
    yield "lattice-d3", lattice.centers(ids), rng.random((900, 3)), 0.3


RUN_CASES = list(_run_cases())


def _d1_edge_cases():
    """(name, centers, points, h) at d = 1: samples at fl(c +- w), their neighbours, and far away."""
    rng = np.random.default_rng(43)
    for name, centers, h in [
        ("grid", (np.arange(40) + 0.5) / 40, 0.1),
        ("repeated", np.repeat(rng.random(12), 3), 0.07),
        ("one-query", np.array([0.3]), 0.2),
    ]:
        w = np.sqrt(h * h)
        edge = np.concatenate([centers + w, centers - w])
        pts = np.concatenate([edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf),
                              rng.random(200), [-5.0, -1.0, 2.0, 7.0]])
        yield name, centers[:, None], pts[:, None], h


D1_EDGE_CASES = list(_d1_edge_cases())


def _compare_runs(case, monkeypatch) -> set:
    """Fit ``case`` with every ``_Sweep._runs`` call checked against the
    former runs; returns the (side, branch) pairs of the bucket search taken."""
    _, centers, pts, h = case
    runs, place = localpoly._Sweep._runs, localpoly._Buckets.place
    seen = set()

    def both(sweep, row, x, w, r0, r1):
        got = runs(sweep, row, x, w, r0, r1)
        want = former_paths.runs(sweep, row, x, w, sweep.row_start[r0], sweep.row_end[r1 - 1])
        for g, f in zip(got, want):
            assert g.tobytes() == f.tobytes()
        return got

    def recorded(index, i, lo, hi):
        got = place(index, i, lo, hi)
        above = index.base[i] + index.top[i] + 1
        for side, pos, bucket in zip(("left", "right"), got, index.of(i, lo, hi)):
            held, before = index.held[bucket], index.below[bucket]
            seen.update((side, kind) for kind, hit in [
                ("empty bucket", held == 0),
                ("one query, before it", (held == 1) & (pos == before)),
                ("one query, after it", (held == 1) & (pos > before)),
                ("crowded", held > 1),
                ("below the row", pos == index.below[index.base[i]]),
                ("above the row", pos == index.below[above] + index.held[above]),
            ] if hit.any())
        return got

    with monkeypatch.context() as patch:
        patch.setattr(localpoly._Sweep, "_runs", both)
        patch.setattr(localpoly._Buckets, "place", recorded)
        for l in (1, 2):
            fit_at_centers(centers, pts, np.ones(len(pts)), h, enumerate_basis(centers.shape[1], l))
    return seen


class TestRunSearch:
    @pytest.mark.parametrize("case", RUN_CASES, ids=[c[0] for c in RUN_CASES])
    def test_bucket_search_matches_the_former_runs(self, case, monkeypatch):
        _compare_runs(case, monkeypatch)

    def test_cases_reach_every_branch(self, monkeypatch):
        seen = {case[0]: _compare_runs(case, monkeypatch) for case in RUN_CASES}
        kinds = {"empty bucket", "one query, before it", "one query, after it", "crowded",
                 "below the row", "above the row"}
        assert set().union(*seen.values()) == {(side, kind) for side in ("left", "right") for kind in kinds}
        # a zero-span row's queries share its below bucket
        assert ("left", "crowded") in seen["zero-span-rows"]
        assert ("left", "crowded") in seen["clustered"]

    @pytest.mark.parametrize("case", RUN_CASES, ids=[c[0] for c in RUN_CASES])
    def test_pairs_and_fits_match_the_former_path(self, case, monkeypatch):
        _, centers, pts, h = case
        y = np.sin(5 * pts.sum(axis=1))
        basis = enumerate_basis(centers.shape[1], 1)
        sweep = localpoly._Sweep([(centers, pts, y, h)])
        r1 = len(sweep.row_start)
        got, want = sweep.pairs(0, r1), former_paths.pairs(sweep, 0, r1)
        for field in got._fields:
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        # the in-ball rule of ``_block_fits``, by brute force
        offset = pts[None, :, :-1] - centers[:, None, :-1]
        r2 = np.zeros(offset.shape[:2])
        for k in range(offset.shape[2]):
            r2 += offset[:, :, k] * offset[:, :, k]
        w = np.sqrt(np.maximum(h * h - r2, 0.0))
        c, x = centers[:, None, -1], pts[None, :, -1]
        inside = (r2 <= h * h) & (c - w <= x) & (x <= c + w)
        np.testing.assert_array_equal(fit_at_centers(centers, pts, y, h, basis).n_in_ball, inside.sum(axis=1))

    @pytest.mark.parametrize("case", D1_EDGE_CASES, ids=[c[0] for c in D1_EDGE_CASES])
    def test_d1_search_matches_the_former_path(self, case):
        _, centers, pts, h = case
        y = np.cos(3 * pts[:, 0])
        sweep = localpoly._Sweep([(centers, pts, y, h)])
        got, want = sweep.pairs(0, 1), former_paths.pairs(sweep, 0, 1)
        for field in got._fields:
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        # the in-ball rule, each side rounded once: fl(c - w) <= x <= fl(c + w)
        w = np.sqrt(h * h)
        c, x = centers[:, 0, None], pts[None, :, 0]
        inside = (c - w <= x) & (x <= c + w)
        got = fit_at_centers(centers, pts, y, h, enumerate_basis(1, 1))
        np.testing.assert_array_equal(got.n_in_ball, inside.sum(axis=1))
        # samples at an edge are in, their outer neighbours out
        assert np.any(inside & (x == c + w)) and np.any(inside & (x == c - w))
        assert not np.any(inside & ((x > c + w) | (x < c - w)))

    @pytest.mark.parametrize("h", [0.44, 0.33])
    def test_lattice_rows_take_no_binary_search(self, h, monkeypatch):
        # the shape of a d = 2 benchmark pass: every cube of a 97 x 97 lattice
        centers = build_lattice(2**11, 2.0, 2).centers()
        assert len(centers) == 97 * 97
        pts = np.random.default_rng(97).random((846, 2))
        y = np.sin(3 * pts.sum(axis=1))
        want = fit_at_centers(centers, pts, y, h, enumerate_basis(2, 1))
        placed, crowded = [], []
        place = localpoly._Buckets.place

        def recorded(index, i, lo, hi):
            placed.append(len(lo) + len(hi))
            crowded.extend(int(np.count_nonzero(index.held[bucket] > 1)) for bucket in index.of(i, lo, hi))
            return place(index, i, lo, hi)

        monkeypatch.setattr(localpoly._Buckets, "place", recorded)
        got = fit_at_centers(centers, pts, y, h, enumerate_basis(2, 1))
        for field in got._fields:
            assert np.asarray(getattr(got, field)).tobytes() == np.asarray(getattr(want, field)).tobytes()
        assert sum(placed) > 8 * len(centers)
        # every run end is placed with at most one compare, none bisected
        assert sum(crowded) == 0

    def test_d1_builds_no_bucket_index(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("d = 1 took the d >= 2 search")

        cases = [c for c in ORACLE_CASES if c[1].shape[1] == 1]
        want = [fit_at_centers(c, p, y, h, b) for _, c, p, y, h, b in cases]
        monkeypatch.setattr(localpoly, "_Buckets", refuse)
        for (_, c, p, y, h, b), expected in zip(cases, want):
            got = fit_at_centers(c, p, y, h, b)
            for field in got._fields:
                assert np.asarray(getattr(got, field)).tobytes() == np.asarray(getattr(expected, field)).tobytes()


def _clustered_row(seed: int) -> np.ndarray:
    """1,001 queries within 1e-9 of 0.5, in one bucket of width about 1 / 2006, plus 0 and 1."""
    return np.sort(np.append(0.5 + 1e-9 * np.random.default_rng(seed).random(1001), [0.0, 1.0]))


_FLOATS = st.floats(-1.0, 1.0, allow_nan=False)
_BUCKET_ROWS = st.lists(
    st.one_of(
        _FLOATS.map(lambda v: np.array([v])),
        st.tuples(_FLOATS, st.integers(2, 30)).map(lambda a: np.full(a[1], a[0])),
        st.integers(0, 2**32 - 1).map(_clustered_row),
        st.lists(st.integers(-8, 8), min_size=1, max_size=40).map(lambda k: np.sort(np.array(k) / 8)),
        st.lists(_FLOATS, min_size=1, max_size=40).map(np.sort),
    ),
    min_size=1,
    max_size=4,
)


class TestBuckets:
    @settings(max_examples=150, deadline=None)
    @given(rows=_BUCKET_ROWS)
    @example(rows=[np.array([0.0, 5e-324]), np.array([-1e-310, 0.0, 1e-310])])
    def test_place_is_searchsorted_along_the_row(self, rows):
        # rows of one query, of zero span, clustered in one bucket, with dyadic
        # ties, and arbitrary; values at every query, beside it and at +-inf.
        # The example's spans are subnormal: 2 n / span overflows to inf.
        c = np.concatenate(rows)
        end = np.cumsum([len(r) for r in rows])
        first = end - [len(r) for r in rows]
        index = localpoly._Buckets(c, first, end)
        values = np.concatenate([c, np.nextafter(c, np.inf), np.nextafter(c, -np.inf), [np.inf, -np.inf]])
        for i, (f, e) in enumerate(zip(first, end)):
            got = index.place(np.full(len(values), i), values, values)
            for side, pos in zip(("left", "right"), got):
                want = f + np.searchsorted(c[f:e], values, side=side)
                np.testing.assert_array_equal(pos, want)

    def test_infinite_last_coordinate_beside_a_one_query_row(self):
        # the first row holds one query, so its bucket scale is 2 / 0 = inf
        centers = np.array([[0.3, 0.5], [0.6, 0.2], [0.6, 0.4], [0.6, 0.7]])
        rng = np.random.default_rng(5)
        pts = rng.random((300, 2))
        y = np.sin(4 * pts.sum(axis=1))
        far = np.array([[0.31, np.inf], [0.29, -np.inf]])
        basis = enumerate_basis(2, 1)
        want = fit_at_centers(centers, pts, y, 0.2, basis)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fit_at_centers(centers, np.vstack([pts, far]), np.append(y, [1.0, 1.0]), 0.2, basis)
        for field in got._fields:
            assert np.asarray(getattr(got, field)).tobytes() == np.asarray(getattr(want, field)).tobytes()


class TestLoudInputs:
    """Non-finite queries and bandwidths are refused by name, also under ``python -O``."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_rejects_nonfinite_centers(self, d):
        basis = enumerate_basis(d, 1)
        pts = np.random.default_rng(8).random((50, d))
        for bad in (np.nan, np.inf, -np.inf):
            centers = np.full((3, d), 0.5)
            centers[1, -1] = bad
            with pytest.raises(ValueError, match="centers must be finite"):
                fit_at_centers(centers, pts, np.ones(50), 0.2, basis)
            with pytest.raises(ValueError, match="centers must be finite"):
                local_poly_estimate(centers[1], pts, np.ones(50), 0.2, basis)

    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, 0.0, -0.1])
    def test_rejects_a_bandwidth_not_finite_and_positive(self, h):
        pts = np.random.default_rng(9).random((50, 2))
        with pytest.raises(ValueError, match="bandwidth must be a finite positive number"):
            fit_at_centers(np.full((2, 2), 0.5), pts, np.ones(50), h, enumerate_basis(2, 1))
        with pytest.raises(ValueError, match="bandwidth must be a finite positive number"):
            gram_matrix(np.array([0.5, 0.5]), pts, h, enumerate_basis(2, 1))

    def test_checks_survive_optimize_flag(self):
        # the tests above, rerun in an interpreter that strips asserts
        src = os.path.dirname(os.path.dirname(smoothbandit.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        cmd = [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
               "-k", "TestLoudInputs and rejects"]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "7 passed" in proc.stdout, proc.stdout


def test_d2_fit_leaves_no_cyclic_garbage():
    _, centers, pts, y, h, basis = next(c for c in LATTICE_CASES if c[0] == "lattice-d2-l1")
    fit_at_centers(centers, pts, y, h, basis)  # builds the basis plans, cached for good
    gc.collect()
    gc.disable()
    try:
        fit_at_centers(centers, pts, y, h, basis)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _record_batches(monkeypatch) -> list:
    """Patch the kernel to record, per batch of fits, its chunks' query counts and M."""
    raw_moments, eigen_filter = localpoly._Sweep.raw_moments, localpoly._eigen_filter
    pending, batches = [], []

    def chunk(sweep, pairs, factors, columns, c0, c1):
        raw = raw_moments(sweep, pairs, factors, columns, c0, c1)
        pending.append(len(raw))
        return raw

    def batch(gram, eig_tol):
        assert sum(pending) == len(gram)
        batches.append((list(pending), gram.shape[-1]))
        pending.clear()
        return eigen_filter(gram, eig_tol)

    monkeypatch.setattr(localpoly._Sweep, "raw_moments", chunk)
    monkeypatch.setattr(localpoly, "_eigen_filter", batch)
    return batches


def _batch_shapes(name, chunk, monkeypatch) -> set:
    """Fit lattice case ``name`` with ``_CHUNK = chunk``, checking the fits
    against the default chunk and the former per-chunk fit stage, and each
    batch against its cap; returns (M, several chunks?, above the cap?) per batch."""
    _, centers, pts, y, h, basis = next(c for c in LATTICE_CASES if c[0] == name)
    shipped = fit_at_centers(centers, pts, y, h, basis)
    with monkeypatch.context() as patch:
        patch.setattr(localpoly, "_CHUNK", chunk)
        patch.setattr(localpoly, "_block_fits", former_paths.block_fits)
        former = fit_at_centers(centers, pts, y, h, basis)
    with monkeypatch.context() as patch:
        patch.setattr(localpoly, "_CHUNK", chunk)
        batches = _record_batches(patch)
        got = fit_at_centers(centers, pts, y, h, basis)
    for field in got._fields:
        for want in (shipped, former):
            assert np.asarray(getattr(got, field)).tobytes() == np.asarray(getattr(want, field)).tobytes()
    M = basis.M
    assert {m for _, m in batches} == {M}
    for chunks, _ in batches:
        assert sum(chunks) <= max(chunks[0] if len(chunks) == 1 else 0, chunk // M**2)
    return {(M, len(chunks) > 1, sum(chunks) > chunk // M**2) for chunks, _ in batches}


BATCH_CASES = [(name, chunk) for name in ("lattice-d2-l1", "lattice-d3-l3") for chunk in (2**8, 2**12, 2**15)]


class TestFitBatches:
    @pytest.mark.parametrize("name, chunk", BATCH_CASES)
    def test_batches_stay_within_their_cap(self, name, chunk, monkeypatch):
        _batch_shapes(name, chunk, monkeypatch)

    def test_batches_join_chunks_and_keep_heavy_ones_alone(self, monkeypatch):
        # M = 3 batches of several chunks, and M = 20 chunks above the cap,
        # each a batch of its own
        shapes = set().union(*(_batch_shapes(name, chunk, monkeypatch) for name, chunk in BATCH_CASES))
        assert {(3, True, False), (20, False, True)} <= shapes

    @pytest.mark.parametrize("chunk", [1, None], ids=["1", "default"])
    def test_local_poly_estimate_is_one_batch(self, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(localpoly, "_CHUNK", chunk)
        batches = _record_batches(monkeypatch)
        calls = 0
        for _, centers, pts, y, h, basis in SINGLE_CENTER_CASES + KERNEL_CASES[:8]:
            for x in centers[:3]:
                local_poly_estimate(x, pts, y, h, basis)
                calls += 1
        assert [len(chunks) for chunks, _ in batches] == [1] * calls


def _stack_cases():
    """(name, basis, problems) stacks of the oracle and run cases of one basis,
    each problem with its own bandwidth, plus one problem without queries and
    one without samples.  M = 2, 3 (at d = 1 and 2) and 6; the run cases
    bring zero-span rows."""
    rng = np.random.default_rng(33)
    cases = [(c, p, y, h, b) for _, c, p, y, h, b in ORACLE_CASES]
    cases += [(c, p, np.sin(5 * p.sum(axis=1)), h, enumerate_basis(c.shape[1], l))
              for _, c, p, h in RUN_CASES for l in (1, 2)]
    for d, l in ((1, 1), (1, 2), (2, 1), (2, 2)):
        problems = [(c, p, y, h) for c, p, y, h, b in cases if (b.d, b.l) == (d, l)]
        problems.insert(1, (np.empty((0, d)), rng.random((5, d)), rng.random(5), 0.2))
        problems.append((rng.random((7, d)), np.empty((0, d)), np.empty(0), 0.3))
        basis = enumerate_basis(d, l)
        yield f"M{basis.M}-d{d}-l{l}", basis, problems


STACK_CASES = list(_stack_cases())


class TestFitProblems:
    @pytest.mark.parametrize("chunk", [None, 2**8, 7], ids=["default", "256", "7"])
    @pytest.mark.parametrize("case", STACK_CASES, ids=[c[0] for c in STACK_CASES])
    def test_stacked_fits_equal_lone_fits(self, case, chunk, monkeypatch):
        _, basis, problems = case
        lone = [fit_at_centers(*problem, basis) for problem in problems]
        if chunk is not None:
            monkeypatch.setattr(localpoly, "_CHUNK", chunk)
        stacked = localpoly.fit_problems(problems, basis)
        assert len(stacked) == len(problems)
        for got, want in zip(stacked, lone):
            for field in got._fields:
                assert np.asarray(getattr(got, field)).tobytes() == np.asarray(getattr(want, field)).tobytes(), field

    def test_stacks_cover_what_they_promise(self):
        for _, basis, problems in STACK_CASES:
            lone = [fit_at_centers(*problem, basis) for problem in problems]
            assert lone[1].min_eig == math.inf and len(lone[1].values) == 0
            assert lone[-1].degenerate.all() and not lone[-1].n_in_ball.any()
            # the problems' minima differ, so one minimum over the stack would show
            assert len({fit.min_eig for fit in lone}) >= 4
            assert len({h for *_, h in problems}) >= 3
        zero_span = next(c for c in RUN_CASES if c[0] == "zero-span-rows")[1]
        assert all(any(p[0] is zero_span for p in problems) for _, basis, problems in STACK_CASES if basis.d == 2)

    def test_no_problems(self):
        assert localpoly.fit_problems([], enumerate_basis(1, 1)) == []


def _order_cases():
    """(name, values) inputs for the sample order."""
    rng = np.random.default_rng(23)
    yield "distinct", rng.random(500)
    yield "empty", np.empty(0)
    yield "one", np.array([0.5])
    yield "ties", rng.integers(0, 20, 300).astype(float)
    yield "one-tie", np.append(rng.random(100), 0.25 * np.ones(2))
    yield "nan", np.where(rng.random(200) < 0.1, np.nan, rng.random(200))
    yield "signed-zeros", rng.permutation(np.concatenate([np.zeros(5), -np.zeros(5), rng.random(20) - 0.5]))
    yield "strided", rng.random((300, 2))[:, 0]


class TestSampleOrder:
    @pytest.mark.parametrize("case", list(_order_cases()), ids=lambda c: c[0])
    def test_matches_the_stable_sort(self, case):
        _, values = case
        order, ordered = localpoly._stable_order(values)
        want = np.argsort(values, kind="stable")
        np.testing.assert_array_equal(order, want)
        assert ordered.tobytes() == values[want].tobytes()


class TestPlans:
    def test_one_plan_per_basis(self):
        first = localpoly._plans(enumerate_basis(2, 2))
        again = localpoly._plans(enumerate_basis(2, 2))
        assert all(a is b for a, b in zip(first, again))
        assert localpoly._plans(enumerate_basis(2, 1))[3].shape == (3, 3)
        with pytest.raises(ValueError):
            first[3][0, 0] = 0

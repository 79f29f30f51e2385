import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

import former_paths
from smoothbandit import localpoly
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
    times ``localpoly._ORIGIN_SPAN * h`` long, so it spans several origin blocks.
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

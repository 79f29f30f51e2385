"""Local polynomial regression with an indicator kernel.

Fits a polynomial of bounded total degree by least squares over the
samples inside a closed ball around the query point.  Monomials are
centered at the query and scaled by the bandwidth, so the Gram matrix of
the design doubles as the conditioning diagnostic: a fit whose Gram
minimum eigenvalue falls below a tolerance is declared degenerate and
reports the value 0.

``fit_at_centers`` fits many queries at once: it walks the queries in
blocks holding a bounded number of in-ball samples, builds the design rows
of a block in one ``scaled_design`` call, sums every query's Gram matrix
and moment vector with ``bincount`` and solves the block's systems in
batched eigenvalue and solve calls.  ``local_poly_estimate`` is the
single-query case of the same normal-equation solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

# In-ball sample rows (and queries) per block of ``fit_at_centers``; a block's
# working memory is a few times this many rows of M + d floats.
_FIT_ROWS = 2**14


def _multi_indices(d: int, degree: int) -> list[tuple[int, ...]]:
    """Multi-indices of exact total degree, first coordinate largest first."""
    if d == 1:
        return [(degree,)]
    out = []
    for head in range(degree, -1, -1):
        out.extend((head, *tail) for tail in _multi_indices(d - 1, degree - head))
    return out


@dataclass(frozen=True)
class MultiIndexBasis:
    """Monomial exponent vectors of total degree <= l in d variables."""

    d: int
    l: int
    indices: tuple[tuple[int, ...], ...]

    @property
    def M(self) -> int:
        return len(self.indices)

    @property
    def exponents(self) -> np.ndarray:
        return np.array(self.indices, dtype=np.int64)


def enumerate_basis(d: int, l: int) -> MultiIndexBasis:
    """All multi-indices with |r| <= l, zero index first, degree ascending."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    indices: list[tuple[int, ...]] = []
    for degree in range(l + 1):
        indices.extend(_multi_indices(d, degree))
    basis = MultiIndexBasis(d=d, l=l, indices=tuple(indices))
    if basis.M != math.comb(d + l, d):
        raise RuntimeError(f"basis of degree {l} in {d} variables has {basis.M} terms, "
                           f"expected {math.comb(d + l, d)}")
    return basis


def default_eig_tol(basis: MultiIndexBasis) -> float:
    """Degeneracy threshold, scaled with the basis size."""
    return 1e-8 * basis.M


def scaled_design(x: np.ndarray, points: np.ndarray, h: float, basis: MultiIndexBasis) -> np.ndarray:
    """Design matrix of scaled centered monomials ((p - x)/h)^r.

    Rows are points, columns follow the basis order.  ``x`` is one query of
    shape (d,) or one query per row, shape (R, d).  Uses the 0^0 = 1
    convention so a point at the query contributes only to the constant.
    """
    u = (np.atleast_2d(points) - np.asarray(x, dtype=float)) / h
    rows = len(u)
    powers: dict[tuple[int, int], np.ndarray] = {}

    def power(k: int, e: int) -> np.ndarray:
        # pow(t, 1) == t exactly; higher powers go through pow() with an
        # array exponent, as a scalar exponent takes a squaring fast path
        # that can differ by an ulp.
        if (k, e) not in powers:
            powers[k, e] = u[:, k] if e == 1 else u[:, k] ** np.full(rows, e)
        return powers[k, e]

    out = np.empty((rows, basis.M))
    for m, r in enumerate(basis.indices):
        column = None
        for k, e in enumerate(r):
            if e:  # a zero exponent contributes the factor pow(t, 0) == 1
                column = power(k, e) if column is None else column * power(k, e)
        out[:, m] = 1.0 if column is None else column
    return out


def _in_ball(x: np.ndarray, points: np.ndarray, h: float) -> np.ndarray:
    diff = np.atleast_2d(points) - np.asarray(x, dtype=float)[None, :]
    return np.einsum("ij,ij->i", diff, diff) <= h * h


def _moments(U: np.ndarray, y: np.ndarray, owner: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-query Gram matrices U_c^T U_c and moments U_c^T y_c, shapes (n, M, M), (n, M).

    ``owner[i]`` is the query that design row ``i`` belongs to.  Each sum
    runs over a query's rows in their given order, so it does not depend on
    the other queries sharing the call.
    """
    M = U.shape[1]
    gram = np.empty((n, M, M))
    rhs = np.empty((n, M))
    for i in range(M):
        for j in range(i, M):
            gram[:, i, j] = gram[:, j, i] = np.bincount(owner, U[:, i] * U[:, j], minlength=n)
        rhs[:, i] = np.bincount(owner, U[:, i] * y, minlength=n)
    return gram, rhs


def _min_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric matrix in a (n, M, M) stack."""
    size = m.shape[-1]
    if size == 1:
        return m[:, 0, 0].copy()
    if size == 2:
        tr = m[:, 0, 0] + m[:, 1, 1]
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        disc = np.maximum(tr * tr - 4.0 * det, 0.0)
        return (tr - np.sqrt(disc)) / 2.0
    return np.linalg.eigvalsh((m + np.swapaxes(m, -1, -2)) / 2.0)[:, 0]


def _solve(gram: np.ndarray, rhs: np.ndarray, eig_tol: float):
    """(coefficients, min eigenvalues, degenerate) of a stack of normal equations.

    A system whose Gram minimum eigenvalue is below ``eig_tol`` is
    degenerate and gets zero coefficients.
    """
    lam = _min_eigenvalues(gram)
    degenerate = lam < eig_tol
    coef = np.zeros(rhs.shape)
    ok = ~degenerate
    if ok.any():
        coef[ok] = np.linalg.solve(gram[ok], rhs[ok][:, :, None])[:, :, 0]
    return coef, lam, degenerate


def gram_matrix(x: np.ndarray, points: np.ndarray, h: float, basis: MultiIndexBasis) -> np.ndarray:
    """Moment matrix of the scaled monomials over samples in B(x, h)."""
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    points = np.atleast_2d(points)
    if len(points) == 0:
        return np.zeros((basis.M, basis.M))
    U = scaled_design(x, points[_in_ball(x, points, h)], h, basis)
    return U.T @ U


def min_eigenvalue(m: np.ndarray, sym_tol: float = 1e-10) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    Closed form for 1x1 and 2x2, a symmetric eigensolver otherwise.
    Raises if the input is not symmetric to within ``sym_tol`` entrywise.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.T), initial=0.0) > sym_tol:
        raise ValueError("matrix is not symmetric within tolerance")
    return float(_min_eigenvalues(m[None])[0])


@dataclass(frozen=True)
class LocalPolyFit:
    """One local polynomial fit at a query point.

    Coefficients are reported in the scaled basis ((u - x)/h)^r; the
    estimate at the query is the coefficient of the zero index.  A
    degenerate fit (Gram minimum eigenvalue below tolerance) carries zero
    coefficients and estimate 0.
    """

    query: np.ndarray
    bandwidth: float
    coefficients: np.ndarray
    gram: np.ndarray
    min_eigenvalue: float
    n_in_ball: int
    degenerate: bool


def _check_inputs(h: float, points: np.ndarray, rewards: np.ndarray) -> None:
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    if len(points) != len(rewards):
        raise ValueError("points and rewards must have equal length")
    if rewards.size and not np.all(np.isfinite(rewards)):
        raise ValueError("rewards must be finite")


def local_poly_estimate(
    x: np.ndarray,
    points: np.ndarray,
    rewards: np.ndarray,
    h: float,
    basis: MultiIndexBasis,
    eig_tol: float | None = None,
) -> tuple[float, LocalPolyFit]:
    """Least-squares polynomial value at ``x`` from samples within B(x, h).

    Solves the normal equations on the scaled-monomial Gram system; the
    returned value is independent of the scaling.  Returns 0 with
    ``degenerate=True`` when the system is rank deficient at tolerance
    ``eig_tol`` (default ``1e-8 * M``), including the empty-ball case.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    points = np.atleast_2d(points)
    rewards = np.asarray(rewards, dtype=float).reshape(-1)
    _check_inputs(h, points, rewards)
    if eig_tol is None:
        eig_tol = default_eig_tol(basis)

    if len(points):
        mask = _in_ball(x, points, h)
        U = scaled_design(x, points[mask], h, basis)
        y = rewards[mask]
    else:
        U = np.zeros((0, basis.M))
        y = np.zeros(0)
    gram, rhs = _moments(U, y, np.zeros(len(y), dtype=np.intp), 1)
    coef, lam, degenerate = _solve(gram, rhs, eig_tol)
    fit = LocalPolyFit(x, h, coef[0], gram[0], float(lam[0]), len(y), bool(degenerate[0]))
    return float(coef[0, 0]), fit


class CenterFits(NamedTuple):
    """Per-query results of ``fit_at_centers``, each of length n_centers."""

    values: np.ndarray
    degenerate: np.ndarray
    min_eigs: np.ndarray
    n_in_ball: np.ndarray


def _blocks(counts: np.ndarray):
    """(start, stop) runs of consecutive queries with at most _FIT_ROWS rows and queries.

    A query with more rows than that gets a block of its own.
    """
    limit = _FIT_ROWS
    ends = np.cumsum(counts)
    start = 0
    while start < len(counts):
        base = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, base + limit, side="right"))
        stop = min(max(stop, start + 1), start + limit)
        yield start, stop
        start = stop


def _neighborhood_blocks(centers: np.ndarray, points: np.ndarray, h: float):
    """Yield (start, stop, rows, counts): the sample indices within ``h`` of
    ``centers[start:stop]``, flattened in query order, and their count per query.

    The kd-tree is queried one block at a time, so the lists it returns
    stay bounded.
    """
    if points.shape[1] == 1:
        order = np.argsort(points[:, 0], kind="stable")
        ordered = points[order, 0]
        lo = np.searchsorted(ordered, centers[:, 0] - h, side="left")
        counts = np.searchsorted(ordered, centers[:, 0] + h, side="right") - lo
        for start, stop in _blocks(counts):
            c = counts[start:stop]
            shift = np.repeat(lo[start:stop] - (np.cumsum(c) - c), c)
            yield start, stop, order[np.arange(len(shift)) + shift], c
        return
    tree = cKDTree(points)
    for start, stop in _blocks(tree.query_ball_point(centers, h, return_length=True)):
        lists = tree.query_ball_point(centers[start:stop], h, return_sorted=True)
        c = np.fromiter(map(len, lists), dtype=np.intp, count=stop - start)
        rows = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp, count=int(c.sum()))
        yield start, stop, rows, c


def fit_at_centers(
    centers: np.ndarray,
    points: np.ndarray,
    rewards: np.ndarray,
    h: float,
    basis: MultiIndexBasis,
    eig_tol: float | None = None,
) -> CenterFits:
    """Local polynomial value at every center from the samples within ``h``.

    Each center gets the fit ``local_poly_estimate`` makes from the same
    samples: value 0 and the degenerate flag where the Gram minimum
    eigenvalue is below ``eig_tol`` (default ``1e-8 * M``).  The samples of
    a center are those in the window [c - h, c + h] of the sorted samples in
    one dimension, and those a kd-tree finds within ``h`` otherwise.
    Centers are processed in blocks of at most ``_FIT_ROWS`` in-ball rows,
    so memory stays bounded for any number of centers; the results do not
    depend on the block size.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rewards = np.asarray(rewards, dtype=float).reshape(-1)
    _check_inputs(h, points, rewards)
    if eig_tol is None:
        eig_tol = default_eig_tol(basis)
    n = len(centers)
    values = np.zeros(n)
    degenerate = np.zeros(n, dtype=bool)
    min_eigs = np.empty(n)
    n_in_ball = np.zeros(n, dtype=np.intp)
    for start, stop, rows, counts in _neighborhood_blocks(centers, points, h):
        owner = np.repeat(np.arange(stop - start), counts)
        U = scaled_design(centers[start:stop][owner], points[rows], h, basis)
        gram, rhs = _moments(U, rewards[rows], owner, stop - start)
        coef, min_eigs[start:stop], degenerate[start:stop] = _solve(gram, rhs, eig_tol)
        values[start:stop] = coef[:, 0]
        n_in_ball[start:stop] = counts
    return CenterFits(values, degenerate, min_eigs, n_in_ball)

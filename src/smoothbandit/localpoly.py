"""Local polynomial regression with an indicator kernel.

Fits a polynomial of bounded total degree by least squares over the
samples inside a closed ball around the query point.  Monomials are
centered at the query and scaled by the bandwidth, so the Gram matrix of
the design doubles as the conditioning diagnostic: a fit whose Gram
minimum eigenvalue falls below ``default_eig_tol`` is declared degenerate
and reports the value 0.

Every fit goes through one kernel, ``_block_fits``, a sweep over rows of
queries: the queries that share every coordinate but the last form a row.
Each sample pairs with the rows whose strip on the other axes holds it and
lies in the balls of a contiguous run of each row's queries, found without
a binary search per run end: at ``d = 1`` by one search of the sorted
samples, otherwise through a bucket index over the rows' queries, which
bisects only buckets of several queries.  Adding
its raw moments at the run's start and subtracting them at its end, a
running sum along the row gives every query's raw moments about a nearby
origin, and a binomial shift turns them into the query's Gram matrix and
moment vector.  Raw moments are summed in chunks and the fits made in
batches of consecutive chunks.  One vectorized elimination without
pivoting, ``_eliminate``, runs over a whole batch of fits, one array per
matrix entry: ``_solve`` makes the fits with it, and the pivot test
``_above`` shares it.  The Gram
minimum eigenvalue is read only through the degenerate flag and the
smallest value over the fits, so ``_eigen_filter`` computes it only for
the few fits that could set either and proves the rest above both.  The
cost grows with the (row, sample) pairs and the queries, not with the
in-ball samples of every query.  ``fit_at_centers`` fits many queries with
it; ``local_poly_estimate`` and ``gram_matrix`` are its one-query case,
with the same in-ball samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Origin blocks span less than this fraction of the bandwidth along a row:
# the first value for bases of degree l <= 1, the second for l >= 2
# (``_origin_span``).  Narrower blocks cost more (pair, block) terms but
# round less in the running sums and the binomial shift, which carries a
# moment of degree p from the block origin to a query |s| h away and scales
# its rounding by at most (1 + |s|)^p.  The Gram matrix needs p <= 2 l.  At
# l <= 1, blocks h / 2 wide keep |s| <= 1/4, a factor of at most 1.56; h / 8
# blocks already reach 1.44 at l = 3, where wider ones lost precision: at
# l = 2, blocks h / 4 wide put a thin ball beside a sample-free band within
# 1% of the kernel tests' error bound.  Blocks h wide failed them at l = 1.
_ORIGIN_SPAN = (0.5, 0.125)
# Work held at once by ``_block_fits``: candidate (row, sample) pairs per
# group of rows, (pair, origin block) terms plus M per query in a chunk of
# whole origin blocks, and M^2 Gram entries per query in a batch of chunks.
_CHUNK = 2**15
# Fits of a batch whose Gram minimum eigenvalues ``_eigen_filter`` computes
# first, to set the threshold that lets it skip most of the others.
_PICKS = 16


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


def _eliminate(a: dict, size: int, rhs: list | None = None) -> np.ndarray:
    """Symmetric elimination without pivoting over a stack of matrices; where every pivot is positive.

    ``a`` maps each lower-triangle entry ``(i, k)``, ``i >= k``, of the
    ``size x size`` matrices to one array over the stack, and ``rhs``, if
    given, lists one array per right-hand-side entry.  Step ``j`` subtracts
    ``a[i, j] * (1 / a[j, j])`` times row ``j`` from each row ``i > j``, on
    the entries ``(i, k)`` with ``j < k <= i`` and on ``rhs[i]``; the
    multiplier scales by the pivot's reciprocal, as LAPACK's LU does.  Both
    are updated in place: afterwards ``a[j, j]`` is pivot ``j`` and
    ``a[k, j]``, ``k > j``, entry ``(j, k)`` of the upper triangular
    factor.  A matrix with a non-positive pivot goes on with whatever values
    follow, inf or NaN included, without a warning; the caller does not
    read them.
    """
    ok = np.ones(len(a[0, 0]), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(size):
            ok &= a[j, j] > 0
            reciprocal = 1.0 / a[j, j]
            for i in range(j + 1, size):
                factor = a[i, j] * reciprocal
                for k in range(j + 1, i + 1):
                    a[i, k] = a[i, k] - factor * a[k, j]
                if rhs is not None:
                    rhs[i] = rhs[i] - factor * rhs[j]
    return ok


def _lower(gram: np.ndarray) -> dict:
    """The lower triangle of a (n, M, M) stack, one array over the stack per entry."""
    return {(i, k): gram[:, i, k] for i in range(gram.shape[-1]) for k in range(i + 1)}


def _above(gram: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Where ``gram - tau I`` has all pivots positive, by ``_eliminate``."""
    a = _lower(gram)
    for j in range(gram.shape[-1]):
        a[j, j] = a[j, j] - tau
    return _eliminate(a, gram.shape[-1])


def _solve(gram: np.ndarray, rhs: np.ndarray, degenerate: np.ndarray) -> np.ndarray:
    """Solutions (n, M) of ``gram[i] @ coef[i] = rhs[i]``, zero where ``degenerate``.

    Every system goes through ``_eliminate`` and back substitution, from the
    last unknown to the first.  The non-degenerate Gram matrices are
    positive definite, so elimination without pivoting is backward stable
    on them, as Cholesky is.  A non-degenerate system whose elimination
    still meets a non-positive pivot, a matrix positive definite only to
    within rounding, is solved by ``np.linalg.solve`` instead.
    """
    size = gram.shape[-1]
    a = _lower(gram)
    b = [rhs[:, i] for i in range(size)]
    ok = _eliminate(a, size, b)
    x = [None] * size
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(size - 1, -1, -1):
            x[j] = b[j]
            for k in range(j + 1, size):
                x[j] = x[j] - a[k, j] * x[k]
            x[j] = x[j] / a[j, j]
    coef = np.stack(x, axis=1)
    coef[degenerate] = 0.0
    lost = ~ok & ~degenerate
    if lost.any():
        coef[lost] = np.linalg.solve(gram[lost], rhs[lost][:, :, None])[:, :, 0]
    return coef


def _eigen_filter(gram: np.ndarray, eig_tol: float) -> np.ndarray:
    """``_min_eigenvalues(gram)`` of a non-empty (n, M, M) stack, bit for bit,
    except ``inf`` for a matrix whose value is proven to be at least both
    ``eig_tol`` and the least value returned.

    So ``lam < eig_tol`` and ``lam.min()`` are those of ``_min_eigenvalues``.
    Up to M = 2, or for at most ``_PICKS`` matrices, every value is
    computed.  Otherwise the ``_PICKS`` matrices with the smallest diagonal
    entry, an upper bound on the smallest eigenvalue, are computed first,
    and ``t = max(their least value, eig_tol)``.  A matrix G for which
    ``G - tau I`` has all pivots positive, with ``tau = t + 64 M^2 eps |G|``,
    eps the machine epsilon and |G| the sum of its absolute entries (a bound
    on its 2-norm), gets ``inf``: the computed pivots make ``G - tau I``
    plus a perturbation of 2-norm about ``(M + 1) M eps |G|`` positive
    definite (the backward error of elimination with positive pivots, and
    the rounding of the diagonal), and ``eigvalsh`` returns the smallest
    eigenvalue to within a small multiple of ``M eps |G|`` (a backward
    stable reduction), so its value would be at least ``t``.  The rest are
    computed.
    """
    n, size = gram.shape[:2]
    if size <= 2 or n <= _PICKS:
        return _min_eigenvalues(gram)
    lam = np.full(n, np.inf)
    least_diagonal = np.minimum.reduce([gram[:, i, i] for i in range(size)])
    picks = np.argpartition(least_diagonal, _PICKS - 1)[:_PICKS]
    lam[picks] = _min_eigenvalues(gram[picks])
    t = max(lam[picks].min(), eig_tol)
    norm = np.abs(gram).reshape(n, -1) @ np.ones(size * size)
    tau = t + 64 * size * size * np.finfo(float).eps * norm
    rest = ~_above(gram, tau)
    rest[picks] = False
    lam[rest] = _min_eigenvalues(gram[rest])
    return lam


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    Closed form for 1x1 and 2x2, a symmetric eigensolver otherwise.
    Raises if the input is not symmetric to within 1e-10 entrywise.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.T), initial=0.0) > 1e-10:
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


class CenterFits(NamedTuple):
    """Results of ``fit_at_centers``: per query, of length n_centers, except
    ``min_eig``, the smallest Gram minimum eigenvalue over the queries
    (``inf`` for none)."""

    values: np.ndarray
    degenerate: np.ndarray
    min_eig: float
    n_in_ball: np.ndarray


def _checked_inputs(centers, points, rewards, h: float):
    """(centers, points, rewards) as float arrays of shapes (n, d), (N, d), (N,)."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rewards = np.asarray(rewards, dtype=float).reshape(-1)
    if not 0 < h < math.inf:
        raise ValueError(f"bandwidth must be a finite positive number, got {h}")
    if not np.all(np.isfinite(centers)):
        raise ValueError("centers must be finite")
    if centers.shape[1] != points.shape[1]:
        raise ValueError(f"queries have dimension {centers.shape[1]}, samples {points.shape[1]}")
    if len(points) != len(rewards):
        raise ValueError("points and rewards must have equal length")
    if rewards.size and not np.all(np.isfinite(rewards)):
        raise ValueError("rewards must be finite")
    return centers, points, rewards


def _origin_span(basis: MultiIndexBasis) -> float:
    """The width of ``basis``'s origin blocks over the bandwidth, from its degree (``_ORIGIN_SPAN``)."""
    return _ORIGIN_SPAN[0] if basis.l <= 1 else _ORIGIN_SPAN[1]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + n)`` over the pairs of ``starts`` and ``lengths``."""
    offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return offsets + np.arange(len(offsets))


def _coverage(start: np.ndarray, stop: np.ndarray, n: int) -> np.ndarray:
    """How many of the intervals [start, stop) cover each of ``range(n)``."""
    return np.cumsum(np.bincount(start, minlength=n + 1) - np.bincount(stop, minlength=n + 1))[:-1]


def _spans(weights: np.ndarray, limit: int):
    """(start, stop) runs of consecutive items whose weights sum to at most ``limit``.

    An item heavier than that gets a run of its own.
    """
    ends = np.cumsum(weights)
    start = 0
    while start < len(weights):
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + limit, side="right")), start + 1)
        yield start, stop
        start = stop


def _product(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """``a * b``, where ``None`` stands for a factor of ones."""
    if a is None:
        return b
    return a if b is None else a * b


def _powers(v: np.ndarray, top: int) -> list:
    """``[None, v, v * v, ...]`` up to ``v^top`` by repeated products, ``None`` standing for ones."""
    out = [None, v]
    for _ in range(2, top + 1):
        out.append(out[-1] * v)
    return out


def _bincount(at: np.ndarray, weights: np.ndarray | None, n: int) -> np.ndarray:
    """Float sums of ``weights`` (ones for ``None``) at each of ``range(n)``, in input order."""
    return np.bincount(at, weights, minlength=n).astype(float, copy=False)


def _monomials(u: np.ndarray, exponents) -> dict:
    """``{e: prod_k u[:, k] ** e[k]}`` for each exponent tuple, by repeated products.

    The zero exponent maps to ``None``, a column of ones.
    """
    top = max((max(e, default=0) for e in exponents), default=0)
    powers = [_powers(u[:, k], top) for k in range(u.shape[1])]
    out = {}
    for e in exponents:
        column = None
        for k, p in enumerate(e):
            column = _product(column, powers[k][p])
        out[e] = column
    return out


class _Pairs(NamedTuple):
    """(row, sample) pairs, each in the ball of a run of the row's queries.

    ``u`` holds the key-axis offsets ``(x_k - c_k) / h``, ``x`` the last
    coordinate, ``y`` the reward; the run is the sorted positions
    [start, stop), which meet the origin blocks first_block..last_block.
    """

    u: np.ndarray
    x: np.ndarray
    y: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    first_block: np.ndarray
    last_block: np.ndarray


def _stable_order(values: np.ndarray):
    """``np.argsort(values, kind="stable")`` and the sorted values.

    The default sort is faster.  When its sorted values increase strictly,
    no two values compare equal, so every sort gives that order; otherwise
    (ties, NaN, ``-0.0`` beside ``0.0``) the stable sort decides.
    """
    order = np.argsort(values)
    ordered = values[order]
    if not np.all(ordered[1:] > ordered[:-1]):
        order = np.argsort(values, kind="stable")
        ordered = values[order]
    return order, ordered


class _Buckets:
    """A bucket index over the sorted last coordinates ``c`` of a group of
    rows, row i holding ``c[first[i]:end[i]]``.

    Row i, of n queries spanning s, has ``top[i] = 2 n`` buckets of width
    s / (2 n) from its first query, plus one below and one above, numbered
    from ``base[i]``; ``of`` gives the bucket of a value.  The bucket never
    decreases as the value grows, and queries and values go through the same
    ``of``, so a query in an earlier bucket than a value is below it and one
    in a later bucket above it.  ``below[b]`` counts the queries in the
    buckets before b, and ``held[b]`` those in b.  A row of zero span has
    ``scale`` 2 n / 0 = inf: its queries, and every value at or below them,
    fall in the below bucket, and every value above them in the above one.
    (A span beyond the largest float gives ``scale`` 0 and breaks that
    order; ``_Sweep._runs`` then moves each end to its place.)
    """

    def __init__(self, c: np.ndarray, first: np.ndarray, end: np.ndarray):
        self.c = c
        self.origin = c[first]
        self.top = 2 * (end - first)
        with np.errstate(divide="ignore", over="ignore"):
            self.scale = self.top / (c[end - 1] - self.origin)
        self.base = np.cumsum(self.top + 2) - (self.top + 2)
        (bucket,) = self.of(np.repeat(np.arange(len(first)), end - first), c)
        self.held = np.bincount(bucket, minlength=self.base[-1] + self.top[-1] + 2)
        self.below = np.cumsum(self.held) - self.held

    def of(self, i: np.ndarray, *values: np.ndarray) -> list[np.ndarray]:
        """The bucket of each value in row ``i``, for each array of values; a NaN falls below.

        Each field of the rows is gathered once for all the arrays, and one
        at a time, each dropped once used: with all four gathered first, the
        larger working set made replayed calls about 10% slower, also with
        the freed memory kept in the heap.
        """
        field = self.origin.take(i)
        with np.errstate(invalid="ignore"):  # 0 * inf at a zero-span row's queries
            t = [value - field for value in values]
            field = self.scale.take(i)
            for u in t:
                u *= field
        field = self.top.take(i)
        for u in t:
            np.floor(u, out=u)
            np.fmax(u, -1.0, out=u)
            np.fmin(u, field, out=u)
        field = self.base.take(i) + 1
        return [field + u.astype(np.intp) for u in t]

    def place(self, i: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``searchsorted`` of each non-NaN value in row ``i``, as positions in ``c``:
        side ``"left"`` for ``lo`` and ``"right"`` for ``hi``, from one gather of the rows.

        A value's bucket holds the queries ``c[below[b]:below[b] + held[b]]``.
        An empty bucket places it by the queries before it, a bucket of one
        query by one compare with that query, and a bucket of more by a
        bisection over its queries.
        """
        buckets = self.of(i, lo, hi)
        return self._search(buckets[0], lo, np.less), self._search(buckets[1], hi, np.less_equal)

    def _search(self, bucket: np.ndarray, value: np.ndarray, before) -> np.ndarray:
        """Positions of the values in their buckets; ``before`` is ``np.less`` for side
        ``"left"`` and ``np.less_equal`` for ``"right"``."""
        held = self.held.take(bucket)
        pos = self.below.take(bucket)
        pos += (held == 1) & before(self.c.take(pos, mode="clip"), value)
        crowded = np.flatnonzero(held > 1)
        if len(crowded):
            lo, n, v = pos[crowded], held[crowded], value[crowded]
            for _ in range(int(n.max()).bit_length()):
                half = n // 2
                right = (n > 0) & before(self.c.take(lo + half, mode="clip"), v)
                lo = np.where(right, lo + half + 1, lo)
                n = np.where(right, n - half - 1, half)
            pos[crowded] = lo
        return pos


class _Sweep:
    """Queries sorted into rows, rows cut into origin blocks, and each row's candidate samples.

    A row holds the queries that share every coordinate but the last; the
    sorted queries ``centers[order]`` list the rows one after another, each
    in increasing last coordinate.  An origin block is a run of a row's
    queries less than ``span * h`` wide, on a grid anchored at the row's
    first query; its origin is the midpoint of its first and last query on
    the last axis, and ``shift`` is each query's offset from its block's
    origin over ``h``.  ``_block_fits`` sets ``span`` by the basis degree
    (``_origin_span``): h / 2 wide blocks for a local constant or linear
    fit, whose Gram matrix needs moments of degree at most 2 only, and
    h / 8 for higher degrees, whose binomial shift amplifies rounding more;
    the default, h / 8, suits every degree.  Row ``r``'s candidate samples
    are ``sample_order[lo[r]:hi[r]]``: every sample at ``d = 1``,
    otherwise the sorted window ``|x_0 - c_0| <= h`` on the first axis,
    padded a little so that rounding cannot drop a sample the exact test
    keeps.

    ``pairs`` finds each candidate pair's run of queries.  At ``d = 1`` one
    ``searchsorted`` of the sorted samples gives every run exactly.
    Otherwise each group of rows gets a ``_Buckets`` index, which places
    each run end with at most one compare, or by a bisection over a bucket
    of several queries.
    """

    def __init__(self, centers: np.ndarray, points: np.ndarray, h: float, span: float = _ORIGIN_SPAN[1]):
        n = len(centers)
        self.h = h
        self.order = np.lexsort(centers.T[::-1])
        ordered = centers[self.order]
        self.last = ordered[:, -1]
        new_row = np.ones(n, dtype=bool)
        new_row[1:] = np.any(ordered[1:, :-1] != ordered[:-1, :-1], axis=1)
        self.row_start = np.flatnonzero(new_row)
        self.row_end = np.append(self.row_start[1:], n)
        self.keys = ordered[self.row_start, :-1]
        row_of = np.cumsum(new_row) - 1
        cell = np.floor((self.last - self.last[self.row_start][row_of]) / (span * h))
        new_block = new_row.copy()
        new_block[1:] |= cell[1:] != cell[:-1]
        self.block_of = np.cumsum(new_block) - 1
        self.block_start = np.flatnonzero(new_block)
        self.block_end = np.append(self.block_start[1:], n)
        self.origin = (self.last[self.block_start] + self.last[self.block_end - 1]) / 2
        self.shift = (self.last - self.origin[self.block_of]) / h

        self.sample_order, self._first_axis = _stable_order(points[:, 0])
        if centers.shape[1] == 1:
            self.lo, self.hi = np.zeros(1, dtype=np.intp), np.full(1, len(points))
        else:
            reach = h + 1e-9 * (h + np.abs(self.keys[:, 0]))
            self.lo = np.searchsorted(self._first_axis, self.keys[:, 0] - reach, side="left")
            self.hi = np.searchsorted(self._first_axis, self.keys[:, 0] + reach, side="right")

    def _runs(self, row: np.ndarray, x: np.ndarray, w: np.ndarray, r0: int, r1: int):
        """Sorted positions [start, stop) of the queries c of ``row`` with c - w <= x <= c + w.

        Every row lies in r0:r1.  The rule is monotone along a row, so its
        queries form a run.  The rows' bucket index puts each end at the
        ``searchsorted`` position of x - w or x + w along the row, which can
        differ from the rule's by a rounding; testing the rule on the query
        just inside and just outside an end, until neither moves it, fixes
        the end.
        """
        c = self.last
        first, end = self.row_start[row], self.row_end[row]
        p0, p1 = self.row_start[r0], self.row_end[r1 - 1]
        index = _Buckets(c[p0:p1], self.row_start[r0:r1] - p0, self.row_end[r0:r1] - p0)
        start, stop = index.place(row - r0, x - w, x + w)
        start += p0
        stop += p0

        def settle(pos, move, test):
            while (hit := test(pos)).any():
                pos[hit] += move

        top = len(c) - 1
        settle(start, -1, lambda p: (p > first) & (x <= c[p - 1] + w))
        settle(start, 1, lambda p: (p < end) & (x > c[np.minimum(p, top)] + w))
        settle(stop, -1, lambda p: (p > first) & (c[p - 1] - w > x))
        settle(stop, 1, lambda p: (p < end) & (c[np.minimum(p, top)] - w <= x))
        return start, np.maximum(start, stop)

    def pairs(self, r0: int, r1: int, points: np.ndarray, rewards: np.ndarray) -> _Pairs:
        """The pairs of rows r0:r1 with a non-empty run, by row and then sample order.

        At ``d = 1`` there is one row and every sample is a candidate, with
        ``w = sqrt(h^2)``.  ``fl(c + w)`` and ``fl(c - w)`` do not decrease
        along the row, so ``searchsorted`` of the sorted samples among them
        gives each run exactly.  Otherwise a candidate pair is kept when
        ``r2 = sum_{k < d-1} (x_k - c_k)^2 <= h^2``; its run is then that of
        ``_runs`` with ``w = sqrt(h^2 - r2)``.
        """
        h = self.h
        if self.keys.shape[1] == 0:
            w = np.sqrt(h * h)
            x = self._first_axis
            start = np.searchsorted(self.last + w, x, side="left")
            stop = np.searchsorted(self.last - w, x, side="right")
            hit = stop > start
            start, stop = start[hit], stop[hit]
            return _Pairs(np.empty((len(start), 0)), x[hit], rewards[self.sample_order[hit]], start, stop,
                          self.block_of[start], self.block_of[stop - 1])
        width = self.hi[r0:r1] - self.lo[r0:r1]
        row = np.repeat(np.arange(r0, r1), width)
        sample = self.sample_order[_ranges(self.lo[r0:r1], width)]
        offset = points[sample, :-1] - self.keys[row]
        r2 = np.zeros(len(row))
        for k in range(offset.shape[1]):
            r2 += offset[:, k] * offset[:, k]
        near = r2 <= h * h
        row, sample, offset, r2 = row[near], sample[near], offset[near], r2[near]
        x = points[sample, -1]
        start, stop = self._runs(row, x, np.sqrt(h * h - r2), r0, r1)
        hit = stop > start
        start, stop = start[hit], stop[hit]
        return _Pairs(offset[hit] / h, x[hit], rewards[sample[hit]], start, stop,
                      self.block_of[start], self.block_of[stop - 1])

    def raw_moments(self, pairs: _Pairs, factors: dict, columns, c0: int, c1: int) -> np.ndarray:
        """Raw moments (n, K) of the queries of origin blocks c0:c1, about their blocks' origins.

        Column k, ``(factor, q)`` of ``columns``, sums ``factors[factor] *
        v^q`` over a query's in-ball pairs, with ``v = (x - origin) / h``.
        Each pair adds its term at the first query of its run in a block and
        subtracts it after the run's last; a running sum within each block
        then gives every query's moments (``_running_sums``).  A block's
        sums do not depend on which other blocks share the call.

        The (pair, block) terms come from per-pair arrays: each picked pair's
        ``x`` and factors are taken once and repeated over its blocks in
        c0:c1.  A run starts in its first block, so a term adds at its
        block's start, except a pair's first term in c0:c1, which adds at
        ``max(start, block start)``.  A run can end inside a block only in
        its last one, so the subtraction terms are those of the pairs whose
        last block lies in c0:c1 and ends after ``stop``, one a pair.  Each
        query's additions and subtractions are each summed in pair order.
        """
        q0, q1 = self.block_start[c0], self.block_end[c1 - 1]
        pick = np.flatnonzero((pairs.first_block < c1) & (pairs.last_block >= c0))
        last = pairs.last_block.take(pick)
        lo = np.maximum(pairs.first_block.take(pick), c0)
        count = np.minimum(last, c1 - 1) - lo + 1
        head = np.cumsum(count) - count  # each pair's first term
        block = np.repeat(lo - head, count)
        block += np.arange(len(block))
        add_at = self.block_start.take(block)
        add_at[head] = np.maximum(pairs.start.take(pick), self.block_start.take(lo))
        add_at -= q0
        stop = pairs.stop.take(pick)
        ends = (last < c1) & (stop < self.block_end.take(last))
        sub_at = stop[ends] - q0
        x = pairs.x.take(pick)
        v = np.repeat(x, count)
        v -= self.origin.take(block)
        v /= self.h
        v_end = (x[ends] - self.origin.take(last[ends])) / self.h
        top = max(q for _, q in columns)
        v_powers, end_powers = _powers(v, top), _powers(v_end, top)
        n = q1 - q0
        raw = np.empty((n, len(columns)))
        spread, ended = {}, {}
        for k, (factor, q) in enumerate(columns):
            if factor not in spread:
                picked = None if factors[factor] is None else factors[factor].take(pick)
                spread[factor] = None if picked is None else np.repeat(picked, count)
                ended[factor] = None if picked is None else picked[ends]
            raw[:, k] = (_bincount(add_at, _product(spread[factor], v_powers[q]), n)
                         - _bincount(sub_at, _product(ended[factor], end_powers[q]), n))
        query_block = self.block_of[q0:q1]
        return _running_sums(raw, query_block - c0, np.arange(q0, q1) - self.block_start[query_block])


def _running_sums(raw: np.ndarray, block: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Running sums of the rows of ``raw`` (n, K) within each block, in position order.

    Row ``i`` sits at position ``step[i]`` of block ``block[i]``, blocks
    numbered from 0.  The blocks lie side by side in a zero-padded
    ``(width, blocks, K)`` array, and one ``np.add.accumulate`` along the
    positions adds each block's rows in order, as a loop over the
    positions would, so the sums are that loop's bit for bit.  Positions
    lead, not blocks: NumPy accumulates lane by lane, and this layout
    measured faster both for many narrow blocks (``d = 2``) and for a few
    wide ones (``d = 1``).
    """
    blocks = int(block.max()) + 1
    padded = np.zeros((int(step.max()) + 1, blocks, raw.shape[1]))
    at = step * blocks + block
    padded.reshape(-1, raw.shape[1])[at] = raw
    return np.add.accumulate(padded, axis=0).reshape(-1, raw.shape[1]).take(at, axis=0)


@dataclass(frozen=True)
class _MomentPlan:
    """Raw moment columns of a basis and the binomial shift that centers them.

    Column ``k`` is the multi-index ``columns[k]``: a key part on the first
    d - 1 axes and a power ``p`` of the last.  Raw moments are taken about a
    block origin; about a query ``s`` further along the last axis the
    centered moment is ``sum_q binom(p, q) (-s)^(p - q) raw[key, q]``, whose
    terms ``shift[k]`` lists as (raw column, binomial, power of -s), the
    ``q = p`` term first.
    """

    columns: tuple[tuple[int, ...], ...]
    shift: tuple[tuple[tuple[int, int, int], ...], ...]

    @classmethod
    def of(cls, basis: MultiIndexBasis) -> "_MomentPlan":
        column = {r: k for k, r in enumerate(basis.indices)}
        shift = tuple(
            tuple((column[(*r[:-1], q)], math.comb(r[-1], q), r[-1] - q) for q in range(r[-1], -1, -1))
            for r in basis.indices
        )
        return cls(basis.indices, shift)

    def centered(self, raw: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Centered moments (n, K) from raw moments (n, K) and query offsets ``s``."""
        powers = _powers(-s, max(len(terms) for terms in self.shift) - 1)
        out = np.empty_like(raw)
        for k, ((top, _, _), *rest) in enumerate(self.shift):
            out[:, k] = raw[:, top]
            for source, binom, e in rest:
                out[:, k] += (binom * powers[e]) * raw[:, source]
        return out


@functools.cache
def _plans(basis: MultiIndexBasis):
    """(gram_plan, rhs_plan, columns, entry) of a basis, built once.

    The plans shift the raw moments of the doubled basis (the Gram matrix's
    entries) and of the basis (the moment vector); ``columns`` lists each raw
    moment column as ((key part, times the reward?), last-axis power), the
    Gram plan's first; ``entry[m1, m2]`` is the Gram plan column of Gram
    entry (m1, m2).  ``entry`` is read-only, as every call shares it.
    """
    gram_plan = _MomentPlan.of(enumerate_basis(basis.d, 2 * basis.l))
    rhs_plan = _MomentPlan.of(basis)
    columns = tuple([((r[:-1], False), r[-1]) for r in gram_plan.columns]
                    + [((r[:-1], True), r[-1]) for r in rhs_plan.columns])
    gram_column = {r: k for k, r in enumerate(gram_plan.columns)}
    entry = np.array([[gram_column[tuple(np.add(r1, r2))] for r2 in basis.indices] for r1 in basis.indices])
    entry.flags.writeable = False
    return gram_plan, rhs_plan, columns, entry


def _block_fits(centers: np.ndarray, points: np.ndarray, rewards: np.ndarray, h: float,
                basis: MultiIndexBasis):
    """Yield (index, counts, gram, coef, min_eig, degenerate) per batch of
    whole origin blocks: the queries ``centers[index]`` with their in-ball
    sample counts, Gram matrices and scaled coefficients, the smallest Gram
    minimum eigenvalue over the batch, and the degenerate flags.

    A sample x is in the ball of query c when ``r2 = sum_{k < d-1} (x_k -
    c_k)^2 <= h^2`` and then ``c_last - w <= x_last <= c_last + w`` with
    ``w = sqrt(h^2 - r2)``, each side rounded once.  At ``d = 1`` this is
    ``c - h <= x <= c + h``.

    The inputs are as ``_checked_inputs`` returns them.  ``_Sweep`` pairs
    rows of queries with samples and finds each pair's run of queries;
    ``_Sweep.raw_moments`` sums the pairs over the runs, and the binomial
    shift of ``_MomentPlan`` turns a query's raw moments into its Gram
    matrix and moment vector.  A query with no in-ball sample gets a zero
    Gram matrix.  Rows are taken in groups of about ``_CHUNK`` candidate
    pairs, and each group's origin blocks in chunks of about ``_CHUNK``
    (pair, block) terms plus ``M`` per query, whose raw moments are summed
    one chunk at a time.  Consecutive chunks of a group then make one batch
    of fits, written into one array, while the batch holds at most
    ``_CHUNK`` Gram entries, ``M^2`` a query; a heavier chunk is a batch of
    its own.  A fit whose Gram minimum eigenvalue is below
    ``default_eig_tol(basis)`` is degenerate and has zero coefficients;
    ``_eigen_filter`` gives each batch's flags and minimum exactly, calling
    ``eigvalsh`` on the few fits that could set them.  ``_solve`` then
    solves every system of the batch by one vectorized elimination and
    zeroes the degenerate ones.  Each fit works on its own matrix, and the
    flags and minimum are exact for any batch, so no result depends on how
    the queries are cut into chunks or batches.
    """
    if len(centers) == 0:
        return
    eig_tol = default_eig_tol(basis)
    gram_plan, rhs_plan, columns, entry = _plans(basis)
    K = len(gram_plan.columns)
    sweep = _Sweep(centers, points, h, _origin_span(basis))
    for r0, r1 in _spans(sweep.hi - sweep.lo + sweep.row_end - sweep.row_start, _CHUNK):
        pairs = sweep.pairs(r0, r1, points, rewards)
        p0, p1 = sweep.row_start[r0], sweep.row_end[r1 - 1]
        counts = _coverage(pairs.start - p0, pairs.stop - p0, p1 - p0)
        key_powers = _monomials(pairs.u, {key for (key, _), _ in columns})
        factors = {(key, reward): _product(key_powers[key], pairs.y if reward else None)
                   for (key, reward), _ in columns}
        b0, b1 = sweep.block_of[p0], sweep.block_of[p1 - 1] + 1
        terms = _coverage(pairs.first_block - b0, pairs.last_block + 1 - b0, b1 - b0)
        queries = sweep.block_end[b0:b1] - sweep.block_start[b0:b1]
        chunks = b0 + np.array(list(_spans(terms + basis.M * queries, _CHUNK)))
        sizes = sweep.block_end[chunks[:, 1] - 1] - sweep.block_start[chunks[:, 0]]
        for k0, k1 in _spans(sizes * basis.M**2, _CHUNK):
            q0, q1 = sweep.block_start[chunks[k0, 0]], sweep.block_end[chunks[k1 - 1, 1] - 1]
            raw = np.empty((q1 - q0, len(columns)))
            for c0, c1 in chunks[k0:k1]:
                raw[sweep.block_start[c0] - q0:sweep.block_end[c1 - 1] - q0] = sweep.raw_moments(
                    pairs, factors, columns, c0, c1)
            s = sweep.shift[q0:q1]
            gram = gram_plan.centered(raw[:, :K], s)[:, entry]
            rhs = rhs_plan.centered(raw[:, K:], s)
            count = counts[q0 - p0:q1 - p0]
            gram[count == 0] = 0.0
            lam = _eigen_filter(gram, eig_tol)
            degenerate = lam < eig_tol
            yield sweep.order[q0:q1], count, gram, _solve(gram, rhs, degenerate), lam.min(), degenerate


def local_poly_estimate(
    x: np.ndarray, points: np.ndarray, rewards: np.ndarray, h: float, basis: MultiIndexBasis
) -> tuple[float, LocalPolyFit]:
    """Least-squares polynomial value at ``x`` from samples within B(x, h).

    The one-row, one-query case of ``fit_at_centers``: the same in-ball
    samples, and bit for bit the value and degenerate flag that
    ``fit_at_centers`` gives a query alone in its row.  Its one fit is its
    batch, so ``min_eigenvalue`` is the fit's exact Gram minimum
    eigenvalue.  The value is independent of the scaling.  Returns 0 with
    ``degenerate=True`` when the Gram minimum eigenvalue is below
    ``default_eig_tol`` (``1e-8 * M``), including the empty-ball case.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    x, points, rewards = _checked_inputs(x, points, rewards, h)
    ((_, counts, gram, coef, min_eig, degenerate),) = _block_fits(x, points, rewards, h, basis)
    fit = LocalPolyFit(x[0], h, coef[0], gram[0], float(min_eig), int(counts[0]), bool(degenerate[0]))
    return float(coef[0, 0]), fit


def gram_matrix(x: np.ndarray, points: np.ndarray, h: float, basis: MultiIndexBasis) -> np.ndarray:
    """Moment matrix of the scaled monomials over samples in B(x, h).

    The ``gram`` of ``local_poly_estimate``'s fit at ``x``.
    """
    points = np.atleast_2d(points)
    return local_poly_estimate(x, points, np.zeros(len(points)), h, basis)[1].gram


def fit_at_centers(
    centers: np.ndarray, points: np.ndarray, rewards: np.ndarray, h: float, basis: MultiIndexBasis
) -> CenterFits:
    """Local polynomial value at every center from the samples within ``h``.

    Each center gets the in-ball samples ``local_poly_estimate`` uses at
    it: value 0 and the degenerate flag where the Gram minimum eigenvalue
    is below ``default_eig_tol``.  A center alone in its row gets bit for
    bit ``local_poly_estimate``'s fit; the centers of a longer row share
    running sums, which round differently.  Work is done in chunks and
    batches of whole origin blocks, so memory stays bounded for any number
    of centers; the results do not depend on their sizes.  ``min_eig`` is
    the exact smallest Gram minimum eigenvalue over the centers (``inf``
    when there are none); per-center values are not computed, as a fit
    proven well-conditioned needs none.
    """
    centers, points, rewards = _checked_inputs(centers, points, rewards, h)
    n = len(centers)
    values = np.zeros(n)
    degenerate = np.zeros(n, dtype=bool)
    min_eig = math.inf
    n_in_ball = np.zeros(n, dtype=np.intp)
    for index, counts, _, coef, batch_min, degen in _block_fits(centers, points, rewards, h, basis):
        values[index] = coef[:, 0]
        min_eig = min(min_eig, float(batch_min))
        degenerate[index] = degen
        n_in_ball[index] = counts
    return CenterFits(values, degenerate, min_eig, n_in_ball)

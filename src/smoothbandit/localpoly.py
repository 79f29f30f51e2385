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
lies in the balls of a contiguous run of each row's queries.  Adding its
raw moments at the run's start and subtracting them at its end, a running
sum along the row gives every query's raw moments about a nearby origin,
and a binomial shift turns them into the query's Gram matrix and moment
vector; a batched solve call then makes the fits.  The Gram minimum
eigenvalue is read only through the degenerate flag and the smallest value
over the fits, so ``_eigen_filter`` computes it only for the few fits
that could set either and proves the rest above both.  The cost grows
with the (row, sample) pairs and the queries, not with the in-ball samples
of every query.  ``fit_at_centers`` fits many queries with it;
``local_poly_estimate`` and ``gram_matrix`` are its one-query case, with
the same in-ball samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Origin blocks span less than this fraction of the bandwidth along a row.
# Narrower blocks cost more (pair, block) terms but round less in the
# running sums and the binomial shift: at 1/4, a thin ball beside a
# sample-free band came within 1% of the kernel tests' error bound.
_ORIGIN_SPAN = 0.125
# Work held at once by ``_block_fits``: candidate (row, sample) pairs per
# group of rows, and (pair, origin block) terms plus M per query in a chunk
# of whole origin blocks, as a query holds an M x M Gram matrix.
_CHUNK = 2**15
# Fits of a chunk whose Gram minimum eigenvalues ``_eigen_filter`` computes
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


def _above(gram: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Where ``gram - tau I`` has all pivots positive, by symmetric elimination without pivoting.

    Works on the lower triangle, one array over the stack per entry.
    """
    size = gram.shape[-1]
    a = {(i, k): gram[:, i, k] - tau if i == k else gram[:, i, k] for i in range(size) for k in range(i + 1)}
    ok = np.ones(len(gram), dtype=bool)
    for j in range(size):
        ok &= a[j, j] > 0
        pivot = np.where(ok, a[j, j], 1.0)
        factor = {i: a[i, j] / pivot for i in range(j + 1, size)}
        for i in range(j + 1, size):
            for k in range(j + 1, i + 1):
                a[i, k] = a[i, k] - factor[i] * a[k, j]
    return ok


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
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    if centers.shape[1] != points.shape[1]:
        raise ValueError(f"queries have dimension {centers.shape[1]}, samples {points.shape[1]}")
    if len(points) != len(rewards):
        raise ValueError("points and rewards must have equal length")
    if rewards.size and not np.all(np.isfinite(rewards)):
        raise ValueError("rewards must be finite")
    return centers, points, rewards


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
    powers = {}

    def power(k: int, p: int) -> np.ndarray:
        if (k, p) not in powers:
            powers[k, p] = u[:, k] if p == 1 else power(k, p - 1) * u[:, k]
        return powers[k, p]

    out = {}
    for e in exponents:
        column = None
        for k, p in enumerate(e):
            if p:
                column = _product(column, power(k, p))
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


class _Sweep:
    """Queries sorted into rows, rows cut into origin blocks, and each row's candidate samples.

    A row holds the queries that share every coordinate but the last; the
    sorted queries ``centers[order]`` list the rows one after another, each
    in increasing last coordinate.  An origin block is a run of a row's
    queries less than ``_ORIGIN_SPAN * h`` wide, on a grid anchored at the
    row's first query; its origin is the midpoint of its first and last
    query on the last axis, and ``shift`` is each query's offset from its
    block's origin over ``h``.  Row ``r``'s candidate samples are
    ``sample_order[lo[r]:hi[r]]``: every sample at ``d = 1``, otherwise
    the sorted window ``|x_0 - c_0| <= h`` on the first axis, padded a
    little so that rounding cannot drop a sample the exact test keeps.
    """

    def __init__(self, centers: np.ndarray, points: np.ndarray, h: float):
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
        cell = np.floor((self.last - self.last[self.row_start][row_of]) / (_ORIGIN_SPAN * h))
        new_block = new_row.copy()
        new_block[1:] |= cell[1:] != cell[:-1]
        self.block_of = np.cumsum(new_block) - 1
        self.block_start = np.flatnonzero(new_block)
        self.block_end = np.append(self.block_start[1:], n)
        self.origin = (self.last[self.block_start] + self.last[self.block_end - 1]) / 2
        self.shift = (self.last - self.origin[self.block_of]) / h
        # One increasing search key over all rows: row r's last coordinates,
        # clipped to [low, low + stride - 1], plus r * stride.
        self._low = self.last.min() - 1.0
        self._stride = self.last.max() - self._low + 2.0
        self._key = self._search_key(row_of, self.last)

        self.sample_order = np.argsort(points[:, 0], kind="stable")
        if centers.shape[1] == 1:
            self.lo, self.hi = np.zeros(1, dtype=np.intp), np.full(1, len(points))
        else:
            first_axis = points[self.sample_order, 0]
            reach = h + 1e-9 * (h + np.abs(self.keys[:, 0]))
            self.lo = np.searchsorted(first_axis, self.keys[:, 0] - reach, side="left")
            self.hi = np.searchsorted(first_axis, self.keys[:, 0] + reach, side="right")

    def _search_key(self, row: np.ndarray, value: np.ndarray) -> np.ndarray:
        clipped = np.clip(value, self._low, self._low + self._stride - 1.0)
        return row * self._stride + (clipped - self._low)

    def _runs(self, row: np.ndarray, x: np.ndarray, w: np.ndarray, p0: int, p1: int):
        """Sorted positions [start, stop) of the queries c of ``row`` with c - w <= x <= c + w.

        Every row lies within the positions p0:p1.  The rule is monotone
        along a row, so its queries form a run.  ``searchsorted`` at x - w
        and x + w places each end to within a rounding; testing the rule on
        the query just inside and just outside an end, until neither moves
        it, fixes the end.
        """
        c = self.last
        first, end = self.row_start[row], self.row_end[row]
        keys = self._key[p0:p1]
        start = np.clip(p0 + np.searchsorted(keys, self._search_key(row, x - w), side="left"), first, end)
        stop = np.clip(p0 + np.searchsorted(keys, self._search_key(row, x + w), side="right"), first, end)

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

        A candidate pair is kept when ``r2 = sum_{k < d-1} (x_k - c_k)^2 <=
        h^2``; its run is then that of ``_runs`` with ``w = sqrt(h^2 - r2)``.
        """
        h = self.h
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
        start, stop = self._runs(row, x, np.sqrt(h * h - r2), self.row_start[r0], self.row_end[r1 - 1])
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


def _block_fits(centers: np.ndarray, points: np.ndarray, rewards: np.ndarray, h: float,
                basis: MultiIndexBasis):
    """Yield (index, counts, gram, coef, min_eig, degenerate) per chunk of
    whole origin blocks: the queries ``centers[index]`` with their in-ball
    sample counts, Gram matrices and scaled coefficients, the smallest Gram
    minimum eigenvalue over the chunk, and the degenerate flags.

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
    (pair, block) terms plus ``M`` per query.  A fit whose Gram minimum
    eigenvalue is below ``default_eig_tol(basis)`` is degenerate and has
    zero coefficients; ``_eigen_filter`` gives each chunk's flags and
    minimum exactly, calling ``eigvalsh`` on the few fits that could set
    them.  The other systems go through one batched solve call.
    """
    if len(centers) == 0:
        return
    eig_tol = default_eig_tol(basis)
    gram_plan = _MomentPlan.of(enumerate_basis(basis.d, 2 * basis.l))
    rhs_plan = _MomentPlan.of(basis)
    # raw moment columns: (key part, times the reward?), last-axis power
    columns = [((r[:-1], False), r[-1]) for r in gram_plan.columns]
    columns += [((r[:-1], True), r[-1]) for r in rhs_plan.columns]
    K = len(gram_plan.columns)
    gram_column = {r: k for k, r in enumerate(gram_plan.columns)}
    entry = np.array([[gram_column[tuple(np.add(r1, r2))] for r2 in basis.indices] for r1 in basis.indices])
    sweep = _Sweep(centers, points, h)
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
        for c0, c1 in _spans(terms + basis.M * queries, _CHUNK):
            c0, c1 = b0 + c0, b0 + c1
            q0, q1 = sweep.block_start[c0], sweep.block_end[c1 - 1]
            raw = sweep.raw_moments(pairs, factors, columns, c0, c1)
            s = sweep.shift[q0:q1]
            gram = gram_plan.centered(raw[:, :K], s)[:, entry]
            rhs = rhs_plan.centered(raw[:, K:], s)
            count = counts[q0 - p0:q1 - p0]
            gram[count == 0] = 0.0
            lam = _eigen_filter(gram, eig_tol)
            degenerate = lam < eig_tol
            coef = np.zeros(rhs.shape)
            ok = ~degenerate
            if ok.any():
                coef[ok] = np.linalg.solve(gram[ok], rhs[ok][:, :, None])[:, :, 0]
            yield sweep.order[q0:q1], count, gram, coef, lam.min(), degenerate


def local_poly_estimate(
    x: np.ndarray, points: np.ndarray, rewards: np.ndarray, h: float, basis: MultiIndexBasis
) -> tuple[float, LocalPolyFit]:
    """Least-squares polynomial value at ``x`` from samples within B(x, h).

    The one-row, one-query case of ``fit_at_centers``: the same in-ball
    samples, and bit for bit the value and degenerate flag that
    ``fit_at_centers`` gives a query alone in its row.  Its one fit is its
    chunk, so ``min_eigenvalue`` is the fit's exact Gram minimum
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
    running sums, which round differently.  Work is done in chunks of
    whole origin blocks, so memory stays bounded for any number of
    centers; the results do not depend on the chunk size.  ``min_eig`` is
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
    for index, counts, _, coef, chunk_min, degen in _block_fits(centers, points, rewards, h, basis):
        values[index] = coef[:, 0]
        min_eig = min(min_eig, float(chunk_min))
        degenerate[index] = degen
        n_in_ball[index] = counts
    return CenterFits(values, degenerate, min_eig, n_in_ball)

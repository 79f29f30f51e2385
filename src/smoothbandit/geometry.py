"""Hypercube grid geometry over the unit cube.

The policy partitions [0,1]^d into axis-aligned cubes of a tuned side
length and reasons about regions that are unions of whole cubes.  This
module provides the lattice bookkeeping (deterministic point-to-cube
assignment), ball volumes, and midpoint-quadrature estimates of the
fraction of a ball covered by a region, which is the primitive behind the
weak-regularity screening test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Vectorized membership test: (n, d) points -> (n,) booleans.
Predicate = Callable[[np.ndarray], np.ndarray]

# Cube classes of a classified support.  A support predicate may carry a
# ``classify_cubes(lattice)`` hook returning one class per flat cube index
# (int8): CUBE_IN when the predicate holds at every point of the unit cube
# that the lattice assigns to the cube (:meth:`GridLattice.axis_index`),
# CUBE_OUT when it holds at none of them, and CUBE_MIXED otherwise or when
# the classifier cannot certify either.  A classified support lies inside
# the unit cube.  Screening and the support mask read the classes and test
# points only in mixed cubes.
CUBE_OUT, CUBE_IN, CUBE_MIXED = 0, 1, 2


def unit_cube_support(points: np.ndarray) -> np.ndarray:
    """Default support predicate: the full unit cube."""
    points = np.atleast_2d(points)
    return np.all((points >= 0.0) & (points <= 1.0), axis=-1)


def _classify_unit_cube(lattice: "GridLattice") -> np.ndarray:
    """Every cube is wholly in the unit-cube support: it has no mixed cube."""
    return np.full(lattice.n_cubes, CUBE_IN, dtype=np.int8)


unit_cube_support.classify_cubes = _classify_unit_cube


def _classifier(support: Predicate | None):
    """The support's ``classify_cubes`` hook; ``None`` for a bare predicate."""
    return getattr(unit_cube_support if support is None else support, "classify_cubes", None)


def unit_ball_volume(d: int) -> float:
    """Volume of the Euclidean unit ball in ``d`` dimensions."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


@dataclass(frozen=True)
class GridLattice:
    """Axis-aligned cube partition of [0,1]^d.

    Cube ``j = (j_1, ..., j_d)`` has center ``(j_i + 1/2) * delta`` per
    axis.  The last cube on each axis may extend past 1 so that the cubes
    always cover the unit cube (``cells_per_axis * delta >= 1``).

    The lattice owns the flat order of its cubes, row-major over
    :attr:`shape` with the last axis fastest: :meth:`cube_index` encodes
    and :meth:`cube_ids` decodes, and every per-cube table follows them.
    """

    d: int
    delta: float
    cells_per_axis: int

    def __post_init__(self):
        if self.d < 1 or self.delta <= 0 or self.cells_per_axis < 1:
            raise ValueError("invalid lattice parameters")
        if self.cells_per_axis * self.delta < 1.0 - 1e-12:
            raise ValueError("cubes must cover the unit cube")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_axis,) * self.d

    @property
    def n_cubes(self) -> int:
        return self.cells_per_axis**self.d

    def axis_index(self, coords: np.ndarray) -> np.ndarray:
        """Per-axis cube index for raw coordinates (may fall out of range).

        A coordinate on the shared face of two cubes is equidistant from
        both centers; it is assigned to the lower-index cube, whose center
        is closer to the origin.  A coordinate in [0, 1] never lands past
        the last cube, even where ``1 / delta`` rounds above
        ``cells_per_axis``.
        """
        coords = np.asarray(coords, dtype=float)
        u = coords / self.delta
        j = np.floor(u).astype(np.int64)
        j -= (u == j) & (j > 0)
        np.minimum(j, self.cells_per_axis - 1, out=j, where=coords <= 1.0)
        return j

    def cube_index(self, points: np.ndarray) -> np.ndarray:
        """Flat cube index for each point; -1 for points off the lattice.

        Built axis by axis by Horner's rule, with the validity kept as one
        mask over the points; an off-lattice point's index may wrap around
        before it is replaced.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        j = self.axis_index(points)
        cpa = self.cells_per_axis
        flat = j[:, 0].copy()
        valid = (points[:, 0] >= 0.0) & (flat >= 0) & (flat < cpa)
        for k in range(1, self.d):
            flat *= cpa
            flat += j[:, k]
            valid &= (points[:, k] >= 0.0) & (j[:, k] >= 0) & (j[:, k] < cpa)
        return np.where(valid, flat, -1)

    def cube_ids(self, flat: np.ndarray | None = None) -> np.ndarray:
        """Per-axis cube indices of flat cube indices (every cube when ``None``), shape (n, d)."""
        if flat is None:
            flat = np.arange(self.n_cubes)
        return np.stack(np.unravel_index(flat, self.shape), axis=-1)

    def cube_id(self, flat: int) -> tuple[int, ...]:
        """Multi-index of a flat cube index."""
        if not 0 <= flat < self.n_cubes:
            raise ValueError(f"flat index {flat} out of range")
        return tuple(int(j) for j in self.cube_ids(flat))

    def center(self, cube: tuple[int, ...] | int) -> np.ndarray:
        if isinstance(cube, (int, np.integer)):
            cube = self.cube_id(int(cube))
        return (np.asarray(cube, dtype=float) + 0.5) * self.delta

    def centers(self, flat: np.ndarray | None = None) -> np.ndarray:
        """Centers of flat cube indices (every cube when ``None``), shape (n, d)."""
        return (self.cube_ids(flat) + 0.5) * self.delta


def build_lattice(horizon: int, beta: float, d: int) -> GridLattice:
    """Lattice whose cube side shrinks with the horizon and smoothness.

    The side length is ``T**(-beta / (2 beta + d)) / log(T)``; finer grids
    for longer horizons and smoother rewards.
    """
    if horizon < 3:
        raise ValueError(f"horizon must be >= 3, got {horizon}")
    if beta < 1:
        raise ValueError(f"smoothness must be >= 1, got {beta}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    delta = horizon ** (-beta / (2 * beta + d)) / math.log(horizon)
    return GridLattice(d=d, delta=delta, cells_per_axis=math.ceil(1.0 / delta))


def assign_cube(x: np.ndarray, lattice: GridLattice) -> tuple[tuple[int, ...], np.ndarray]:
    """Cube multi-index and center for a single point in [0,1]^d.

    Ties (points equidistant from several centers) go to the center
    closest to the origin; a residual tie would be broken toward the
    lexicographically smallest index, which per-axis assignment already
    guarantees.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != lattice.d:
        raise ValueError(f"point has dimension {x.shape[0]}, lattice has {lattice.d}")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError(f"point {x} outside the unit cube")
    cube = tuple(int(v) for v in lattice.axis_index(x))
    return cube, lattice.center(cube)


@dataclass(frozen=True)
class RegionMask:
    """A union of lattice cubes intersected with a support set.

    ``cube_mask`` flags the member cubes by flat index; ``support`` further
    restricts membership (``None`` means the full unit cube).
    """

    lattice: GridLattice
    cube_mask: np.ndarray
    support: Predicate | None = None

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        flat = self.lattice.cube_index(points)
        inside = flat >= 0
        out = np.zeros(len(points), dtype=bool)
        out[inside] = self.cube_mask[flat[inside]]
        support = self.support if self.support is not None else unit_cube_support
        out &= np.asarray(support(points), dtype=bool)
        return out


# Bound on the work held in memory at once while screening: quadrature
# points per block of :func:`_point_counts` (the point-level path and the
# support mask's mixed cubes), integer gathers per block on the lattice
# path, cubes per block of a running-count slab, and row slots (each
# ``resolution`` points) per block of its mixed-cube pass.
_SCREEN_CHUNK = 1 << 18


def _midpoint_axis(resolution: int) -> np.ndarray:
    """Midpoints of ``resolution`` equal cells over [-1, 1]."""
    return (2.0 * np.arange(resolution) + 1.0) / resolution - 1.0


def _midpoint_offsets(d: int, resolution: int) -> np.ndarray:
    """Midpoints of a resolution^d cell grid over [-1, 1]^d."""
    grids = np.meshgrid(*([_midpoint_axis(resolution)] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@functools.cache
def _ball_quadrature(d: int, resolution: int) -> tuple[np.ndarray, ...]:
    """The in-ball quadrature offsets and their last-axis runs, memoised read-only.

    Returns ``(offsets, prefix, lo, hi)``.  ``offsets`` are the midpoint
    offsets inside the unit ball, in the row-major order of
    :func:`_midpoint_offsets`.  A row is the ``resolution`` offsets sharing
    their first ``d - 1`` grid indices; for each row holding in-ball
    offsets, ``prefix[:, r]`` gives those indices and its in-ball offsets
    are last-axis indices ``lo[r] <= k < hi[r]``.  The run is contiguous:
    the midpoints increase along the axis and the rounded squared norm is
    monotone in each coordinate's magnitude.
    """
    offsets = _midpoint_offsets(d, resolution)
    in_ball = np.einsum("ij,ij->i", offsets, offsets) <= 1.0
    rows = in_ball.reshape(-1, resolution)
    keep = np.nonzero(rows.any(axis=1))[0]
    lo = rows[keep].argmax(axis=1)
    hi = resolution - rows[keep, ::-1].argmax(axis=1)
    prefix = np.array(
        [keep // resolution ** (d - 2 - i) % resolution for i in range(d - 1)], dtype=np.int64
    ).reshape(d - 1, len(keep))
    entry = (offsets[in_ball], prefix, lo, hi)
    for array in entry:
        array.flags.writeable = False
    return entry


def _point_counts(origins: np.ndarray, offsets: np.ndarray, region: RegionMask | Predicate) -> np.ndarray:
    """Points ``origin + offset`` inside the region, per origin.

    Evaluates the region's membership test on the points themselves, for
    any region, in blocks of origins of at most ``_SCREEN_CHUNK`` points.
    """
    n, d = origins.shape
    contains = region.contains if isinstance(region, RegionMask) else region
    counts = np.empty(n, dtype=np.int64)
    step = max(1, _SCREEN_CHUNK // len(offsets))
    for start in range(0, n, step):
        block = origins[start : start + step]
        points = (block[:, None, :] + offsets[None, :, :]).reshape(-1, d)
        member = np.asarray(contains(points), dtype=bool).reshape(len(block), -1)
        counts[start : start + step] = np.count_nonzero(member, axis=1)
    return counts


def _lattice_cells(centers: np.ndarray, region: RegionMask | Predicate) -> np.ndarray | None:
    """Per-axis cube indices of the centers, if screening may run on the lattice.

    That needs a region that is a union of whole cubes intersected with a
    classified support (a :class:`RegionMask` whose support is ``None`` or
    carries a ``classify_cubes`` hook) and centers that are, bit for bit,
    cube centers of its lattice.  Otherwise ``None``.
    """
    if not isinstance(region, RegionMask) or _classifier(region.support) is None:
        return None
    lattice = region.lattice
    if centers.shape[1] != lattice.d:
        return None
    cells = np.floor(centers / lattice.delta).astype(np.int64)
    if np.any((cells < 0) | (cells >= lattice.cells_per_axis)):
        return None
    if not np.array_equal((cells + 0.5) * lattice.delta, centers):
        return None
    return cells


def _padded_rows(flags: np.ndarray, d: int, cpa: int) -> np.ndarray:
    """Per-cube flags with a padding cube (index ``cpa``, never flagged) on
    every axis, as rows over the last axis: shape ``((cpa + 1)**(d - 1), cpa + 1)``."""
    table = np.zeros((cpa + 1,) * d, dtype=bool)
    table[(slice(0, cpa),) * d] = np.asarray(flags, dtype=bool).reshape((cpa,) * d)
    return table.reshape(-1, cpa + 1)


def _running_counts(rows: np.ndarray, axis_cube: np.ndarray, resolution: int) -> np.ndarray:
    """Flat running counts of flagged cubes along the last axis of every ball.

    ``running[k * len(rows) * cpa + q * cpa + j]`` counts the flagged
    cubes among the first ``k`` last-axis coordinates of the ball around
    last-axis cube ``j``, among the cubes whose first ``d - 1`` indices
    flatten (with the padding cube) to ``q``.  The table is slot-major, so
    slot ``k`` is one contiguous ``(len(rows), cpa)`` slab, and holds one
    byte a slot while ``resolution`` fits one (a count never exceeds it).
    It is built slab by slab over blocks of at most ``_SCREEN_CHUNK``
    cubes, with no temporary of the table's size.
    """
    n_rows, cpa = len(rows), len(axis_cube)
    running = np.empty((resolution + 1, n_rows, cpa), dtype=np.min_scalar_type(resolution))
    running[0] = 0
    columns = np.ascontiguousarray(axis_cube.T)  # row ``k``: the cubes of slot ``k``
    step = max(1, _SCREEN_CHUNK // cpa)
    for start in range(0, n_rows, step):
        block, slots = rows[start : start + step], running[:, start : start + step]
        flags = np.empty((len(block), cpa), dtype=bool)
        for k in range(resolution):
            np.add(slots[k], np.take(block, columns[k], axis=1, out=flags), out=slots[k + 1])
    return running.ravel()


def _prefix_cubes(block: np.ndarray, prefix: np.ndarray, axis_cube: np.ndarray, cpa: int) -> np.ndarray:
    """Flat index, with the padding cube, of the first ``d - 1`` cube indices
    of the given rows (columns of ``prefix``) of each center's ball."""
    out = np.zeros((len(block), prefix.shape[1]), dtype=np.int64)
    for axis in range(len(prefix)):
        out = out * (cpa + 1) + axis_cube[block[:, axis, None], prefix[axis]]
    return out


def _lattice_counts(
    cells: np.ndarray, radius: float, region: RegionMask, resolution: int, need: int
) -> np.ndarray:
    """``min(count, need)`` for :func:`_point_counts`' counts at lattice centers.

    Along one axis, coordinate ``k`` of the ball around cube ``j`` is
    ``(j + 1/2) delta + radius * axis[k]`` whatever the other axes do, and
    membership of the unit cube is a per-axis test.  So one table gives the
    cube (or none) of every coordinate, computed with the same float
    operations as :meth:`RegionMask.contains` on the points.  A point in a
    member cube that the support's classifier calls in counts without a
    test, one in an out cube does not count, and a running count of
    member-and-in cubes over the last axis turns each row of in-ball
    offsets into two integer lookups.

    The count stops at ``need``.  For a block of centers the rows are
    walked longest first, in groups of 1, 1, 2, 4, ... rows, each over the
    centers still below ``need``; a center leaves the walk once it reaches
    ``need``, and most centers of a mostly filled ball leave after its
    longest row.  The doubling groups keep the passes few where centers
    stay below ``need`` (a ball has about 800 rows at ``d = 3``), and the
    blocks keep each pass's lookups near one another in the tables.

    Only the centers still below ``need`` after every row go on to the
    mixed cubes: a second running count, of member-and-mixed cubes (built
    on first use), finds their rows that touch such a cube, and only those
    rows' points in such cubes are built and tested with the support
    predicate (:func:`_mixed_counts`).  A support without mixed cubes, such
    as the unit cube, builds no points at all, and neither does a region
    whose centers the in-cube rows all decide.  A ``need`` above the ball's
    point count gives the exact counts.
    """
    lattice = region.lattice
    d, cpa = lattice.d, lattice.cells_per_axis
    _, prefix, lo, hi = _ball_quadrature(d, resolution)
    centers = (np.arange(cpa) + 0.5) * lattice.delta
    coords = centers[:, None] + radius * _midpoint_axis(resolution)[None, :]
    axis_cube = lattice.axis_index(coords)
    inside = (coords >= 0.0) & (coords <= 1.0) & (axis_cube >= 0) & (axis_cube < cpa)
    axis_cube[~inside] = cpa  # a padding cube that belongs to no region
    member = np.asarray(region.cube_mask, dtype=bool)
    classes = _classifier(region.support)(lattice)
    in_running = _running_counts(_padded_rows(member & (classes == CUBE_IN), d, cpa), axis_cube, resolution)
    mixed = _padded_rows(member & (classes == CUBE_MIXED), d, cpa)
    mixed_running = None
    order = np.argsort(lo - hi, kind="stable")
    slab = (cpa + 1) ** (d - 1) * cpa  # one slot of the running tables
    lo_slot, hi_slot = lo * slab, hi * slab
    counts = np.zeros(len(cells), dtype=np.int64)
    step = max(1, _SCREEN_CHUNK // len(lo))
    for start in range(0, len(cells), step):
        below, done = np.arange(start, min(start + step, len(cells))), 0
        while done < len(order) and len(below):
            rows = order[done : done + max(1, done)]
            block = cells[below]
            prefix_cube = _prefix_cubes(block, prefix[:, rows], axis_cube, cpa)
            base = prefix_cube * cpa + block[:, d - 1, None]
            # a running count never falls along a row, so the difference does not wrap
            within = in_running[base + hi_slot[rows]] - in_running[base + lo_slot[rows]]
            counts[below] += within.sum(axis=1, dtype=np.int64)
            below = below[counts[below] < need]
            done += len(rows)
        if len(below) and mixed.any():
            if mixed_running is None:
                mixed_running = _running_counts(mixed, axis_cube, resolution)
            block = cells[below]
            prefix_cube = _prefix_cubes(block, prefix, axis_cube, cpa)
            base = prefix_cube * cpa + block[:, d - 1, None]
            touched = mixed_running[base + hi_slot] > mixed_running[base + lo_slot]
            counts[below] += _mixed_counts(
                block, prefix_cube, touched, coords, axis_cube, mixed, region.support, resolution
            )
    return np.minimum(counts, need)


def _mixed_counts(
    block: np.ndarray,
    prefix_cube: np.ndarray,
    touched: np.ndarray,
    coords: np.ndarray,
    axis_cube: np.ndarray,
    mixed: np.ndarray,
    support: Predicate,
    resolution: int,
) -> np.ndarray:
    """Support hits among the points of a block's balls that lie in mixed member cubes.

    ``touched[i, r]`` marks the rows of in-ball offsets of center ``i``
    that meet a mixed member cube; ``prefix_cube``, ``coords``,
    ``axis_cube`` and ``mixed`` are :func:`_lattice_counts`' tables.  The
    points are those of :func:`_point_counts`, bit for bit, and at most
    ``_SCREEN_CHUNK`` row slots are built at a time.
    """
    d = block.shape[1]
    _, prefix, lo, hi = _ball_quadrature(d, resolution)
    out = np.zeros(len(block), dtype=np.int64)
    owner, row = np.nonzero(touched)
    k = np.arange(resolution)
    step = max(1, _SCREEN_CHUNK // resolution)
    for start in range(0, len(owner), step):
        i, r = owner[start : start + step], row[start : start + step]
        last = block[i, d - 1]
        in_mixed = mixed[prefix_cube[i, r, None], axis_cube[last]]
        pair, kk = np.nonzero((k >= lo[r, None]) & (k < hi[r, None]) & in_mixed)
        points = np.empty((len(pair), d))
        for axis in range(d - 1):
            points[:, axis] = coords[block[i[pair], axis], prefix[axis, r[pair]]]
        points[:, d - 1] = coords[last[pair], kk]
        hit = np.asarray(support(points), dtype=bool)
        out += np.bincount(i[pair][hit], minlength=len(block))
    return out


def _check_ball_args(radius: float, resolution: int, c: float = 1.0) -> None:
    """Reject a regularity constant outside (0, 1], a quadrature resolution
    below 2 and a radius that is not a finite positive number."""
    if not 0 < c <= 1:
        raise ValueError(f"regularity constant must be in (0, 1], got {c}")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius}")


def ball_region_fraction(
    center: np.ndarray,
    radius: float,
    region: RegionMask | Predicate,
    resolution: int = 32,
) -> float:
    """Fraction of the ball B(center, radius) covered by the region.

    Midpoint-rectangle quadrature on a regular grid over the bounding box
    of the ball: both the ball volume and the intersection volume are
    counted on the same grid, so the full-region fraction is exactly 1 and
    symmetric cuts through the center are exact.  Deterministic for a
    fixed resolution.  ``center`` is one point: a scalar at ``d = 1``, a
    ``(d,)`` vector or a ``(1, d)`` row.
    """
    _check_ball_args(radius, resolution)
    center = np.asarray(center, dtype=float)
    if center.ndim > 2 or center.ndim == 2 and len(center) != 1:
        raise ValueError(f"center must be one point, got an array of shape {center.shape}")
    offsets = _ball_quadrature(center.size, resolution)[0]
    if len(offsets) == 0:
        return 0.0
    return int(_point_counts(center.reshape(1, -1), radius * offsets, region)[0]) / len(offsets)


def is_weakly_regular(
    x: np.ndarray,
    radius: float,
    c: float,
    region: RegionMask | Predicate,
    resolution: int = 32,
) -> bool:
    """Whether the region fills at least a ``c`` fraction of B(x, radius)."""
    _check_ball_args(radius, resolution, c)
    return ball_region_fraction(x, radius, region, resolution) >= c


def _need(c: float, denom: int) -> int:
    """The smallest count ``k`` with ``k / denom >= c`` in floating point
    (``denom + 1`` when no count up to ``denom`` reaches ``c``).

    ``k / denom`` is correctly rounded, so it does not decrease as ``k``
    grows, and ``counts >= _need(c, denom)`` is ``counts / denom >= c``,
    ties included.  ``c * denom`` lands within a step of the answer.
    """
    k = min(max(math.ceil(c * denom), 0), denom + 1)
    while k > 0 and (k - 1) / denom >= c:
        k -= 1
    while k <= denom and k / denom < c:
        k += 1
    return k


def batch_weak_regularity(
    centers: np.ndarray,
    radius: float,
    c: float,
    region: RegionMask | Predicate,
    resolution: int = 32,
) -> np.ndarray:
    """Vectorized weak-regularity test at many centers with one shared radius.

    Same quadrature as :func:`ball_region_fraction`, and the same answer
    whichever of two paths computes it.  The test ``count / denom >= c``
    becomes ``count >= need`` for the smallest passing count ``need``
    (:func:`_need`), so it decides rather than measures:

    - the lattice path, when the region is a :class:`RegionMask` whose
      support is classified (``None``, :func:`unit_cube_support`, or
      any predicate with a ``classify_cubes`` hook, such as the bump-grid
      support of the lower-bound instance) and every center is a cube
      center of its lattice: per-axis cube tables and running counts over
      the last axis count the points in member cubes that are wholly in
      the support, row by row of the ball, and a center stops once it
      reaches ``need``.  Only for the centers that every row leaves below
      ``need`` does the support predicate run, on the in-ball points that
      fall in member cubes it cuts, for the rows of the ball that touch
      such a cube (:func:`_lattice_counts`);
    - the point path otherwise, for example for off-lattice centers or a
      bare predicate: the region's membership test on every quadrature
      point, built for a bounded block of centers at a time
      (:func:`_point_counts`).  It is also the test oracle of the lattice
      path.
    """
    _check_ball_args(radius, resolution, c)
    centers = np.atleast_2d(centers)
    n, d = centers.shape
    offsets = _ball_quadrature(d, resolution)[0]
    if n == 0 or len(offsets) == 0:
        return np.zeros(n, dtype=bool)
    need = _need(c, len(offsets))
    cells = _lattice_cells(centers, region)
    if cells is None:
        counts = _point_counts(centers, radius * offsets, region)
    else:
        counts = _lattice_counts(cells, radius, region, resolution, need)
    return counts >= need


def support_cube_mask(
    lattice: GridLattice,
    support: Predicate | None,
    resolution: int = 8,
    mass_threshold: float = 1e-9,
) -> np.ndarray:
    """Flag cubes carrying context mass.

    A cube is kept when the quadrature fraction of its volume inside the
    support exceeds ``mass_threshold``.  With the default full-cube
    support every cube is kept (the overhang of the last cube past 1 still
    intersects the unit cube).  A classified support (see ``CUBE_IN``)
    needs the quadrature only in its mixed cubes: an out cube holds none
    of its points, and an in cube holds those inside the unit cube, which
    are counted axis by axis with the same float operations.  Mixed cubes
    are counted by the screen's blocked counter (:func:`_point_counts`).
    """
    d, cpa = lattice.d, lattice.cells_per_axis
    classify = _classifier(support)  # the unit cube's for None, which has no mixed cube
    if classify is None:
        classes = np.full(lattice.n_cubes, CUBE_MIXED, dtype=np.int8)
    else:
        classes = np.asarray(classify(lattice))
    corners = (np.arange(cpa) + 0.5) * lattice.delta - lattice.delta / 2.0
    coords = corners[:, None] + lattice.delta * ((_midpoint_axis(resolution) + 1.0) / 2.0)[None, :]
    in_unit = np.count_nonzero((coords >= 0.0) & (coords <= 1.0), axis=1)
    inside = functools.reduce(np.multiply.outer, [in_unit] * d).ravel()
    fraction = np.where(classes == CUBE_IN, inside / resolution**d, 0.0)
    mixed = np.nonzero(classes == CUBE_MIXED)[0]
    if len(mixed):
        offsets = lattice.delta * ((_midpoint_offsets(d, resolution) + 1.0) / 2.0)  # from the corner
        corners = lattice.centers(mixed) - lattice.delta / 2.0
        fraction[mixed] = _point_counts(corners, offsets, support) / len(offsets)
    return fraction > mass_threshold

"""Hypercube grid geometry over the unit cube.

The policy partitions [0,1]^d into axis-aligned cubes of a tuned side
length and reasons about regions that are unions of whole cubes.  This
module provides the lattice bookkeeping (deterministic point-to-cube
assignment), ball volumes, and midpoint-quadrature estimates of the
fraction of a ball covered by a region, which is the primitive behind the
weak-regularity screening test.
"""

from __future__ import annotations

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
        """Flat cube index for each point; -1 for points off the lattice."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        j = self.axis_index(points)
        valid = np.all((points >= 0.0) & (j >= 0) & (j < self.cells_per_axis), axis=1)
        return np.where(valid, np.ravel_multi_index(tuple(j.T), self.shape, mode="clip"), -1)

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

    def flat_id(self, cube: tuple[int, ...]) -> int:
        if not all(0 <= j < self.cells_per_axis for j in cube):
            raise ValueError(f"cube index {cube} out of range")
        return int(np.ravel_multi_index(cube, self.shape))

    def center(self, cube: tuple[int, ...] | int) -> np.ndarray:
        if isinstance(cube, (int, np.integer)):
            cube = self.cube_id(int(cube))
        return (np.asarray(cube, dtype=float) + 0.5) * self.delta

    def centers(self, flat: np.ndarray) -> np.ndarray:
        """Centers of the given flat cube indices, shape (n, d)."""
        return (self.cube_ids(flat) + 0.5) * self.delta

    def all_centers(self) -> np.ndarray:
        return self.centers(np.arange(self.n_cubes))


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
# points per block of centers on the point-level path, integer gathers per
# block on the lattice path, and row slots (each ``resolution`` points) per
# block of its mixed-cube pass.
_SCREEN_CHUNK = 1 << 18

# (d, resolution) -> read-only (offsets, prefix, lo, hi); see _ball_quadrature.
_BALL_QUADRATURE: dict = {}


def _midpoint_axis(resolution: int) -> np.ndarray:
    """Midpoints of ``resolution`` equal cells over [-1, 1]."""
    return (2.0 * np.arange(resolution) + 1.0) / resolution - 1.0


def _midpoint_offsets(d: int, resolution: int) -> np.ndarray:
    """Midpoints of a resolution^d cell grid over [-1, 1]^d."""
    grids = np.meshgrid(*([_midpoint_axis(resolution)] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _ball_quadrature(d: int, resolution: int) -> tuple[np.ndarray, ...]:
    """The in-ball quadrature offsets and their last-axis runs, memoised.

    Returns ``(offsets, prefix, lo, hi)``.  ``offsets`` are the midpoint
    offsets inside the unit ball, in the row-major order of
    :func:`_midpoint_offsets`.  A row is the ``resolution`` offsets sharing
    their first ``d - 1`` grid indices; for each row holding in-ball
    offsets, ``prefix[:, r]`` gives those indices and its in-ball offsets
    are last-axis indices ``lo[r] <= k < hi[r]``.  The run is contiguous:
    the midpoints increase along the axis and the rounded squared norm is
    monotone in each coordinate's magnitude.
    """
    key = (d, resolution)
    if key not in _BALL_QUADRATURE:
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
        _BALL_QUADRATURE[key] = entry
    return _BALL_QUADRATURE[key]


def _point_counts(
    centers: np.ndarray, radius: float, region: RegionMask | Predicate, resolution: int
) -> np.ndarray:
    """In-ball quadrature points inside the region, per center.

    Evaluates the region's membership test on the points themselves, for
    any region; blocks of centers bound the size of the point cloud.
    """
    n, d = centers.shape
    scaled = radius * _ball_quadrature(d, resolution)[0]
    contains = region.contains if isinstance(region, RegionMask) else region
    counts = np.empty(n, dtype=np.int64)
    step = max(1, _SCREEN_CHUNK // len(scaled))
    for start in range(0, n, step):
        block = centers[start : start + step]
        points = (block[:, None, :] + scaled[None, :, :]).reshape(-1, d)
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

    ``running[(q * cpa + j) * (resolution + 1) + k]`` counts the flagged
    cubes among the first ``k`` last-axis coordinates of the ball around
    last-axis cube ``j``, among the cubes whose first ``d - 1`` indices
    flatten (with the padding cube) to ``q``.
    """
    running = np.zeros((len(rows), len(axis_cube), resolution + 1), dtype=np.int32)
    np.cumsum(rows[:, axis_cube], axis=2, dtype=np.int32, out=running[:, :, 1:])
    return running.ravel()


def _lattice_counts(
    cells: np.ndarray, radius: float, region: RegionMask, resolution: int
) -> np.ndarray:
    """:func:`_point_counts` for lattice centers, testing points only in mixed cubes.

    Along one axis, coordinate ``k`` of the ball around cube ``j`` is
    ``(j + 1/2) delta + radius * axis[k]`` whatever the other axes do, and
    membership of the unit cube is a per-axis test.  So one table gives the
    cube (or none) of every coordinate, computed with the same float
    operations as :meth:`RegionMask.contains` on the points.  A point in a
    member cube that the support's classifier calls in counts without a
    test, one in an out cube does not count, and a running count of
    member-and-in cubes over the last axis turns each row of in-ball
    offsets into two integer lookups.  A second running count, of
    member-and-mixed cubes, finds the rows that touch a mixed cube; only
    their points in such cubes are built and tested with the support
    predicate (:func:`_mixed_counts`).  A support without mixed cubes, such
    as the unit cube, builds no points at all.
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
    mixed_running = _running_counts(mixed, axis_cube, resolution) if mixed.any() else None
    counts = np.empty(len(cells), dtype=np.int64)
    step = max(1, _SCREEN_CHUNK // len(lo))
    for start in range(0, len(cells), step):
        block = cells[start : start + step]
        prefix_cube = np.zeros((len(block), len(lo)), dtype=np.int64)
        for axis in range(d - 1):
            prefix_cube = prefix_cube * (cpa + 1) + axis_cube[block[:, axis, None], prefix[axis]]
        base = (prefix_cube * cpa + block[:, d - 1, None]) * (resolution + 1)
        counts[start : start + step] = (in_running[base + hi] - in_running[base + lo]).sum(axis=1)
        if mixed_running is not None:
            touched = mixed_running[base + hi] > mixed_running[base + lo]
            counts[start : start + step] += _mixed_counts(
                block, prefix_cube, touched, coords, axis_cube, mixed, region.support, resolution
            )
    return counts


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
    fixed resolution.
    """
    _check_ball_args(radius, resolution)
    center = np.asarray(center, dtype=float).reshape(1, -1)
    denom = len(_ball_quadrature(center.shape[1], resolution)[0])
    if denom == 0:
        return 0.0
    return int(_point_counts(center, radius, region, resolution)[0]) / denom


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


def batch_weak_regularity(
    centers: np.ndarray,
    radius: float,
    c: float,
    region: RegionMask | Predicate,
    resolution: int = 32,
) -> np.ndarray:
    """Vectorized weak-regularity test at many centers with one shared radius.

    Same quadrature as :func:`ball_region_fraction`, and the same answer
    whichever of two paths computes it:

    - the lattice path, when ``d >= 2``, the region is a :class:`RegionMask`
      whose support is classified (``None``, :func:`unit_cube_support`, or
      any predicate with a ``classify_cubes`` hook, such as the bump-grid
      support of the lower-bound instance) and every center is a cube
      center of its lattice: per-axis cube tables and running counts over
      the last axis count the points in member cubes that are wholly in
      the support, and the support predicate runs only on the in-ball
      points that fall in member cubes it cuts, for the rows of the ball
      that touch such a cube (:func:`_lattice_counts`);
    - the point path otherwise, for example for off-lattice centers or a
      bare predicate: the region's membership test on every quadrature
      point, built for a bounded block of centers at a time
      (:func:`_point_counts`).  At ``d = 1`` a center has only
      ``resolution`` points, as many as a row of the lattice path's tables,
      so the point path is the cheaper one there.  It is also the test
      oracle of the lattice path.
    """
    _check_ball_args(radius, resolution, c)
    centers = np.atleast_2d(centers)
    n, d = centers.shape
    denom = len(_ball_quadrature(d, resolution)[0])
    if n == 0 or denom == 0:
        return np.zeros(n, dtype=bool)
    cells = _lattice_cells(centers, region) if d > 1 else None
    if cells is None:
        counts = _point_counts(centers, radius, region, resolution)
    else:
        counts = _lattice_counts(cells, radius, region, resolution)
    return counts / denom >= c


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
    are counted axis by axis with the same float operations.
    """
    if support is None:
        support = unit_cube_support
    d, cpa = lattice.d, lattice.cells_per_axis
    classify = _classifier(support)
    if classify is None:
        classes = np.full(lattice.n_cubes, CUBE_MIXED, dtype=np.int8)
    else:
        classes = np.asarray(classify(lattice))
    corners = (np.arange(cpa) + 0.5) * lattice.delta - lattice.delta / 2.0
    coords = corners[:, None] + lattice.delta * ((_midpoint_axis(resolution) + 1.0) / 2.0)[None, :]
    in_unit = np.count_nonzero((coords >= 0.0) & (coords <= 1.0), axis=1)
    inside = in_unit[lattice.cube_ids()].prod(axis=1)
    fraction = np.where(classes == CUBE_IN, inside / resolution**d, 0.0)
    mixed = np.nonzero(classes == CUBE_MIXED)[0]
    if len(mixed):
        offsets = (_midpoint_offsets(d, resolution) + 1.0) / 2.0  # in [0,1]^d
        corners = lattice.centers(mixed) - lattice.delta / 2.0
        points = (corners[:, None, :] + lattice.delta * offsets[None, :, :]).reshape(-1, d)
        member = np.asarray(support(points), dtype=bool).reshape(len(mixed), -1)
        fraction[mixed] = member.mean(axis=1)
    return fraction > mass_threshold

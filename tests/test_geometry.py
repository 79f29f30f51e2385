import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothbandit import geometry
from smoothbandit.environments import BumpGridSupport
from smoothbandit.geometry import (
    CUBE_IN,
    CUBE_MIXED,
    CUBE_OUT,
    GridLattice,
    RegionMask,
    assign_cube,
    ball_region_fraction,
    batch_weak_regularity,
    build_lattice,
    is_weakly_regular,
    support_cube_mask,
    unit_ball_volume,
    unit_cube_support,
)


class TestBuildLattice:
    def test_moderate_horizon(self):
        # independent arithmetic: T^(-1/3) / log T at T = e^5
        T = 148.413
        expected = T ** (-1.0 / 3.0) / math.log(T)
        lat = build_lattice(T, beta=1, d=1)
        assert lat.delta == pytest.approx(expected, rel=1e-12)
        assert lat.delta == pytest.approx(0.0378, abs=5e-4)
        assert lat.cells_per_axis == 27

    def test_minimal_horizon(self):
        lat = build_lattice(3, beta=1, d=1)
        assert lat.delta == pytest.approx(3 ** (-1 / 3) / math.log(3), rel=1e-12)
        assert lat.delta == pytest.approx(0.6311, abs=1e-4)
        assert lat.cells_per_axis == 2

    def test_cubes_cover_unit_cube(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            T = rng.integers(3, 10**6)
            beta = rng.uniform(1, 4)
            d = int(rng.integers(1, 4))
            lat = build_lattice(int(T), beta, d)
            assert lat.cells_per_axis * lat.delta >= 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_lattice(2, 1, 1)
        with pytest.raises(ValueError):
            build_lattice(100, 0.5, 1)
        with pytest.raises(ValueError):
            build_lattice(100, 1, 0)


class TestAssignCube:
    def test_origin(self):
        lat = build_lattice(1000, 2, 2)
        cube, center = assign_cube(np.zeros(2), lat)
        assert cube == (0, 0)
        assert np.allclose(center, lat.delta / 2)

    def test_tie_goes_to_cube_closer_to_origin(self):
        lat = GridLattice(d=1, delta=0.5, cells_per_axis=2)
        cube, center = assign_cube(np.array([0.5]), lat)
        assert cube == (0,)
        assert center[0] == pytest.approx(0.25)

    def test_nearest_point_rule(self):
        lat = GridLattice(d=1, delta=0.5, cells_per_axis=2)
        cube, center = assign_cube(np.array([0.3]), lat)
        assert cube == (0,)
        assert center[0] == pytest.approx(0.25)

    def test_rejects_out_of_domain(self):
        lat = build_lattice(100, 1, 2)
        with pytest.raises(ValueError):
            assign_cube(np.array([1.2, 0.0]), lat)
        with pytest.raises(ValueError):
            assign_cube(np.array([-0.1, 0.0]), lat)

    def test_partition_covers_million_points(self):
        # every point maps to exactly one cube whose center is within delta/2
        rng = np.random.default_rng(1)
        for T, beta, d in ((10_000, 1.0, 1), (2_000, 2.0, 2)):
            lat = build_lattice(T, beta, d)
            pts = rng.random((500_000, d))
            flat = lat.cube_index(pts)
            assert np.all(flat >= 0)
            centers = lat.centers(flat)
            assert np.all(np.abs(pts - centers) <= lat.delta / 2 + 1e-12)

    def test_scalar_matches_vectorized(self):
        lat = build_lattice(500, 1.5, 2)
        rng = np.random.default_rng(2)
        pts = rng.random((200, 2))
        flat = lat.cube_index(pts)
        for p, f in zip(pts, flat):
            cube, _ = assign_cube(p, lat)
            assert lat.flat_id(cube) == f

    def test_boundary_one(self):
        lat = GridLattice(d=1, delta=0.5, cells_per_axis=2)
        cube, _ = assign_cube(np.array([1.0]), lat)
        assert cube == (1,)

    @pytest.mark.parametrize("k", [49, 98, 103, 107, 196, 197])
    def test_one_lands_in_the_last_cube_when_one_over_delta_rounds_up(self, k):
        # 1.0 / (1 / k) rounds above k for these k; 1.0 once fell off the lattice
        lat = GridLattice(d=1, delta=1 / k, cells_per_axis=k)
        assert 1.0 / lat.delta > k
        assert lat.cube_index([[1.0]]).tolist() == [k - 1]
        assert assign_cube(np.array([1.0]), lat)[0] == (k - 1,)


def _loop_cube_index(lat, points):
    """Flat cube index by an explicit row-major loop, the last axis fastest (reference)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    j = lat.axis_index(points)
    valid = np.all((points >= 0.0) & (j >= 0) & (j < lat.cells_per_axis), axis=1)
    flat = np.zeros(len(points), dtype=np.int64)
    mult = 1
    for axis in range(lat.d - 1, -1, -1):
        flat += j[:, axis] * mult
        mult *= lat.cells_per_axis
    flat[~valid] = -1
    return flat


def _loop_cube_ids(lat, flat):
    """Per-axis cube indices of flat indices by repeated division (reference)."""
    out = np.empty((len(flat), lat.d), dtype=np.int64)
    rem = np.array(flat, dtype=np.int64)
    for axis in range(lat.d - 1, -1, -1):
        out[:, axis] = rem % lat.cells_per_axis
        rem //= lat.cells_per_axis
    return out


@st.composite
def _lattice_and_points(draw):
    """A lattice with d in 1..3 and points on cube faces, outside the unit
    cube and past the last cube, mixed with arbitrary ones."""
    d = draw(st.integers(1, 3))
    cells = draw(st.integers(1, {1: 40, 2: 12, 3: 6}[d]))
    delta = draw(st.sampled_from([1.0, 1.0 - 1e-13, 1.3, 1.6])) / cells
    lat = GridLattice(d=d, delta=delta, cells_per_axis=cells)
    coordinate = st.one_of(
        st.integers(-1, cells + 1).map(lambda k: k * delta),
        st.sampled_from([0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), cells * delta, -1e-300]),
        st.floats(-0.5, 2.0, allow_nan=False),
    )
    points = draw(st.lists(st.lists(coordinate, min_size=d, max_size=d), min_size=1, max_size=30))
    return lat, np.array(points, dtype=float)


class TestLatticeCodec:
    @settings(max_examples=150, deadline=None)
    @given(case=_lattice_and_points())
    def test_encode_matches_the_loop(self, case):
        lat, points = case
        flat = lat.cube_index(points)
        assert flat.dtype == np.int64
        np.testing.assert_array_equal(flat, _loop_cube_index(lat, points))
        past_last = (lat.cells_per_axis + 0.5) * lat.delta
        off = np.any((points < 0.0) | (points >= past_last), axis=1)
        assert np.all(flat[off] == -1)
        assert np.all(flat < lat.n_cubes)
        in_unit_cube = np.all((points >= 0.0) & (points <= 1.0), axis=1)
        assert np.all(flat[in_unit_cube] >= 0)

    @settings(max_examples=60, deadline=None)
    @given(case=_lattice_and_points())
    def test_decode_of_every_flat_index_matches_the_loop(self, case):
        lat, _ = case
        flat = np.arange(lat.n_cubes)
        ids = lat.cube_ids(flat)
        assert ids.dtype == np.int64
        np.testing.assert_array_equal(ids, _loop_cube_ids(lat, flat))
        np.testing.assert_array_equal(lat.cube_ids(), ids)
        centers = lat.centers(flat)
        assert centers.tobytes() == ((_loop_cube_ids(lat, flat) + 0.5) * lat.delta).tobytes()
        assert lat.all_centers().tobytes() == centers.tobytes()
        np.testing.assert_array_equal(lat.cube_index(centers), flat)
        for f in flat:
            cube = lat.cube_id(int(f))
            assert cube == tuple(int(j) for j in ids[f])
            assert lat.flat_id(cube) == f
            assert lat.center(int(f)).tobytes() == centers[f].tobytes()

    def test_out_of_range_indices_raise(self):
        lat = GridLattice(d=2, delta=0.25, cells_per_axis=4)
        for flat in (-1, 16):
            with pytest.raises(ValueError, match="out of range"):
                lat.cube_id(flat)
        for cube in ((0, 4), (-1, 0)):
            with pytest.raises(ValueError, match="out of range"):
                lat.flat_id(cube)


class TestUnitBallVolume:
    def test_known_dimensions(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)


def _halfspace(points):
    return points[:, 0] <= 0.5


class TestBallRegionFraction:
    def test_full_region(self):
        frac = ball_region_fraction(np.array([0.5, 0.5]), 0.1, unit_cube_support, resolution=32)
        assert frac == pytest.approx(1.0, abs=1e-3)

    def test_halfspace_through_center(self):
        # analytic oracle: the cut passes through the center, so exactly half
        frac = ball_region_fraction(np.array([0.5, 0.5]), 0.1, _halfspace, resolution=32)
        assert frac == pytest.approx(0.5, abs=0.01)

    def test_offset_halfspace_matches_circular_segment(self):
        # oracle: disk area with x <= c + 0.3 r is
        # 1 - (acos(a) - a sqrt(1-a^2)) / pi at a = 0.3
        a = 0.3
        expected = 1.0 - (math.acos(a) - a * math.sqrt(1 - a * a)) / math.pi

        def region(points):
            return points[:, 0] <= 0.5 + a * 0.1

        frac = ball_region_fraction(np.array([0.5, 0.5]), 0.1, region, resolution=32)
        assert frac == pytest.approx(expected, abs=0.01)

    def test_empty_region(self):
        def nothing(points):
            return np.zeros(len(points), dtype=bool)

        assert ball_region_fraction(np.array([0.5]), 0.1, nothing) == 0.0

    def test_corner_fraction(self):
        for d in (1, 2, 3):
            frac = ball_region_fraction(np.zeros(d), 0.1, unit_cube_support, resolution=32)
            assert frac == pytest.approx(2.0**-d, rel=0.01)

    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError):
            ball_region_fraction(np.array([0.5]), 0.1, unit_cube_support, resolution=1)

    def test_convergence_in_resolution(self):
        a = 0.3
        expected = 1.0 - (math.acos(a) - a * math.sqrt(1 - a * a)) / math.pi

        def region(points):
            return points[:, 0] <= 0.5 + a * 0.1

        errs = []
        for res in (8, 16, 32, 64):
            frac = ball_region_fraction(np.array([0.5, 0.5]), 0.1, region, resolution=res)
            errs.append(abs(frac - expected))
        assert errs[2] <= 0.01
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + 0.005  # nonincreasing within quadrature noise

    def test_symmetric_halfspace_error_nonincreasing(self):
        errs = []
        for res in (8, 16, 32, 64):
            frac = ball_region_fraction(np.array([0.5, 0.5]), 0.1, _halfspace, resolution=res)
            errs.append(abs(frac - 0.5))
        assert errs[2] <= 0.01
        assert all(lo <= hi + 1e-12 for lo, hi in zip(errs[1:], errs[:-1]))

    def test_scale_consistency(self):
        # fraction is invariant under joint rescaling of center, radius, region
        lat = GridLattice(d=2, delta=0.1, cells_per_axis=10)
        mask = np.zeros(lat.n_cubes, dtype=bool)
        mask[lat.cube_index(np.array([[0.35, 0.45], [0.45, 0.45], [0.35, 0.55]]))] = True
        region = RegionMask(lat, mask)
        center = np.array([0.4, 0.5])
        base = ball_region_fraction(center, 0.12, region, resolution=32)
        for scale in (0.5, 2.0):
            def scaled(points, s=scale):
                return region.contains(points / s)

            frac = ball_region_fraction(center * scale, 0.12 * scale, scaled, resolution=32)
            assert frac == pytest.approx(base, abs=1e-9)


class TestWeakRegularity:
    def test_full_support_interior(self):
        assert is_weakly_regular(np.array([0.5, 0.5]), 0.1, 1.0, unit_cube_support)

    def test_empty_region(self):
        def nothing(points):
            return np.zeros(len(points), dtype=bool)

        assert not is_weakly_regular(np.array([0.5]), 0.1, 0.05, nothing)

    def test_halfspace_boundary_at_small_constant(self):
        # half of the ball volume is well above 1/12
        assert is_weakly_regular(np.array([0.5, 0.5]), 0.1, 1.0 / 12.0, _halfspace)

    def test_batch_matches_scalar(self):
        lat = build_lattice(2000, 1, 2)
        rng = np.random.default_rng(3)
        mask = rng.random(lat.n_cubes) < 0.4
        region = RegionMask(lat, mask)
        centers = rng.random((40, 2))
        batch = batch_weak_regularity(centers, 0.15, 0.2, region, resolution=16)
        for x, got in zip(centers, batch):
            assert got == is_weakly_regular(x, 0.15, 0.2, region, resolution=16)

    @pytest.mark.parametrize("radius", [0.0, -0.05, float("nan")])
    def test_entry_points_reject_a_radius_that_is_not_positive(self, radius):
        # the batch test once answered [T F T F], all False, and all False with a warning
        lat = build_lattice(2000, 1, 2)
        region = RegionMask(lat, np.random.default_rng(4).random(lat.n_cubes) < 0.5)
        centers = lat.all_centers()[:4]
        for on_lattice in (region, region.contains):
            with pytest.raises(ValueError, match="radius must be finite and positive"):
                batch_weak_regularity(centers, radius, 0.5, on_lattice)
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            is_weakly_regular(centers[0], radius, 0.5, region)
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            ball_region_fraction(centers[0], radius, region)

    def test_entry_points_reject_bad_constant_and_resolution(self):
        x = np.array([[0.5, 0.5]])
        for fn in (batch_weak_regularity, is_weakly_regular):
            with pytest.raises(ValueError, match="regularity constant"):
                fn(x, 0.1, 0.0, unit_cube_support)
            with pytest.raises(ValueError, match="resolution"):
                fn(x, 0.1, 0.5, unit_cube_support, resolution=1)


class TestSupportCubeMask:
    def test_full_support_keeps_all(self):
        lat = build_lattice(5000, 1, 2)
        assert support_cube_mask(lat, None).all()

    def test_hole_is_dropped(self):
        lat = GridLattice(d=1, delta=0.1, cells_per_axis=10)

        def holey(points):
            x = np.atleast_2d(points)[:, 0]
            return (x >= 0) & (x <= 1) & ~((x > 0.31) & (x < 0.39))

        mask = support_cube_mask(lat, holey, resolution=16)
        assert mask.sum() == 10  # cube 3 keeps mass near its edges
        def hole_all(points):
            x = np.atleast_2d(points)[:, 0]
            return (x >= 0) & (x <= 1) & ~((x > 0.299) & (x < 0.401))

        mask = support_cube_mask(lat, hole_all, resolution=16)
        assert not mask[3] and mask.sum() == 9

    def test_region_mask_contains(self):
        lat = GridLattice(d=1, delta=0.25, cells_per_axis=4)
        mask = np.array([True, False, True, False])
        region = RegionMask(lat, mask)
        pts = np.array([[0.1], [0.3], [0.6], [0.9], [1.5]])
        np.testing.assert_array_equal(region.contains(pts), [True, False, True, False, False])

    def test_region_mask_clips_last_cube_overhang(self):
        # the last cube may extend past 1; the default support is still the
        # unit cube, so the overhang is outside every region
        lat = GridLattice(d=1, delta=0.35, cells_per_axis=3)
        region = RegionMask(lat, np.array([True, True, True]))
        pts = np.array([[0.99], [1.0], [1.04]])
        np.testing.assert_array_equal(region.contains(pts), [True, True, False])


def _cloud_fractions(centers, radius, region, resolution):
    """The screening quadrature on the whole point cloud at once (reference)."""
    offsets = geometry._midpoint_offsets(centers.shape[1], resolution)
    offsets = offsets[np.einsum("ij,ij->i", offsets, offsets) <= 1.0]
    points = (centers[:, None, :] + radius * offsets[None, :, :]).reshape(-1, centers.shape[1])
    member = region.contains(points) if isinstance(region, RegionMask) else region(points)
    return np.asarray(member, dtype=bool).reshape(len(centers), len(offsets)).mean(axis=1)


def _random_lattice(rng, d):
    cells = int(rng.integers(1, {1: 40, 2: 14, 3: 7}[d]))
    kind = rng.integers(3)
    if kind == 0:
        delta = 1.0 / cells
    elif kind == 1:  # cells * delta just below 1, inside the lattice's tolerance
        delta = (1.0 - rng.uniform(0.0, 1e-12)) / cells
        if cells * delta < 1.0 - 1e-12:
            delta = 1.0 / cells
    else:  # the last cube overhangs x = 1 by a sizeable fraction
        delta = rng.uniform(1.0, 1.6) / cells
    return GridLattice(d=d, delta=delta, cells_per_axis=cells)


def _screen_centers(rng, lat, limit):
    """Lattice centers, always including cubes on the last layer of some axis."""
    idx = np.array([lat.cube_id(f) for f in range(lat.n_cubes)])
    edge = np.nonzero((idx == lat.cells_per_axis - 1).any(axis=1))[0]
    pick = np.union1d(rng.choice(edge, size=min(len(edge), limit // 2), replace=False),
                      rng.choice(lat.n_cubes, size=min(lat.n_cubes, limit // 2), replace=False))
    return lat.centers(pick)


def _random_bump_grid(rng, d):
    q = int(rng.integers(1, {2: 9, 3: 5}[d]))
    return BumpGridSupport(d=d, q=q, m=int(rng.integers(1, q**d + 1)), radius=1.0 / (4 * q))


class TestLatticeScreening:
    """The lattice path of the screening test against the point-level oracle."""

    def test_lattice_path_matches_point_path(self):
        rng = np.random.default_rng(20240)
        for case in range(540):
            d = case % 3 + 1
            lat = _random_lattice(rng, d)
            mask = rng.random(lat.n_cubes) < rng.uniform(0.0, 1.0)
            support = (None, unit_cube_support)[case % 2]
            region = RegionMask(lat, mask, support)
            resolution = 2 + case % 32
            radius = float(np.exp(rng.uniform(np.log(lat.delta / 4), np.log(1.5))))
            c = float(rng.uniform(0.01, 1.0))
            centers = _screen_centers(rng, lat, 24)
            cells = geometry._lattice_cells(centers, region)
            assert cells is not None
            lattice_counts = geometry._lattice_counts(cells, radius, region, resolution)
            point_counts = geometry._point_counts(centers, radius, region, resolution)
            np.testing.assert_array_equal(lattice_counts, point_counts)
            fractions = _cloud_fractions(centers, radius, region, resolution)
            np.testing.assert_array_equal(
                batch_weak_regularity(centers, radius, c, region, resolution), fractions >= c
            )
            # and at a threshold equal to an attained fraction, where ties decide
            tie = float(fractions[rng.integers(len(fractions))])
            if tie > 0:
                np.testing.assert_array_equal(
                    batch_weak_regularity(centers, radius, tie, region, resolution), fractions >= tie
                )

    def test_bump_grid_lattice_path_matches_point_path(self):
        rng = np.random.default_rng(20241)
        for case in range(240):
            d = case % 2 + 2
            lat = _random_lattice(rng, d)
            support = _random_bump_grid(rng, d)
            region = RegionMask(lat, rng.random(lat.n_cubes) < rng.uniform(0.0, 1.0), support)
            resolution = 2 + case % 32
            radius = float(np.exp(rng.uniform(np.log(lat.delta / 4), np.log(1.5))))
            centers = _screen_centers(rng, lat, 24)
            cells = geometry._lattice_cells(centers, region)
            assert cells is not None
            np.testing.assert_array_equal(
                geometry._lattice_counts(cells, radius, region, resolution),
                geometry._point_counts(centers, radius, region, resolution),
            )

    def test_ball_rows_are_contiguous_runs(self):
        for d in (1, 2, 3):
            for resolution in range(2, 34):
                offsets, prefix, lo, hi = geometry._ball_quadrature(d, resolution)
                grid = geometry._midpoint_offsets(d, resolution)
                in_ball = (np.einsum("ij,ij->i", grid, grid) <= 1.0).reshape(-1, resolution)
                rebuilt = np.zeros_like(in_ball)
                rows = np.zeros(len(lo), dtype=np.int64)
                for axis in range(d - 1):
                    rows = rows * resolution + prefix[axis]
                for r, a, b in zip(rows, lo, hi):
                    rebuilt[r, a:b] = True
                np.testing.assert_array_equal(rebuilt, in_ball)
                assert len(offsets) == in_ball.sum()

    def test_other_regions_take_the_point_path(self):
        lat = build_lattice(2000, 1, 2)
        rng = np.random.default_rng(3)
        region = RegionMask(lat, rng.random(lat.n_cubes) < 0.4)
        centers = lat.centers(np.arange(lat.n_cubes))
        assert geometry._lattice_cells(centers, region) is not None
        # off-lattice centers, as in test_batch_matches_scalar
        assert geometry._lattice_cells(rng.random((40, 2)), region) is None
        assert geometry._lattice_cells(np.nextafter(centers, 2.0), region) is None
        # a support that is not cube-aligned, and a bare predicate
        assert geometry._lattice_cells(centers, RegionMask(lat, region.cube_mask, _halfspace)) is None
        assert geometry._lattice_cells(centers, _halfspace) is None
        # a classified support takes the lattice path, the same predicate bare does not
        bumps = BumpGridSupport(d=2, q=5, m=7, radius=0.05)
        assert geometry._lattice_cells(centers, RegionMask(lat, region.cube_mask, bumps)) is not None
        bare = RegionMask(lat, region.cube_mask, lambda points: bumps(points))
        assert geometry._lattice_cells(centers, bare) is None
        # centers of another lattice
        other = GridLattice(d=2, delta=lat.delta * 1.5, cells_per_axis=lat.cells_per_axis)
        assert geometry._lattice_cells(other.centers(np.arange(10)), region) is None

    @pytest.mark.parametrize("n", [3, 4, 10])
    def test_result_does_not_depend_on_chunk(self, monkeypatch, n):
        # n below, equal to, and not a multiple of a four-center chunk
        lat = build_lattice(3000, 2, 2)
        rng = np.random.default_rng(n)
        region = RegionMask(lat, rng.random(lat.n_cubes) < 0.5)
        lattice_centers = lat.centers(rng.choice(lat.n_cubes, size=n, replace=False))
        loose_centers = rng.random((n, 2))
        offsets, _, lo, _ = geometry._ball_quadrature(2, 32)
        cases = [(loose_centers, region), (lattice_centers, _halfspace), (lattice_centers, region)]
        whole = [_cloud_fractions(x, 0.1, reg, 32) >= 0.3 for x, reg in cases]
        counts = geometry._lattice_counts(geometry._lattice_cells(lattice_centers, region), 0.1, region, 32)
        for chunk in (4 * len(offsets), 4 * len(lo)):
            monkeypatch.setattr(geometry, "_SCREEN_CHUNK", chunk)
            for (x, reg), want in zip(cases, whole):
                np.testing.assert_array_equal(batch_weak_regularity(x, 0.1, 0.3, reg, 32), want)
            np.testing.assert_array_equal(
                geometry._lattice_counts(geometry._lattice_cells(lattice_centers, region), 0.1, region, 32),
                counts,
            )

    def test_large_lattice_screens_in_bounded_memory(self):
        lat = build_lattice(2**16, 2.0, 2)
        assert lat.n_cubes == 200_704
        rng = np.random.default_rng(16)
        region = RegionMask(lat, rng.random(lat.n_cubes) < 0.5)
        centers = lat.all_centers()
        radius, c = 0.05, 1.0 / 48.0
        limit = 128 * 2**20
        tracemalloc.start()
        try:
            on_lattice = batch_weak_regularity(centers, radius, c, region)
            lattice_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            by_points = batch_weak_regularity(centers, radius, c, region.contains)
            point_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lattice_peak < limit, lattice_peak
        assert point_peak < limit, point_peak
        np.testing.assert_array_equal(on_lattice, by_points)


def _cube_probes(lat, cube, rng):
    """Corners, face and edge points, the center and random interior points of a
    cube, kept where they lie in the unit cube and the lattice assigns them to it."""
    lo = np.asarray(cube, dtype=float) * lat.delta
    grid = np.stack(np.meshgrid(*([np.array([0.0, 0.5, 1.0])] * lat.d), indexing="ij"), axis=-1)
    unit = np.concatenate([grid.reshape(-1, lat.d), rng.random((16, lat.d))])
    points = lo + lat.delta * unit
    points = points[np.all((points >= 0.0) & (points <= 1.0), axis=1)]
    return points[lat.cube_index(points) == lat.flat_id(tuple(cube))]


class TestCubeClassifier:
    """Cubes a classifier calls in or out agree with the predicate everywhere in them."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([2, 3]),
        q=st.integers(1, 8),
        bumps=st.floats(0.0, 1.0),
        cells=st.integers(1, 12),
        overhang=st.floats(1.0, 1.6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_and_out_cubes_agree_with_the_predicate(self, d, q, bumps, cells, overhang, seed):
        if d == 3:
            q, cells = min(q, 4), min(cells, 7)
        support = BumpGridSupport(d=d, q=q, m=max(1, round(bumps * q**d)), radius=1.0 / (4 * q))
        lat = GridLattice(d=d, delta=overhang / cells, cells_per_axis=cells)
        classes = support.classify_cubes(lat)
        assert classes.shape == (lat.n_cubes,) and set(np.unique(classes)) <= {CUBE_IN, CUBE_OUT, CUBE_MIXED}
        rng = np.random.default_rng(seed)
        for flat in np.nonzero(classes != CUBE_MIXED)[0]:
            cube = lat.cube_id(int(flat))
            points = _cube_probes(lat, cube, rng)  # none if the cube lies past x = 1
            assert np.all(support(points) == (classes[flat] == CUBE_IN)), (cube, classes[flat])

    def test_cube_faces_on_cell_faces(self):
        # eight cubes per cell and axis: cube faces lie on the 1/q cell faces
        # and on the bounding box of each ball
        support = BumpGridSupport(d=2, q=4, m=16, radius=1.0 / 16)
        lat = GridLattice(d=2, delta=1.0 / 32, cells_per_axis=32)
        classes = support.classify_cubes(lat)
        assert {CUBE_IN, CUBE_OUT, CUBE_MIXED} <= set(np.unique(classes))
        rng = np.random.default_rng(0)
        for flat in np.nonzero(classes != CUBE_MIXED)[0]:
            points = _cube_probes(lat, lat.cube_id(int(flat)), rng)
            assert np.all(support(points) == (classes[flat] == CUBE_IN))

    def test_classes_are_computed_once_per_lattice(self):
        support = BumpGridSupport(d=2, q=7, m=7, radius=1.0 / 28)
        lat = build_lattice(2048, 2.0, 2)
        first = support.classify_cubes(lat)
        assert support.classify_cubes(lat) is first and not first.flags.writeable
        assert np.bincount(first, minlength=3)[CUBE_MIXED] < lat.n_cubes // 10

    def test_unit_cube_has_no_mixed_cube(self):
        lat = GridLattice(d=2, delta=0.3, cells_per_axis=4)
        assert np.all(unit_cube_support.classify_cubes(lat) == CUBE_IN)

    def test_support_mask_matches_the_bare_predicate(self):
        rng = np.random.default_rng(7)
        for case in range(40):
            d = case % 2 + 2
            lat = _random_lattice(rng, d)
            support = _random_bump_grid(rng, d)
            for resolution in (2, 8):
                np.testing.assert_array_equal(
                    support_cube_mask(lat, support, resolution),
                    support_cube_mask(lat, lambda points: support(points), resolution),
                )
            np.testing.assert_array_equal(
                support_cube_mask(lat, unit_cube_support),
                support_cube_mask(lat, lambda points: unit_cube_support(points)),
            )

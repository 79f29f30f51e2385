import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import former_paths
from smoothbandit import geometry
from smoothbandit.environments import BumpGridSupport, make_lower_bound_instance
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
            assert _flat_id(lat, cube) == f

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


def _flat_id(lat, cube):
    """Flat index of a per-axis cube index, last axis fastest (reference)."""
    flat = 0
    for j in cube:
        flat = flat * lat.cells_per_axis + int(j)
    return flat


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
        assert lat.centers().tobytes() == centers.tobytes()
        np.testing.assert_array_equal(lat.cube_index(centers), flat)
        for f in flat:
            cube = lat.cube_id(int(f))
            assert cube == tuple(int(j) for j in ids[f])
            assert _flat_id(lat, cube) == f
            assert lat.center(int(f)).tobytes() == centers[f].tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_non_finite_and_huge_coordinates_cast_cleanly_off_the_lattice(self, d):
        # these reached the int64 cast unbounded: "invalid value encountered in cast"
        lat = GridLattice(d=d, delta=1.3 / 7, cells_per_axis=7)
        rng = np.random.default_rng(d)
        bad = [np.nan, np.inf, -np.inf, 1e30, -1e30]
        points = rng.random((d * len(bad), d))
        for i, (axis, value) in enumerate(itertools.product(range(d), bad)):
            points[i, axis] = value
        good = rng.random((6, d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat = lat.cube_index(np.vstack([points, good]))
            j = lat.axis_index(points)
        np.testing.assert_array_equal(flat[: len(points)], -1)
        np.testing.assert_array_equal(flat[len(points) :], [_flat_id(lat, np.floor(x / lat.delta)) for x in good])
        off = ~np.isfinite(points) | (np.abs(points) > 1.0)
        np.testing.assert_array_equal((j < 0) | (j >= lat.cells_per_axis), off)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bump_grid_support_casts_non_finite_and_huge_coordinates_cleanly(self, d):
        # the support's cell index cast NaN and 1e30 unbounded: "invalid value encountered in cast"
        support = BumpGridSupport(d=d, q=3, m=3**d // 2 + 1, radius=1.0 / 12.0)
        lat = GridLattice(d=d, delta=1.2 / 7, cells_per_axis=7)
        region = RegionMask(lat, np.ones(lat.n_cubes, dtype=bool), support)
        bad = [np.nan, np.inf, -np.inf, 1e30, -1e30]
        points = support.cell_centers(np.arange(d * len(bad)) % support.m)
        for i, (axis, value) in enumerate(itertools.product(range(d), bad)):
            points[i, axis] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = support.cell_index(points)
            inside = support(points)
            contained = region.contains(points)
            fractions = [ball_region_fraction(x, 0.1, region, resolution=8) for x in points]
            bumps = support(support.cell_centers(np.arange(support.m)))
        np.testing.assert_array_equal((cells >= 0) & (cells < 3**d), True)
        np.testing.assert_array_equal(inside, False)
        np.testing.assert_array_equal(contained, False)
        np.testing.assert_array_equal(fractions, 0.0)
        np.testing.assert_array_equal(bumps, True)

    def test_points_of_another_dimension_raise(self):
        # a 3-d point landed in cube 0 of a 2-d lattice, a ball of 3-d points
        # filled a 2-d region, and a 1-d point raised a bare IndexError
        lat = GridLattice(d=2, delta=0.25, cells_per_axis=4)
        region = RegionMask(lat, np.ones(lat.n_cubes, dtype=bool))
        for point in ([[0.5, 0.5, 0.5]], [[0.5]]):
            with pytest.raises(ValueError, match="lattice has dimension 2"):
                lat.cube_index(point)
            with pytest.raises(ValueError, match="lattice has dimension 2"):
                region.contains(point)
            with pytest.raises(ValueError, match="lattice has dimension 2"):
                ball_region_fraction(point[0], 0.1, region, resolution=8)
            for screened in (region, region.contains):
                with pytest.raises(ValueError, match="lattice has dimension 2"):
                    batch_weak_regularity(np.array(point), 0.1, 0.5, screened, resolution=8)

    def test_out_of_range_indices_raise(self):
        lat = GridLattice(d=2, delta=0.25, cells_per_axis=4)
        for flat in (-1, 16):
            with pytest.raises(ValueError, match="out of range"):
                lat.cube_id(flat)


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
        centers = lat.centers()[:4]
        for on_lattice in (region, region.contains):
            with pytest.raises(ValueError, match="radius must be finite and positive"):
                batch_weak_regularity(centers, radius, 0.5, on_lattice)
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            is_weakly_regular(centers[0], radius, 0.5, region)
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            ball_region_fraction(centers[0], radius, region)

    def test_entry_points_take_one_point(self):
        # two 2-D centers were once read as one 4-D center (fraction 0.25)
        for center in ([[0.5, 0.5], [0.0, 0.0]], np.zeros((5, 2)), np.zeros((1, 1, 2)), np.zeros((0, 2))):
            with pytest.raises(ValueError, match="center must be one point"):
                ball_region_fraction(center, 0.1, unit_cube_support, resolution=16)
            with pytest.raises(ValueError, match="center must be one point"):
                is_weakly_regular(center, 0.1, 0.5, unit_cube_support, resolution=16)
        for center in (0.5, [0.5], [[0.5]]):
            assert ball_region_fraction(center, 0.1, unit_cube_support) == 1.0
        row = ball_region_fraction([[0.5, 0.0]], 0.1, unit_cube_support, resolution=16)
        assert row == ball_region_fraction([0.5, 0.0], 0.1, unit_cube_support, resolution=16) == 0.5

    def test_one_point_check_holds_under_optimize(self):
        code = (
            "import numpy as np\n"
            "from smoothbandit.geometry import ball_region_fraction, unit_cube_support\n"
            "try:\n"
            "    ball_region_fraction(np.zeros((5, 2)), 0.1, unit_cube_support, resolution=2)\n"
            "except ValueError as exc:\n"
            "    print('refused', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(geometry.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.startswith("refused center must be one point")
        # and the screen-table layout and own-point screen tests but the memory
        # ones: every test collected without -O passes under it, none skipped
        selected = "(TestScreenTableLayout or TestOwnPointScreen) and not memory"
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__, "-k", selected]
        collected = subprocess.run([*cmd, "--collect-only"], env=env, capture_output=True, text=True, timeout=300)
        assert collected.returncode == 0, collected.stdout + collected.stderr
        n = int(re.search(r"^(\d+)(?:/\d+)? tests? collected", collected.stdout, re.MULTILINE).group(1))
        assert n > 0
        proc = subprocess.run([cmd[0], "-O", *cmd[1:]], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        summary = proc.stdout.strip().splitlines()[-1]
        outcomes = {word: int(count) for count, word in re.findall(r"(\d+) (\w+)", summary)}
        assert outcomes.get("passed") == n, summary
        assert set(outcomes) <= {"passed", "deselected", "warning", "warnings"}, summary

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
    q = int(rng.integers(1, {1: 40, 2: 9, 3: 5}[d]))
    return BumpGridSupport(d=d, q=q, m=int(rng.integers(1, q**d + 1)), radius=1.0 / (4 * q))


def _assert_counts_stop_at_need(cells, centers, radius, region, resolution, rng):
    """The lattice path's counts stopped at ``need`` against the point path's
    exact counts, for ``need`` 0, 1, a random value, ``denom`` and ``denom + 1``
    (the exact count)."""
    offsets = geometry._ball_quadrature(centers.shape[1], resolution)[0]
    exact = geometry._point_counts(centers, radius * offsets, region)
    denom = len(offsets)
    for need in (0, 1, int(rng.integers(0, denom + 2)), denom, denom + 1):
        np.testing.assert_array_equal(
            geometry._lattice_counts(cells, radius, region, resolution, need), np.minimum(exact, need)
        )


class TestLatticeScreening:
    """The lattice path of the screening test against the point-level oracle."""

    def test_lattice_path_matches_point_path(self):
        rng = np.random.default_rng(20240)
        needs = np.random.default_rng(20242)
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
            _assert_counts_stop_at_need(cells, centers, radius, region, resolution, needs)
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
        needs = np.random.default_rng(20243)
        for case in range(540):
            d = case % 2 + 2 if case < 240 else 1
            lat = _random_lattice(rng, d)
            support = _random_bump_grid(rng, d)
            region = RegionMask(lat, rng.random(lat.n_cubes) < rng.uniform(0.0, 1.0), support)
            resolution = 2 + case % 32
            radius = float(np.exp(rng.uniform(np.log(lat.delta / 4), np.log(1.5))))
            centers = _screen_centers(rng, lat, 24)
            cells = geometry._lattice_cells(centers, region)
            assert cells is not None
            _assert_counts_stop_at_need(cells, centers, radius, region, resolution, needs)

    def test_need_reproduces_the_float_threshold(self):
        # every attained fraction k / denom and its neighbours on either side
        ball_sizes = [len(geometry._ball_quadrature(d, r)[0]) for d, r in ((2, 32), (3, 16), (2, 7))]
        for denom in [*range(1, 120), *ball_sizes]:
            counts = np.arange(denom + 1)
            for k in range(denom + 1):
                for c in (np.nextafter(k / denom, -1.0), k / denom, np.nextafter(k / denom, 2.0)):
                    need = geometry._need(float(c), denom)
                    assert 0 <= need <= denom + 1
                    np.testing.assert_array_equal(counts >= need, counts / denom >= c)

    def test_centers_the_in_cube_rows_decide_test_no_point(self):
        # the hard instance's bump-grid support: its member cubes include
        # mixed ones, yet at c = 1/48 every center passes on in-cube rows
        support = make_lower_bound_instance(T=100000, beta=2.0, alpha=0.5, d=2, seed=3).support
        tested = []

        def counted(points):
            tested.append(len(points))
            return support(points)

        counted.classify_cubes = support.classify_cubes
        lat = build_lattice(2048, 2.0, 2)
        mask = support_cube_mask(lat, support)
        assert np.any(mask & (support.classify_cubes(lat) == CUBE_MIXED))
        region = RegionMask(lat, mask, counted)
        centers = lat.centers(np.nonzero(mask)[0])
        bare = RegionMask(lat, mask, lambda points: support(points))
        for radius in (lat.delta, 0.05):
            passed = batch_weak_regularity(centers, radius, 1.0 / 48.0, region)
            assert sum(tested) == 0
            np.testing.assert_array_equal(passed, batch_weak_regularity(centers, radius, 1.0 / 48.0, bare))
            # exact counts do test the points in mixed cubes
            denom = len(geometry._ball_quadrature(2, 32)[0])
            geometry._lattice_counts(geometry._lattice_cells(centers, region), radius, region, 32, denom + 1)
            assert sum(tested) > 0
            tested.clear()

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
        # counts on the plain region and on one with mixed cubes, whose
        # centers left below need the own-point counter recounts
        bumps = RegionMask(lat, region.cube_mask, BumpGridSupport(d=2, q=5, m=7, radius=0.05))
        cells = geometry._lattice_cells(lattice_centers, region)
        for chunk in (4 * len(offsets), 4 * len(lo)):
            monkeypatch.setattr(geometry, "_SCREEN_CHUNK", chunk)
            for (x, reg), want in zip(cases, whole):
                np.testing.assert_array_equal(batch_weak_regularity(x, 0.1, 0.3, reg, 32), want)
            for reg in (region, bumps):
                _assert_counts_stop_at_need(cells, lattice_centers, 0.1, reg, 32, np.random.default_rng(n))

    def test_large_lattice_screens_in_bounded_memory(self):
        lat = build_lattice(2**16, 2.0, 2)
        assert lat.n_cubes == 200_704
        rng = np.random.default_rng(16)
        region = RegionMask(lat, rng.random(lat.n_cubes) < 0.5)
        centers = lat.centers()
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

    def test_large_support_mask_in_bounded_memory(self):
        # a bare predicate makes every cube mixed; one array of all their
        # points took 804 MB
        lat = build_lattice(2**16, 2.0, 2)
        support = make_lower_bound_instance(T=100000, beta=2.0, alpha=0.5, d=2, seed=3).support
        tracemalloc.start()
        try:
            mask = support_cube_mask(lat, lambda points: support(points))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20, peak
        np.testing.assert_array_equal(mask, support_cube_mask(lat, support))


class TestScreenTableLayout:
    """The byte-wide, slot-major running table against a plain cumsum, and the
    lattice path's masks against the point path at the default resolution and
    at one that takes the wider type.  Raises rather than asserts, so it also
    runs under ``python -O``."""

    @pytest.mark.parametrize("resolution, dtype", [(2, np.uint8), (32, np.uint8), (255, np.uint8), (256, np.uint16), (300, np.uint16)])
    def test_running_counts_are_a_slot_major_cumsum(self, monkeypatch, resolution, dtype):
        rng = np.random.default_rng(resolution)
        d, cpa = 2, 7
        rows = geometry._padded_rows(rng.random(cpa**d) < 0.9, d, cpa)
        rows[0, :cpa] = True  # a row whose counts pass 255 at the wider resolutions
        axis_cube = rng.integers(0, cpa + 1, size=(cpa, resolution))
        axis_cube[0] = rng.integers(0, cpa, size=resolution)
        want = np.zeros((resolution + 1, len(rows), cpa), dtype=np.int64)
        want[1:] = np.cumsum(rows[:, axis_cube], axis=2).transpose(2, 0, 1)
        np.testing.assert_equal(int(want.max()), resolution)
        # one block, one row a block, and blocks that do not divide the rows
        for chunk in (geometry._SCREEN_CHUNK, cpa, 3 * cpa):
            monkeypatch.setattr(geometry, "_SCREEN_CHUNK", chunk)
            running = geometry._running_counts(rows, axis_cube, resolution)
            np.testing.assert_equal(running.dtype, np.dtype(dtype))
            np.testing.assert_array_equal(running.reshape(want.shape), want)

    # d = 3 at resolution 256 is left out: its quadrature grid alone is 16.7M points
    @pytest.mark.parametrize("d, resolution", [(1, 32), (2, 32), (3, 32), (1, 256), (2, 256), (1, 300)])
    @pytest.mark.parametrize("bumps", [False, True])
    def test_lattice_masks_match_the_point_path(self, monkeypatch, d, resolution, bumps):
        rng = np.random.default_rng(100 * d + resolution + bumps)
        cells = {1: 37, 2: 11, 3: 6}[d]
        lat = GridLattice(d=d, delta=rng.uniform(1.0, 1.3) / cells, cells_per_axis=cells)
        support = BumpGridSupport(d=d, q=3, m=3**d // 2 + 1, radius=1.0 / 12.0) if bumps else None
        member = rng.random(lat.n_cubes) < 0.7
        region = RegionMask(lat, member, support)
        if bumps:  # member cubes the support cuts, whose points the own-point counter tests
            np.testing.assert_equal(bool(np.any(member & (support.classify_cubes(lat) == CUBE_MIXED))), True)
        dtypes = []
        running_counts = geometry._running_counts

        def recorded(rows, axis_cube, res):
            out = running_counts(rows, axis_cube, res)
            dtypes.append(out.dtype)
            return out

        monkeypatch.setattr(geometry, "_running_counts", recorded)
        centers = _screen_centers(rng, lat, 24)
        radius = 2.5 * lat.delta
        cells_of = geometry._lattice_cells(centers, region)
        _assert_counts_stop_at_need(cells_of, centers, radius, region, resolution, rng)
        if d == 1:  # a one-row ball gathers its own points: no table at all
            np.testing.assert_equal(dtypes, [])
        else:  # one in-cube table a call, five calls, mixed cubes or not
            np.testing.assert_equal(len(dtypes), 5)
            np.testing.assert_array_equal(dtypes, np.dtype(np.uint8 if resolution < 256 else np.uint16))
        fractions = _cloud_fractions(centers, radius, region, resolution)
        for c in (float(np.median(fractions)), 1.0 / 96.0, 1.0):
            np.testing.assert_array_equal(
                batch_weak_regularity(centers, radius, c, region, resolution),
                batch_weak_regularity(centers, radius, c, region.contains, resolution),
            )
            np.testing.assert_array_equal(batch_weak_regularity(centers, radius, c, region, resolution), fractions >= c)

    def test_d3_lattice_screens_in_bounded_memory(self):
        # the int32 table with its cumsum temporary traced 210-237 MB here
        lat = build_lattice(2**12, 2.0, 3)
        np.testing.assert_equal(lat.n_cubes, 729_000)
        rng = np.random.default_rng(12)
        region = RegionMask(lat, rng.random(lat.n_cubes) < 0.5)
        centers = lat.centers(rng.choice(lat.n_cubes, size=2000, replace=False))
        radius, c = 0.1, 1.0 / 96.0
        tracemalloc.start()
        try:
            on_lattice = batch_weak_regularity(centers, radius, c, region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_less(peak, 80 * 2**20)
        np.testing.assert_array_equal(on_lattice[:100], batch_weak_regularity(centers[:100], radius, c, region.contains))


def _own_point_counts(cells, radius, region, resolution, need):
    """The own-point counter on every given center, with the flags that
    ``_lattice_counts`` passes it."""
    member = np.asarray(region.cube_mask, dtype=bool)
    classes = geometry._classifier(region.support)(region.lattice)
    flags = member & (classes == CUBE_IN), member & (classes == CUBE_MIXED)
    return geometry._own_point_counts(cells, radius, region, resolution, need, *flags)


def _bump_grid_region(rng, d, overhang=1.0):
    """A small lattice under a bump grid, with member cubes the grid cuts."""
    cells = {2: 11, 3: 6}[d]
    lat = GridLattice(d=d, delta=overhang / cells, cells_per_axis=cells)
    support = BumpGridSupport(d=d, q=3, m=3**d // 2 + 1, radius=1.0 / 12.0)
    region = RegionMask(lat, rng.random(lat.n_cubes) < 0.7, support)
    np.testing.assert_equal(bool(np.any(region.cube_mask & (support.classify_cubes(lat) == CUBE_MIXED))), True)
    return region


class TestOwnPointScreen:
    """The own-point counter, which gathers each center's own points and
    builds no table: at d = 1, where it counts every center, against the
    point path at its edges, for ``need`` 0, 1, 2, about half the ball, all
    of it and one more; at d = 2 and 3 on every center of small bump-grid
    lattices, not only on those the rows leave below ``need``.  Raises rather
    than asserts, so it also runs under ``python -O``."""

    @staticmethod
    def _check(monkeypatch, lat, region, radius, resolution, centers=None):
        def no_table(*args):
            raise AssertionError("a d = 1 screen built a running-count table")

        monkeypatch.setattr(geometry, "_running_counts", no_table)
        centers = lat.centers() if centers is None else centers
        cells = geometry._lattice_cells(centers, region)
        np.testing.assert_equal(cells is None, False)
        offsets = geometry._ball_quadrature(1, resolution)[0]
        exact = geometry._point_counts(centers, radius * offsets, region)
        denom = len(offsets)
        for need in (0, 1, 2, denom // 2, denom, denom + 1):
            np.testing.assert_array_equal(
                geometry._lattice_counts(cells, radius, region, resolution, need), np.minimum(exact, need)
            )
        return exact

    @pytest.mark.parametrize("resolution", [3, 5, 33])
    def test_odd_resolution_counts_the_center_itself(self, monkeypatch, resolution):
        np.testing.assert_equal(float(geometry._midpoint_axis(resolution)[resolution // 2]), 0.0)
        lat = GridLattice(d=1, delta=1.0 / 23, cells_per_axis=23)
        region = RegionMask(lat, np.random.default_rng(resolution).random(23) < 0.5)
        exact = self._check(monkeypatch, lat, region, 2.5 * lat.delta, resolution)
        # need 1 is decided by the center's own point for a member center
        cells = geometry._lattice_cells(lat.centers(), region)
        np.testing.assert_array_equal(
            geometry._lattice_counts(cells, lat.delta / 3, region, resolution, 1), region.cube_mask.astype(np.int64)
        )
        np.testing.assert_equal(bool(np.any((exact > 0) & (exact < resolution))), True)

    def test_last_cube_overhanging_one(self, monkeypatch):
        lat = GridLattice(d=1, delta=1.45 / 11, cells_per_axis=11)
        for member in (np.ones(11, dtype=bool), np.random.default_rng(11).random(11) < 0.6):
            for support in (None, unit_cube_support):
                exact = self._check(monkeypatch, lat, RegionMask(lat, member, support), lat.delta, 32)
                # the last center lies past 1, and so do its far points
                np.testing.assert_equal(int(exact[-1]) < 32, True)
        np.testing.assert_equal(lat.centers()[-1, 0] > 1.0, True)

    @pytest.mark.parametrize("scale", [0.2, 0.249])
    def test_radius_below_a_quarter_cube(self, monkeypatch, scale):
        lat = GridLattice(d=1, delta=1.2 / 17, cells_per_axis=17)
        region = RegionMask(lat, np.random.default_rng(17).random(17) < 0.5)
        exact = self._check(monkeypatch, lat, region, scale * lat.delta, 32)
        # every point stays in the center's cube, and inside the unit cube for centers well below 1
        inside = lat.centers()[:, 0] + lat.delta < 1.0
        np.testing.assert_equal(int(inside.sum()), 13)
        np.testing.assert_array_equal(exact[inside], np.where(region.cube_mask[inside], 32, 0))

    @pytest.mark.parametrize("radius", [1.0 + 1e-9, 1.7])
    def test_radius_above_one(self, monkeypatch, radius):
        lat = GridLattice(d=1, delta=1.0 / 9, cells_per_axis=9)
        for resolution in (2, 32, 33):
            exact = self._check(monkeypatch, lat, RegionMask(lat, np.ones(9, dtype=bool)), radius, resolution)
            np.testing.assert_equal(bool(np.all(exact < resolution)), True)

    @pytest.mark.parametrize("resolution", [32, 33])
    def test_nearest_points_in_mixed_cubes(self, monkeypatch, resolution):
        support = BumpGridSupport(d=1, q=4, m=3, radius=0.06)
        lat = GridLattice(d=1, delta=1.1 / 50, cells_per_axis=50)
        mixed = np.nonzero(support.classify_cubes(lat) == CUBE_MIXED)[0]
        np.testing.assert_equal(len(mixed) > 0, True)
        tested = []

        def counted(points):
            tested.append(np.array(points))
            return support(points)

        counted.classify_cubes = support.classify_cubes
        region = RegionMask(lat, np.ones(50, dtype=bool), counted)
        centers = lat.centers(mixed)
        for radius in (lat.delta / 3, 4 * lat.delta):
            exact = self._check(monkeypatch, lat, region, radius, resolution, centers)
            # some centers hit the support and some miss part of it
            np.testing.assert_equal(bool(np.any(exact > 0) and np.any(exact < resolution)), True)
        # the two nearest points of every center, tested first: both lie in its own mixed cube
        tested.clear()
        cells = geometry._lattice_cells(centers, region)
        geometry._lattice_counts(cells, lat.delta / 3, region, resolution, 2)
        steps = lat.delta / 3 * geometry._midpoint_axis(resolution)
        nearest = np.sort(np.abs(steps))[1] + 1e-15
        np.testing.assert_equal(len(tested[0]), 2 * len(centers))
        np.testing.assert_array_less(np.abs(tested[0] - np.repeat(centers, 2, axis=0)), nearest)
        # then the rest, of only the centers those two left below need
        below = int(np.count_nonzero(support(tested[0]).reshape(-1, 2).sum(axis=1) < 2))
        np.testing.assert_equal(0 < below < len(centers), True)
        np.testing.assert_equal([len(t) for t in tested], [2 * len(centers), (resolution - 2) * below])

    @pytest.mark.parametrize("chunk", [1, 31, 32, 97])
    def test_blocks_do_not_change_counts(self, monkeypatch, chunk):
        lat = build_lattice(2**12, 2.0, 1)
        rng = np.random.default_rng(chunk)
        support = BumpGridSupport(d=1, q=7, m=5, radius=0.03)
        region = RegionMask(lat, rng.random(lat.n_cubes) < 0.8, support)
        monkeypatch.setattr(geometry, "_SCREEN_CHUNK", chunk)
        self._check(monkeypatch, lat, region, 3 * lat.delta, 32)

    @pytest.mark.parametrize("d, resolution", [(2, 32), (2, 7), (3, 16), (3, 5)])
    def test_whole_lattices_with_mixed_cubes(self, d, resolution):
        rng = np.random.default_rng(10 * d + resolution)
        offsets = geometry._ball_quadrature(d, resolution)[0]
        denom, partial = len(offsets), False
        for overhang in (1.0, rng.uniform(1.0, 1.3)):
            region = _bump_grid_region(rng, d, overhang)
            lat = region.lattice
            centers = lat.centers()
            cells = geometry._lattice_cells(centers, region)
            for radius in (lat.delta / 3, 2.5 * lat.delta):
                exact = geometry._point_counts(centers, radius * offsets, region)
                partial |= bool(np.any((exact > 0) & (exact < denom)))
                for need in (0, 1, int(rng.integers(0, denom + 2)), denom, denom + 1):
                    np.testing.assert_array_equal(
                        _own_point_counts(cells, radius, region, resolution, need), np.minimum(exact, need)
                    )
        np.testing.assert_equal(partial, True)

    def test_first_need_points_are_the_nearest_at_d2(self):
        support = BumpGridSupport(d=2, q=4, m=16, radius=0.06)
        lat = GridLattice(d=2, delta=1.0 / 30, cells_per_axis=30)
        tested = []

        def counted(points):
            tested.append(np.array(points))
            return support(points)

        counted.classify_cubes = support.classify_cubes
        region = RegionMask(lat, np.ones(lat.n_cubes, dtype=bool), counted)
        centers = lat.centers(np.nonzero(support.classify_cubes(lat) == CUBE_MIXED)[0])
        cells = geometry._lattice_cells(centers, region)
        # the four nearest offsets, (+-1/32, +-1/32), are strictly nearer than the rest,
        # and at a third of a cube every point stays in its center's mixed cube
        radius, need = lat.delta / 3, 4
        norms = np.linalg.norm(geometry._nearest_offsets(2, 32), axis=1)
        np.testing.assert_array_less(norms[need - 1], norms[need])
        _own_point_counts(cells, radius, region, 32, need)
        np.testing.assert_equal(len(tested[0]), need * len(centers))
        distance = np.linalg.norm(tested[0] - np.repeat(centers, need, axis=0), axis=1)
        np.testing.assert_array_less(distance, radius * (norms[need - 1] + norms[need]) / 2)
        # then the rest, of only the centers those four left below need
        below = int(np.count_nonzero(support(tested[0]).reshape(-1, need).sum(axis=1) < need))
        np.testing.assert_equal(0 < below < len(centers), True)
        np.testing.assert_equal([len(t) for t in tested], [need * len(centers), (len(norms) - need) * below])

    @pytest.mark.parametrize("chunk", [1, 97, 1000, 5000])
    def test_blocks_do_not_change_counts_at_d2_and_d3(self, monkeypatch, chunk):
        rng = np.random.default_rng(chunk)
        for d, resolution in ((2, 32), (3, 8)):
            region = _bump_grid_region(rng, d, rng.uniform(1.0, 1.3))
            centers = region.lattice.centers()
            cells = geometry._lattice_cells(centers, region)
            radius = 2.5 * region.lattice.delta
            offsets = geometry._ball_quadrature(d, resolution)[0]
            exact = geometry._point_counts(centers, radius * offsets, region)
            with monkeypatch.context() as patched:
                patched.setattr(geometry, "_SCREEN_CHUNK", chunk)
                for need in (1, len(offsets) // 2, len(offsets) + 1):
                    want = np.minimum(exact, need)
                    np.testing.assert_array_equal(_own_point_counts(cells, radius, region, resolution, need), want)
                    np.testing.assert_array_equal(
                        geometry._lattice_counts(cells, radius, region, resolution, need), want
                    )

    def test_flagged_d3_bump_grid_screen_in_bounded_memory(self, monkeypatch):
        # with a second, member-and-mixed running table this screen traced 28 MB
        support = make_lower_bound_instance(T=100000, beta=2.0, alpha=0.5, d=3, seed=3).support
        lat = build_lattice(2**11, 2.0, 3)
        rng = np.random.default_rng(30)
        mixed = support.classify_cubes(lat) == CUBE_MIXED
        member = support_cube_mask(lat, support) & (rng.random(lat.n_cubes) < 0.5)
        region = RegionMask(lat, member, support)
        centers = lat.centers(rng.choice(np.nonzero(member & mixed)[0], size=60, replace=False))
        recounted = []
        own_point_counts = geometry._own_point_counts

        def recorded(cells, *args):
            recounted.append(len(cells))
            return own_point_counts(cells, *args)

        monkeypatch.setattr(geometry, "_own_point_counts", recorded)
        radius, c = 0.06, 1.0 / 8.0
        tracemalloc.start()
        try:
            passed = batch_weak_regularity(centers, radius, c, region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_less(peak, 20 * 2**20)
        np.testing.assert_equal(0 < int(np.count_nonzero(~passed)) and len(recounted) == 1, True)
        np.testing.assert_array_equal(passed, batch_weak_regularity(centers, radius, c, region.contains))


def _cube_probes(lat, cube, rng):
    """Corners, face and edge points, the center and random interior points of a
    cube, kept where they lie in the unit cube and the lattice assigns them to it."""
    lo = np.asarray(cube, dtype=float) * lat.delta
    grid = np.stack(np.meshgrid(*([np.array([0.0, 0.5, 1.0])] * lat.d), indexing="ij"), axis=-1)
    unit = np.concatenate([grid.reshape(-1, lat.d), rng.random((16, lat.d))])
    points = lo + lat.delta * unit
    points = points[np.all((points >= 0.0) & (points <= 1.0), axis=1)]
    return points[lat.cube_index(points) == _flat_id(lat, tuple(cube))]


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

    @pytest.mark.parametrize("block", [1, 7, None], ids=["block_1", "block_7", "default_block"])
    def test_blocks_match_the_one_shot_oracle(self, monkeypatch, block):
        # the former classifier built every cube's arrays at once; cases:
        # hard_d2's support and lattice, then random grids at d = 1, 2, 3
        hard = make_lower_bound_instance(T=100000, beta=2.0, alpha=0.5, d=2, seed=3)
        cases = [(hard.support, build_lattice(2048, 2.0, 2))]
        rng = np.random.default_rng(25)
        cases += [(_random_bump_grid(rng, d), _random_lattice(rng, d)) for d in (1, 2, 3) * 10]
        seen = set()
        for support, lat in cases:
            if block is not None:
                monkeypatch.setattr(geometry, "_SCREEN_CHUNK", block * support.d)
            want = former_paths.classify(support, lat)
            np.testing.assert_array_equal(support._classify(lat), want)
            seen.update(np.unique(want).tolist())
        assert seen == {CUBE_IN, CUBE_OUT, CUBE_MIXED}

    def test_large_classification_in_bounded_memory(self):
        # d = 3 bump grid at 2^12, 729,000 cubes: 235 MB traced in one shot
        support = make_lower_bound_instance(T=100000, beta=2.0, alpha=0.5, d=3, seed=3).support
        lat = build_lattice(4096, 2.0, 3)
        tracemalloc.start()
        try:
            support._classify(lat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

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

    def test_support_mask_matches_the_one_shot_oracle(self):
        # the former mask built every mixed cube's points in one array
        rng = np.random.default_rng(24)
        for case in range(60):
            d = case % 3 + 1
            lat = _random_lattice(rng, d)
            support = _random_bump_grid(rng, d)
            supports = (support, lambda points, s=support: s(points), None, unit_cube_support)
            for resolution in (2, 8):
                for sup in supports:
                    np.testing.assert_array_equal(
                        support_cube_mask(lat, sup, resolution),
                        former_paths.support_cube_mask(lat, sup, resolution),
                    )

    def test_support_mask_blocks_match_the_oracle(self, monkeypatch):
        # several blocks of mixed cubes, one ending mid-way
        lat = GridLattice(d=2, delta=1.3 / 23, cells_per_axis=23)
        support = BumpGridSupport(d=2, q=5, m=11, radius=0.05)
        bare = lambda points: support(points)  # noqa: E731
        want = former_paths.support_cube_mask(lat, bare, 8)
        monkeypatch.setattr(geometry, "_SCREEN_CHUNK", 7 * 64)
        np.testing.assert_array_equal(support_cube_mask(lat, bare, 8), want)
        assert 0 < want.sum() < lat.n_cubes

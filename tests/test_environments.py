import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate

import former_paths
import reward_oracle
import smoothbandit
from smoothbandit import environments
from smoothbandit.environments import (
    BumpGridSupport,
    bump_u,
    bump_u_deriv,
    cate,
    first_max,
    make_constant_multi_arm,
    make_lower_bound_instance,
    make_smooth_instance,
    margin_probability,
    oracle_arm,
    step_outcomes,
    verify_density,
    verify_holder,
    verify_margin,
    verify_regularity,
)


class TestSmoothFamilies:
    def test_constant_gap(self):
        inst = make_smooth_instance("constant_gap", d=1, gap=0.5)
        X = np.random.default_rng(0).random((100, 1))
        np.testing.assert_allclose(cate(inst, X), 0.5)
        assert oracle_arm(inst, np.array([0.3])) == 1

    def test_oracle_tie_and_sign_rules(self):
        # zero effect resolves to +1; a negative effect to -1
        tie = make_smooth_instance("constant_gap", d=1, gap=0.0)
        assert oracle_arm(tie, np.array([0.3])) == 1
        sine = make_smooth_instance("sinusoidal", d=1, amplitude=0.6)
        assert cate(sine, np.array([[0.75]]))[0] == pytest.approx(-0.6)
        assert oracle_arm(sine, np.array([0.75])) == -1

    def test_sinusoidal_effect_value(self):
        inst = make_smooth_instance("sinusoidal", d=1, frequency=1.0, amplitude=0.4)
        assert cate(inst, np.array([[0.25]]))[0] == pytest.approx(0.4)
        assert cate(inst, np.array([[0.75]]))[0] == pytest.approx(-0.4)

    def test_means_stay_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for inst in (
            make_smooth_instance("constant_gap", d=2, gap=0.8),
            make_smooth_instance("sinusoidal", d=2, frequency=2.0, amplitude=1.0),
            make_smooth_instance("polynomial_boundary", d=1, degree=3, scale=0.5),
        ):
            X = inst.sample_contexts(rng, 100_000)
            for arm in inst.arms:
                m = inst.mean(X, arm)
                assert np.all((m >= 0) & (m <= 1))

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_smooth_instance("constant_gap", d=1, gap=1.5)
        with pytest.raises(ValueError):
            make_smooth_instance("sinusoidal", d=1, amplitude=0.0)
        with pytest.raises(ValueError):
            make_smooth_instance("unknown_family")

    @pytest.mark.parametrize(
        "build, message",
        [
            # these once built, and a run wrote NaN into summary.json
            (lambda: make_smooth_instance("sinusoidal", d=1, frequency=math.nan), "frequency must be"),
            (lambda: make_constant_multi_arm((0.2, math.nan), d=1), r"means must lie in \[0, 1\]"),
            (lambda: make_smooth_instance("polynomial_boundary", d=1, degree=1.5), "degree must be an integer"),
            (lambda: make_smooth_instance("constant_gap", d=1, beta=math.nan), "smoothness must be"),
            # these once built, and the runs failed
            (lambda: make_smooth_instance("sinusoidal", d=0), "dimension must be an integer >= 1"),
            (lambda: make_smooth_instance("sinusoidal", d=1.5), "dimension must be an integer >= 1"),
            (lambda: make_constant_multi_arm((0.2, 0.8), d=0), "dimension must be an integer >= 1"),
            (lambda: make_lower_bound_instance(T=100_000, beta=1.0, alpha=0.5, d=1.5), "dimension must be"),
        ],
        ids=["frequency_nan", "mean_nan", "degree_1.5", "beta_nan", "d_0", "d_1.5", "multi_d_0", "lower_bound_d_1.5"],
    )
    def test_rejects_values_that_fail_late_or_silently(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_sampler_respects_support(self):
        rng = np.random.default_rng(2)
        inst = make_smooth_instance("sinusoidal", d=2)
        X = inst.sample_contexts(rng, 10_000)
        assert np.all(inst.support(X))

    def test_sinusoidal_margin_exponent_is_one(self):
        # local linearization oracle: P(0 < |tau| <= t) ~ (2 / (pi A)) t,
        # so the log-log slope of the margin law is 1
        inst = make_smooth_instance("sinusoidal", d=1, amplitude=0.4)
        rng = np.random.default_rng(3)
        ts = np.array([0.01, 0.02, 0.04, 0.08])
        ps = np.array([margin_probability(inst, t, 400_000, rng)[0] for t in ts])
        slope = np.polyfit(np.log(ts), np.log(ps), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_polynomial_boundary_margin_exponent(self):
        # P(0 < |tau| <= t) = 2 (t / scale)^(1/degree) exactly for x1 uniform
        inst = make_smooth_instance("polynomial_boundary", d=1, degree=2, scale=0.5)
        rng = np.random.default_rng(4)
        for t in (0.01, 0.05):
            p_hat, se = margin_probability(inst, t, 400_000, rng)
            expected = 2 * (t / 0.5) ** 0.5
            assert abs(p_hat - expected) <= 4 * se + 1e-3

    def test_lipschitz_spot_check(self):
        rng = np.random.default_rng(5)
        for name, kwargs in (
            ("constant_gap", {"gap": 0.5}),
            ("sinusoidal", {"frequency": 1.0, "amplitude": 0.4}),
            ("polynomial_boundary", {"degree": 2, "scale": 0.5}),
        ):
            inst = make_smooth_instance(name, d=1, **kwargs)
            x = inst.sample_contexts(rng, 100_000)
            x2 = inst.sample_contexts(rng, 100_000)
            dist = np.linalg.norm(x - x2, axis=1)
            for arm in inst.arms:
                gap = np.abs(inst.mean(x, arm) - inst.mean(x2, arm))
                assert np.all(gap <= inst.meta.L1 * dist + 1e-12)

    def test_holder_report_sinusoidal(self):
        # Lagrange remainder oracle: |eta_a'' | <= (A/2)(2 pi f)^2, so the
        # order-1 remainder ratio is at most A (2 pi f)^2 / 4 = declared L
        inst = make_smooth_instance("sinusoidal", d=1, frequency=1.0, amplitude=0.4, beta=2.0)
        assert inst.meta.L == pytest.approx(0.4 * (2 * math.pi) ** 2 / 4)
        report = verify_holder(inst, beta=2.0, L=inst.meta.L, n_pairs=5000, rng=np.random.default_rng(6))
        assert report.passed

    def test_holder_degenerate_cases(self):
        gap = make_smooth_instance("constant_gap", d=1, gap=0.5)
        assert verify_holder(gap, beta=1.0, L=0.0, n_pairs=2000, rng=np.random.default_rng(7)).passed
        # degree-1 polynomial response is exactly reproduced by its Taylor expansion
        lin = make_smooth_instance("polynomial_boundary", d=1, degree=1, scale=0.6, beta=2.0)
        assert verify_holder(lin, beta=2.0, L=0.0, n_pairs=2000, rng=np.random.default_rng(8)).passed

    def test_margin_validator_constant_gap(self):
        inst = make_smooth_instance("constant_gap", d=1, gap=0.5)
        report = verify_margin(inst, alpha=1.0, gamma=1.0, t_grid=[0.4], n_samples=20_000,
                               rng=np.random.default_rng(9))
        assert report.passed
        assert report.rows[0].value == 0.0

    def test_regularity_validator_sinusoidal(self):
        inst = make_smooth_instance("sinusoidal", d=1, amplitude=0.4)
        assert verify_regularity(inst, n_points=20, rng=np.random.default_rng(10)).passed


class TestRewards:
    def test_bernoulli_mean_matches(self):
        inst = make_smooth_instance("sinusoidal", d=1, amplitude=0.4)
        rng = np.random.default_rng(11)
        x = np.array([[0.2]])
        mean = float(inst.mean(x, 1)[0])
        draws = inst.sample_rewards(rng, np.full(100_000, mean))
        se = math.sqrt(mean * (1 - mean) / 100_000)
        assert np.isin(draws, [0.0, 1.0]).all()
        assert abs(draws.mean() - mean) <= 3 * se

    def test_truncated_gaussian_mean_and_range(self):
        inst = make_smooth_instance("sinusoidal", d=1, amplitude=0.4, noise="truncated_gaussian",
                                    noise_scale=0.1)
        rng = np.random.default_rng(12)
        mean = 0.62
        draws = inst.sample_rewards(rng, np.full(100_000, mean))
        assert np.all((draws >= 0) & (draws <= 1))
        assert abs(draws.mean() - mean) <= 3 * draws.std() / math.sqrt(len(draws))

    def test_truncated_gaussian_degenerate_means(self):
        # a mean at 0 or 1 leaves no symmetric room: reward is deterministic
        inst = make_smooth_instance("sinusoidal", d=1, amplitude=1.0, noise="truncated_gaussian",
                                    noise_scale=0.1)
        rng = np.random.default_rng(13)
        y = inst.sample_rewards(rng, np.array([0.0, 0.25, 1.0]))
        assert y[0] == 0.0 and y[2] == 1.0
        assert 0.0 <= y[1] <= 0.5


def _noisy(noise, d):
    return make_smooth_instance("sinusoidal", d=d, amplitude=0.4, noise=noise, noise_scale=0.15)


def _assert_same(got, want, rng_got, rng_want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


# means at 0, 0.5 and 1, interior ones and ones close to the ends
_MEAN_GRIDS = {
    "half": np.full(7, 0.5),
    "interior": np.random.default_rng(40).random(200),
    "near_ends": np.array([1e-12, 1e-3, 0.999, 1 - 1e-12, 0.5]),
    "ends": np.array([0.0, 0.5, 1.0, 1.0, 0.0, 0.25]),
}


class TestRewardLawOracle:
    """``sample_rewards`` on ``rewards`` against the former sampler, bit for bit."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize(
        "noise, grid",
        [("bernoulli", grid) for grid in _MEAN_GRIDS]
        + [("truncated_gaussian", grid) for grid in ("half", "interior", "near_ends")],
    )
    def test_matches_the_former_sampler(self, d, noise, grid):
        inst = _noisy(noise, d)
        means = _MEAN_GRIDS[grid]
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            _assert_same(inst.sample_rewards(a, means), reward_oracle.sample_rewards(inst, b, means), a, b)
            for m in means:
                one = np.array([m])
                _assert_same(inst.sample_rewards(a, one), reward_oracle.sample_rewards(inst, b, one), a, b)

    @pytest.mark.parametrize("d", [1, 2])
    def test_truncated_gaussian_mean_at_an_end_uses_up_its_uniform(self, d):
        # the one declared departure from the former sampler: a step whose
        # mean is 0 or 1 returns its mean and still uses up its uniform
        inst = _noisy("truncated_gaussian", d)
        means = _MEAN_GRIDS["ends"]
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = inst.sample_rewards(a, means)
            want = np.empty_like(means)
            for i, m in enumerate(means):
                if m in (0.0, 1.0):
                    b.random(1)
                    want[i] = m
                else:
                    want[i] = reward_oracle.sample_rewards(inst, b, np.array([m]))[0]
            _assert_same(got, want, a, b)
            for m in (0.0, 1.0):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                assert inst.sample_rewards(a, np.array([m])).tolist() == [m]
                b.random(1)
                assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("noise", ["bernoulli", "truncated_gaussian"])
    def test_rewards_read_the_given_uniforms(self, noise):
        inst = _noisy(noise, 1)
        means = _MEAN_GRIDS["interior"]
        rng = np.random.default_rng(5)
        want = inst.sample_rewards(rng, means)
        u = np.random.default_rng(5).random(len(means))
        assert inst.rewards(means, u).tobytes() == want.tobytes()
        # a step's reward depends on its own uniform only
        assert inst.rewards(means[::-1], u[::-1]).tobytes() == want[::-1].tobytes()

    def test_unknown_law_raises(self):
        with pytest.raises(ValueError, match="unknown noise law 'cauchy'"):
            dataclasses.replace(_noisy("bernoulli", 1), noise="cauchy")


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is slow to import and only truncated-Gaussian rewards use it,
    # so neither a Bernoulli binned-UCB run nor a smooth run loads it
    src = os.path.dirname(os.path.dirname(os.path.abspath(smoothbandit.__file__)))
    code = (
        "import sys, smoothbandit; loaded = ['scipy.stats' in sys.modules]; "
        "from smoothbandit.baselines import run_binned_ucb; "
        "from smoothbandit.policy import PolicyConfig, run_two_arm; "
        "env = smoothbandit.environments.make_smooth_instance('sinusoidal', d=1, amplitude=0.4); "
        "run_binned_ucb(env, 5000, 0); loaded.append('scipy.stats' in sys.modules); "
        "run_two_arm(env, PolicyConfig(beta=2.0, d=1, horizon=2000), 0); "
        "loaded.append('scipy.stats' in sys.modules); print(*loaded)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False False"


def test_import_leaves_scipy_integrate_unloaded():
    # the bump profile integrates by a fixed rule, so building the hard_d2
    # instance, evaluating the profile and checking smoothness load no scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(smoothbandit.__file__)))
    code = (
        "import sys, numpy as np, smoothbandit; "
        "from smoothbandit.environments import bump_u, make_lower_bound_instance, verify_holder; "
        "inst = make_lower_bound_instance(T=100000, beta=2.0, alpha=0.5, d=2, seed=3); bump_u(0.3); "
        "report = verify_holder(inst, beta=2.0, L=1.0, n_pairs=2000, rng=np.random.default_rng(0)); "
        "print(report.passed, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True []"


def test_import_and_d2_fits_leave_scipy_spatial_unloaded():
    # scipy.spatial is slow to import; the local-polynomial sweep needs no kd-tree
    src = os.path.dirname(os.path.dirname(os.path.abspath(smoothbandit.__file__)))
    code = (
        "import sys, numpy as np, smoothbandit; loaded = ['scipy.spatial' in sys.modules]; "
        "lat = smoothbandit.build_lattice(2048, 2.0, 2); rng = np.random.default_rng(0); "
        "fit = smoothbandit.localpoly.fit_at_centers(lat.centers(), rng.random((500, 2)), rng.random(500), "
        "0.3, smoothbandit.enumerate_basis(2, 1)); "
        "loaded.append('scipy.spatial' in sys.modules); print(*loaded, int(fit.n_in_ball.sum()) > 0)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False True"


class TestMultiArm:
    def test_constant_means_and_tie_rule(self):
        inst = make_constant_multi_arm((0.2, 0.8, 0.8), d=1)
        # smallest arm id among the maximizers
        assert oracle_arm(inst, np.array([0.5])) == 1

    def test_rejects_bad_means(self):
        with pytest.raises(ValueError):
            make_constant_multi_arm((0.2,))
        with pytest.raises(ValueError):
            make_constant_multi_arm((0.2, 1.4))


# ---------------------------------------------------------------------------
# One tau per step, the first-maximum rule and the step outcomes, each
# against the former expression, bit for bit

# every symmetric two-arm family, with effects of both signs, zero and at the ends
_SYMMETRIC = {
    "constant_gap": lambda: make_smooth_instance("constant_gap", d=2, gap=0.3),
    "constant_gap_zero": lambda: make_smooth_instance("constant_gap", d=1, gap=0.0),
    "constant_gap_one": lambda: make_smooth_instance("constant_gap", d=1, gap=1.0),
    "sinusoidal": lambda: make_smooth_instance("sinusoidal", d=1, frequency=1.0, amplitude=0.4),
    "sinusoidal_d3": lambda: make_smooth_instance("sinusoidal", d=3, frequency=2.5, amplitude=1.0),
    "polynomial_boundary_cubic": lambda: make_smooth_instance("polynomial_boundary", d=1, degree=3, scale=0.5),
    "polynomial_boundary_square": lambda: make_smooth_instance("polynomial_boundary", d=2, degree=2, scale=2.0),
}


def _symmetric_points(d: int) -> np.ndarray:
    rng = np.random.default_rng(d)
    edges = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1e-300, 1 - 2**-53])
    return np.vstack([rng.random((500, d)), np.repeat(edges[:, None], d, axis=1)])


class TestOneTau:
    @pytest.mark.parametrize("noise", ["bernoulli", "truncated_gaussian"])
    @pytest.mark.parametrize("family", list(_SYMMETRIC))
    def test_means_matrix_and_cate_equal_the_per_arm_rows(self, family, noise):
        env = dataclasses.replace(_SYMMETRIC[family](), noise=noise)
        assert env.tau is not None
        X = _symmetric_points(env.d)
        want = np.stack([env.mean(X, a) for a in env.arms])
        got = env.means_matrix(X)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert cate(env, X).tobytes() == (env.mean(X, 1) - env.mean(X, -1)).tobytes()
        assert env.means_matrix(X[0]).tobytes() == want[:, :1].tobytes()

    def test_tau_is_evaluated_once_per_call(self):
        env = make_smooth_instance("sinusoidal", d=1)
        effect, calls = env.tau, []

        def tau(points):
            calls.append(len(points))
            return effect(points)

        env = dataclasses.replace(env, tau=tau)
        env.means_matrix(np.random.default_rng(0).random((9, 1)))
        assert calls == [9]

    def test_other_instances_call_mean_per_arm(self):
        multi = make_constant_multi_arm((0.2, 0.7, 0.4), d=2)
        lower = make_lower_bound_instance(T=100000, beta=2.0, alpha=0.5, d=2, seed=3)
        for env in (multi, lower):
            assert env.tau is None
            X = env.sample_contexts(np.random.default_rng(1), 400)
            want = np.stack([env.mean(X, a) for a in env.arms])
            assert env.means_matrix(X).tobytes() == want.tobytes()
        X = lower.sample_contexts(np.random.default_rng(2), 400)
        assert cate(lower, X).tobytes() == (lower.mean(X, 1) - lower.mean(X, -1)).tobytes()


# values that tie, NaN, infinities and signed zeros, mixed with ordinary floats
_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.nan, np.inf, -np.inf])
_VALUES = st.one_of(_SPECIAL, st.floats(allow_nan=True, allow_infinity=True, width=64))


class TestFirstMax:
    @settings(max_examples=400, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(0, 12)), elements=_VALUES))
    def test_equals_argmax_on_every_input(self, values):
        got = first_max(values)
        want = np.argmax(values, axis=0)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "column, want",
        [
            ([1.0, 1.0, 1.0], 0),
            ([0.0, -0.0, 0.0], 0),
            ([1.0, np.nan, np.nan], 1),
            ([np.nan, 2.0, np.nan], 0),
            ([-np.inf, -np.inf, -np.inf], 0),
            ([1.0, np.inf, np.inf, np.nan], 3),
            ([-np.inf, np.nan, np.inf], 1),
            ([0.2, 0.7, 0.7, 0.1, 0.7], 1),
        ],
    )
    def test_named_columns(self, column, want):
        values = np.array(column)[:, None]
        assert first_max(values)[0] == want == np.argmax(values, axis=0)[0]

    def test_oracle_indices_take_the_first_best_arm(self):
        env = make_constant_multi_arm((0.5, 0.9, 0.9, 0.1), d=1)
        X = np.random.default_rng(0).random((50, 1))
        np.testing.assert_array_equal(env.oracle_indices(X), np.ones(50, dtype=np.intp))


class TestStepOutcomes:
    @pytest.mark.parametrize("n_arms", [1, 2, 3, 5, 70])
    @pytest.mark.parametrize("n", [0, 1, 257])
    def test_equals_the_former_expression(self, n_arms, n):
        rng = np.random.default_rng(n_arms * 1000 + n)
        # coarse values, so that many columns tie
        means = rng.integers(0, 4, (n_arms, n)) / 4.0
        arm_ix = rng.integers(0, n_arms, n)
        got = step_outcomes(means, arm_ix)
        want = former_paths.step_outcomes(means, arm_ix)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_on_instance_means(self):
        env = make_smooth_instance("sinusoidal", d=2, amplitude=0.4)
        X = env.sample_contexts(np.random.default_rng(3), 1000)
        means = env.means_matrix(X)
        arm_ix = np.random.default_rng(4).integers(0, 2, 1000)
        got = step_outcomes(means, arm_ix)
        want = former_paths.step_outcomes(means, arm_ix)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def _quad_bump_u(t: float) -> float:
    """The bump profile by adaptive quadrature of the core, point by point (reference)."""
    if t <= 0.25:
        return 1.0
    if t >= 0.5:
        return 0.0
    return _quad_tail(t) / _quad_tail(0.25)


def _quad_tail(t: float) -> float:
    val, _ = integrate.quad(_scalar_core, t, 0.5, epsabs=0.0, epsrel=1e-12)
    return val


def _scalar_core(s: float) -> float:
    w = (0.5 - s) * (s - 0.25)
    return math.exp(-1.0 / w) if w > 0 else 0.0


class TestBumpProfile:
    def test_plateau_and_cutoff(self):
        assert bump_u(0.2) == 1.0
        assert bump_u(0.25) == 1.0
        assert bump_u(0.5) == 0.0
        assert bump_u(0.6) == 0.0

    def test_midpoint_by_symmetry(self):
        # the core profile is symmetric about 3/8, so the tail integral halves
        assert bump_u(0.375) == pytest.approx(0.5, abs=1e-9)

    def test_monotone_nonincreasing(self):
        grid = np.linspace(0.0, 0.6, 200)
        vals = bump_u(grid)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bump_u(-0.1)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("t", [-0.1, math.nan, [0.3, math.nan], [0.3, -0.0, -1e-300]])
    def test_every_order_rejects_nan_and_negative(self, order, t):
        with pytest.raises(ValueError, match="nonnegative and not NaN"):
            bump_u_deriv(t, order)
        if order == 0:
            with pytest.raises(ValueError, match="nonnegative and not NaN"):
                bump_u(t)

    def test_matches_adaptive_quadrature(self):
        edges = [np.nextafter(0.25, 0.0), np.nextafter(0.25, 1.0), np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)]
        t = np.concatenate([np.linspace(0.2501, 0.4999, 3000), edges])
        expected = np.array([_quad_bump_u(ti) for ti in t])
        np.testing.assert_allclose(bump_u(t), expected, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(bump_u_deriv(t, 0), expected, rtol=0.0, atol=1e-13)
        assert bump_u(edges[0]) == 1.0 and bump_u(edges[3]) == 0.0

    def test_normalizer_matches_adaptive_quadrature(self):
        z = _quad_tail(0.25)
        assert abs(environments._bump_normalizer() - z) <= 1e-15 * z

    def test_long_inputs_match_short_blocks(self, monkeypatch):
        t = np.random.default_rng(0).uniform(0.0, 0.6, 5000)
        whole = bump_u(t)
        monkeypatch.setattr(environments, "_RULE_BLOCK", 7)
        assert bump_u(t).tobytes() == whole.tobytes()

    def test_derivatives_match_finite_differences(self):
        grid = np.linspace(0.26, 0.49, 40)
        h = 1e-6
        d1 = bump_u_deriv(grid, 1)
        fd1 = (bump_u(grid + h) - bump_u(grid - h)) / (2 * h)
        np.testing.assert_allclose(d1, fd1, atol=1e-5)
        d2 = bump_u_deriv(grid, 2)
        fd2 = (bump_u_deriv(grid + h, 1) - bump_u_deriv(grid - h, 1)) / (2 * h)
        np.testing.assert_allclose(d2, fd2, atol=1e-4, rtol=1e-4)


def _loop_cell_index(support, points):
    """Flat 1/q cell index by an explicit row-major loop, the last axis fastest (reference)."""
    q = support.q
    u = np.atleast_2d(points) * q
    j = np.floor(u).astype(np.int64)
    j -= (u == j) & (j > 0)
    j = np.clip(j, 0, q - 1)
    flat = np.zeros(len(j), dtype=np.int64)
    for axis in range(support.d):
        flat = flat * q + j[:, axis]
    return flat


def _loop_cell_centers(support, cells):
    """Centers of 1/q cells by repeated division of their flat indices (reference)."""
    q = support.q
    ctr = np.empty((len(cells), support.d))
    rem = np.array(cells, dtype=np.int64)
    for axis in range(support.d - 1, -1, -1):
        ctr[:, axis] = (rem % q + 0.5) / q
        rem //= q
    return ctr


@st.composite
def _bump_grid_and_points(draw):
    """A bump grid with d in 1..3 and points on cell faces, outside the unit
    cube and past the last cell, mixed with arbitrary ones."""
    d = draw(st.integers(1, 3))
    q = draw(st.integers(1, {1: 30, 2: 9, 3: 5}[d]))
    support = BumpGridSupport(d=d, q=q, m=draw(st.integers(1, q**d)), radius=1.0 / (4 * q))
    coordinate = st.one_of(
        st.integers(-1, q + 1).map(lambda k: k / q),
        st.tuples(st.integers(0, q - 1), st.sampled_from([0.25, 0.5, 0.75])).map(lambda c: (c[0] + c[1]) / q),
        st.sampled_from([0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), -1e-300]),
        st.floats(-0.5, 1.5, allow_nan=False),
    )
    points = draw(st.lists(st.lists(coordinate, min_size=d, max_size=d), min_size=1, max_size=30))
    return support, np.array(points, dtype=float)


class TestBumpGridCodec:
    @settings(max_examples=150, deadline=None)
    @given(case=_bump_grid_and_points())
    def test_cells_and_offsets_match_the_loops(self, case):
        support, points = case
        cells = support.cell_index(points)
        assert cells.dtype == np.int64
        np.testing.assert_array_equal(cells, _loop_cell_index(support, points))
        in_bump, bump_cells, offsets = support.bump_offsets(points)
        in_unit = np.all((points >= 0.0) & (points <= 1.0), axis=1)
        np.testing.assert_array_equal(in_bump, (cells < support.m) & in_unit)
        np.testing.assert_array_equal(bump_cells, cells[in_bump])
        expected = points[in_bump] - _loop_cell_centers(support, cells[in_bump])
        assert offsets.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=_bump_grid_and_points())
    def test_centers_of_every_cell_match_the_loop(self, case):
        support, _ = case
        cells = np.arange(support.q**support.d)
        centers = support.cell_centers(cells)
        assert centers.tobytes() == _loop_cell_centers(support, cells).tobytes()
        np.testing.assert_array_equal(support.cell_index(centers), cells)


def _loop_ball_counts(instance, X):
    """Samples in each bump ball, one norm pass over all samples per bump (reference)."""
    return [
        int(np.count_nonzero(np.linalg.norm(X - ctr[None, :], axis=1) <= instance.ball_radius))
        for ctr in instance.bump_centers
    ]


class TestLowerBoundInstance:
    def make(self, **kwargs):
        params = dict(T=100_000, beta=1.0, alpha=0.5, d=1, seed=3)
        params.update(kwargs)
        return make_lower_bound_instance(**params)

    def test_rejects_wrong_regime(self):
        with pytest.raises(ValueError, match="alpha"):
            make_lower_bound_instance(T=100_000, beta=2.0, alpha=1.0, d=1)

    def test_rejects_tiny_horizon(self):
        with pytest.raises(ValueError, match="horizon too small"):
            make_lower_bound_instance(T=4, beta=1.0, alpha=1.0, d=1)

    def test_effect_peaks_at_bump_centers(self):
        inst = self.make()
        height = inst.c_phi * float(inst.q) ** -inst.meta.beta
        tau_at_centers = cate(inst, inst.bump_centers)
        np.testing.assert_allclose(np.abs(tau_at_centers), height, rtol=1e-12)
        assert np.array_equal(np.sign(tau_at_centers), inst.sigma)
        rng = np.random.default_rng(0)
        X = inst.sample_contexts(rng, 100_000)
        assert np.abs(cate(inst, X)).max() <= height * (1 + 1e-9)

    def test_bump_vanishes_beyond_half_radius(self):
        inst = self.make()
        ctr = inst.bump_centers[0]
        # inside the cube but beyond radius 1/(2q): the profile has run out
        x = ctr + np.array([0.5 / inst.q * 1.01])
        assert cate(inst, x[None, :])[0] == 0.0
        x_in = ctr + np.array([0.2 / inst.q])
        assert cate(inst, x_in[None, :])[0] != 0.0

    def test_margin_is_step_function(self):
        inst = self.make()
        height = inst.c_phi * float(inst.q) ** -inst.meta.beta
        rng = np.random.default_rng(1)
        below, _ = margin_probability(inst, 0.5 * height, 200_000, rng)
        above, se = margin_probability(inst, 2.0 * height, 200_000, rng)
        assert below == 0.0
        assert abs(above - inst.m * inst.omega) <= 3 * se

    def test_sampler_density_agreement(self):
        inst = self.make()
        assert verify_density(inst, n_samples=200_000, rng=np.random.default_rng(2)).passed

    @pytest.mark.parametrize(
        "params", [dict(T=100_000, beta=1.0, alpha=0.5, d=1, seed=3), dict(T=100_000, beta=2.0, alpha=0.5, d=2, seed=3)]
    )
    def test_density_counts_match_the_per_center_loop(self, params):
        inst = make_lower_bound_instance(**params)
        n = 50_000
        X = inst.sample_contexts(np.random.default_rng(8), n)
        counts = _loop_ball_counts(inst, X)
        assert sum(counts) > 0
        rows = verify_density(inst, n_samples=n, rng=np.random.default_rng(8)).rows
        assert [row.value for row in rows] == [c / n for c in counts] + [1.0 - sum(counts) / n]

    def test_support_excludes_cell_corners(self):
        inst = self.make()
        rng = np.random.default_rng(3)
        X = inst.sample_contexts(rng, 50_000)
        assert np.all(inst.support(X))
        corner = inst.bump_centers[0] + 0.49 / inst.q
        assert not inst.support(corner[None, :])[0]

    def test_holder_at_declared_parameters(self):
        inst = self.make()
        assert verify_holder(inst, beta=1.0, L=1.0, n_pairs=4000, rng=np.random.default_rng(4)).passed

    def test_holder_smoother_variant(self):
        inst = make_lower_bound_instance(T=50_000, beta=2.0, alpha=0.4, d=1, seed=9)
        assert verify_holder(inst, beta=2.0, L=1.0, n_pairs=4000, rng=np.random.default_rng(5)).passed

    def test_two_dimensional_construction(self):
        inst = make_lower_bound_instance(T=20_000, beta=1.0, alpha=1.0, d=2, seed=6)
        rng = np.random.default_rng(7)
        X = inst.sample_contexts(rng, 20_000)
        assert np.all(inst.support(X))
        assert verify_density(inst, n_samples=100_000, rng=rng).passed

    @pytest.mark.parametrize(
        "params", [dict(T=100_000, beta=1.0, alpha=0.5, d=1, seed=3), dict(T=100_000, beta=2.0, alpha=0.5, d=2, seed=3)]
    )
    def test_contexts_stay_on_the_plateau(self, params):
        # contexts in a bump cell are drawn within radius 1/(4q) of its center,
        # where the profile is 1 and the means evaluate no quadrature rule
        inst = make_lower_bound_instance(**params)
        X = inst.sample_contexts(np.random.default_rng(10), 2**16)
        _, _, offsets = inst.support.bump_offsets(X)
        assert len(offsets) > 0
        assert np.max(inst.q * np.linalg.norm(offsets, axis=1)) <= 0.25

    def test_explicit_sigma_is_respected(self):
        base = self.make()
        sigma = -np.ones(base.m, dtype=int)
        inst = self.make(sigma=sigma)
        assert np.all(cate(inst, inst.bump_centers) < 0)
        assert all(oracle_arm(inst, c) == -1 for c in inst.bump_centers)
        # oracle prefers +1 on the flat region (zero effect)
        assert oracle_arm(inst, np.array([0.99])) == 1
        plus = self.make(sigma=np.ones(base.m, dtype=int))
        assert all(oracle_arm(plus, c) == 1 for c in plus.bump_centers)

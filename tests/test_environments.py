import math
import os
import subprocess
import sys

import numpy as np
import pytest

import smoothbandit
from smoothbandit.environments import (
    bump_u,
    bump_u_deriv,
    cate,
    make_constant_multi_arm,
    make_lower_bound_instance,
    make_smooth_instance,
    margin_probability,
    oracle_arm,
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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is slow to import and only truncated-Gaussian rewards use it
    src = os.path.dirname(os.path.dirname(os.path.abspath(smoothbandit.__file__)))
    code = "import sys, smoothbandit; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate is slow to import and only the bump profile uses it
    src = os.path.dirname(os.path.dirname(os.path.abspath(smoothbandit.__file__)))
    code = (
        "import sys, smoothbandit; loaded = 'scipy.integrate' in sys.modules; "
        "smoothbandit.environments.bump_u(0.3); print(loaded, 'scipy.integrate' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False True"


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

    def test_derivatives_match_finite_differences(self):
        grid = np.linspace(0.26, 0.49, 40)
        h = 1e-6
        d1 = bump_u_deriv(grid, 1)
        fd1 = (bump_u(grid + h) - bump_u(grid - h)) / (2 * h)
        np.testing.assert_allclose(d1, fd1, atol=1e-5)
        d2 = bump_u_deriv(grid, 2)
        fd2 = (bump_u_deriv(grid + h, 1) - bump_u_deriv(grid - h, 1)) / (2 * h)
        np.testing.assert_allclose(d2, fd2, atol=1e-4, rtol=1e-4)


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

import pytest

from smoothbandit.baselines import run_uniform
from smoothbandit.environments import make_smooth_instance
from smoothbandit.harness import (
    ConfigError,
    build_instance,
    derive_seed,
    fit_rate,
    run_experiment,
    summary_rate_check,
    theoretical_exponent,
    validate_experiment_config,
    write_csv,
    write_summary,
)


class TestTheoreticalExponent:
    def test_nondifferentiable_corner(self):
        assert theoretical_exponent(1.0, 0.0, 1) == pytest.approx(2.0 / 3.0)

    def test_smooth_sharp_margin(self):
        assert theoretical_exponent(2.0, 1.0, 1) == pytest.approx(0.2)

    def test_high_smoothness_limit(self):
        # exponent d / (2 beta + d) -> 0 as beta grows
        val = theoretical_exponent(1e6, 1.0, 1)
        assert val == pytest.approx(1.0 / (2e6 + 1))
        assert val < 1e-3

    def test_clamped_at_zero(self):
        assert theoretical_exponent(2.0, 3.0, 1) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            theoretical_exponent(0.5, 1.0, 1)
        with pytest.raises(ValueError):
            theoretical_exponent(1.0, -1.0, 1)


class TestFitRate:
    def test_exact_power_law(self):
        data = {T: [3.0 * T**0.5] * 10 for T in (1000, 2000, 4000, 8000)}
        fit = fit_rate(data)
        assert fit.slope == pytest.approx(0.5, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_regret_gives_zero_slope(self):
        data = {T: [7.0] * 10 for T in (1000, 2000, 4000, 8000)}
        assert fit_rate(data).slope == pytest.approx(0.0, abs=1e-12)

    def test_linear_growth_from_uniform_runs(self):
        # uniform play on a constant gap accrues regret linearly in T
        env = make_smooth_instance("constant_gap", d=1, gap=0.5)
        data = {
            T: [run_uniform(env, T, seed=derive_seed(9, "uniform", T, r)).final_regret for r in range(10)]
            for T in (4096, 8192, 16384, 32768, 65536)
        }
        fit = fit_rate(data)
        assert fit.slope == pytest.approx(1.0, abs=0.02)

    def test_nonpositive_mean_is_excluded(self):
        data = {T: [2.0 * T**0.5] * 10 for T in (1000, 2000, 4000, 8000)}
        data[500] = [0.0] * 10
        fit = fit_rate(data)
        assert fit.excluded == (500,)
        assert fit.slope == pytest.approx(0.5, abs=1e-10)

    def test_requires_enough_horizons_and_reps(self):
        with pytest.raises(ValueError):
            fit_rate({T: [1.0] * 10 for T in (100, 200, 400)})
        with pytest.raises(ValueError):
            fit_rate({T: [1.0] * 5 for T in (100, 200, 400, 800)})


class TestCheckpoints:
    def test_explicit_list_and_counts(self):
        from smoothbandit.results import normalize_checkpoints

        assert list(normalize_checkpoints([10, 5, 100], 100)) == [5, 10, 100]
        assert list(normalize_checkpoints(None, 50)) == [50]
        ts = normalize_checkpoints(5, 1000)
        assert ts[-1] == 1000 and ts[0] >= 1 and len(ts) <= 6

    def test_rejects_out_of_range(self):
        from smoothbandit.results import normalize_checkpoints

        with pytest.raises(ValueError):
            normalize_checkpoints([0, 10], 100)
        with pytest.raises(ValueError):
            normalize_checkpoints([10, 200], 100)


class TestSeeds:
    def test_derivation_is_stable(self):
        # frozen value: sha256 of "smooth|1024|3" little-endian first 8 bytes
        assert derive_seed(0, "smooth", 1024, 3) == derive_seed(0, "smooth", 1024, 3)
        assert derive_seed(1, "smooth", 1024, 3) != derive_seed(0, "smooth", 1024, 3)
        assert derive_seed(0, "smooth", 1024, 3) != derive_seed(0, "smooth", 1024, 4)
        assert derive_seed(0, "smooth", 1024, 3) != derive_seed(0, "uniform", 1024, 3)
        assert 0 <= derive_seed(12345, "x", 10, 0) < 2**63


def small_config(**overrides):
    cfg = {
        "instance": {"family": "constant_gap", "params": {"d": 1, "gap": 0.5}},
        "policies": [{"name": "oracle"}, {"name": "uniform"}],
        "horizons": [500, 1000],
        "reps": 3,
        "base_seed": 77,
        "checkpoints": 4,
    }
    cfg.update(overrides)
    return cfg


class TestRunExperiment:
    def test_oracle_rows_are_zero(self):
        rows, summary, results = run_experiment(small_config(), quiet=True)
        oracle_rows = [r for r in rows if r[0] == "oracle"]
        assert oracle_rows
        assert all(r[6] == 0.0 for r in oracle_rows)

    def test_deterministic_output_files(self, tmp_path):
        for sub in ("a", "b"):
            rows, summary, _ = run_experiment(small_config(), quiet=True)
            write_csv(rows, tmp_path / f"{sub}.csv")
            write_summary(summary, tmp_path / f"{sub}.json")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_threads_key_is_rejected(self):
        # runs execute serially; a config asking for workers is told so
        for validate in (validate_experiment_config, run_experiment):
            with pytest.raises(ConfigError, match="threads") as info:
                validate(small_config(threads=2))
            assert info.value.fieldpath == "threads"

    def test_checkpoint_columns_nondecreasing(self):
        rows, _, _ = run_experiment(small_config(), quiet=True)
        by_run = {}
        for r in rows:
            by_run.setdefault(r[:5], []).append((r[5], r[6], r[7]))
        for items in by_run.values():
            items.sort()
            regs = [v[1] for v in items]
            infs = [v[2] for v in items]
            assert regs == sorted(regs)
            assert infs == sorted(infs)

    def test_uniform_mean_matches_analytic_value(self):
        cfg = small_config(policies=[{"name": "uniform"}], horizons=[10_000], reps=50)
        _, summary, _ = run_experiment(cfg, quiet=True)
        g = summary["groups"][0]
        assert abs(g["mean_final_regret"] - 2500.0) <= 3 * g["se_final_regret"]

    def test_multi_arm_policy_through_config(self):
        cfg = small_config(
            instance={"family": "constant_multi", "params": {"means": [0.2, 0.5, 0.8], "d": 1}},
            policies=[{"name": "smooth_multi", "params": {"beta": 2.0, "c_epoch": 2.0}}],
            horizons=[3000],
            reps=2,
        )
        rows, summary, results = run_experiment(cfg, quiet=True)
        assert summary["groups"][0]["reps"] == 2
        assert all(r[6] >= 0 for r in rows)

    def test_regret_bounded_by_inferior_pathwise(self):
        cfg = small_config(
            policies=[{"name": "smooth", "params": {"beta": 1.0}}],
            horizons=[1500],
            reps=3,
            instance={"family": "constant_gap", "params": {"d": 1, "gap": 0.5}},
        )
        rows, _, _ = run_experiment(cfg, quiet=True)
        for r in rows:
            assert r[6] <= 0.5 * r[7] + 1e-9


class TestConfigValidation:
    def test_missing_instance(self):
        with pytest.raises(ConfigError, match="instance"):
            validate_experiment_config({"policies": [{"name": "oracle"}], "horizons": [100]})

    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match="policies"):
            validate_experiment_config(small_config(policies=[{"name": "nope"}]))

    def test_bad_horizons(self):
        with pytest.raises(ConfigError, match="horizons"):
            validate_experiment_config(small_config(horizons=[1]))

    def test_bad_reps(self):
        with pytest.raises(ConfigError, match="reps"):
            validate_experiment_config(small_config(reps=0))

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="family"):
            build_instance({"family": "bogus"})

    @pytest.mark.parametrize(
        "params, name",
        [
            ({"exploration": float("nan")}, "exploration"),
            ({"exploration": -0.5}, "exploration"),
            ({"bin_rate": 0}, "bin_rate"),
            ({"bin_rate": None, "exploration": None}, "exploration"),
        ],
    )
    def test_bad_binned_ucb_params_fail_at_validation(self, params, name):
        cfg = small_config(policies=[{"name": "uniform"}, {"name": "binned_ucb", "params": params}])
        with pytest.raises(ConfigError, match=f"^policies\\[1\\].params: {name} must be") as info:
            validate_experiment_config(cfg)
        assert info.value.fieldpath == "policies[1].params"

    def test_duplicate_policy_labels_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            validate_experiment_config(small_config(policies=[{"name": "uniform"}, {"name": "uniform"}]))
        # distinct labels allow two variants of one policy
        cfg = validate_experiment_config(
            small_config(
                policies=[
                    {"name": "uniform", "label": "u1"},
                    {"name": "uniform", "label": "u2"},
                ]
            )
        )
        assert [p.get("label") for p in cfg["policies"]] == ["u1", "u2"]

    def test_bad_policy_params_fail_at_validation(self):
        with pytest.raises(ConfigError, match="params"):
            validate_experiment_config(
                small_config(policies=[{"name": "smooth", "params": {"beta": 0.5}}])
            )
        with pytest.raises(ConfigError, match="harness"):
            validate_experiment_config(
                small_config(policies=[{"name": "smooth", "params": {"beta": 1.0, "horizon": 10}}])
            )
        with pytest.raises(ConfigError, match="unknown parameters"):
            validate_experiment_config(
                small_config(policies=[{"name": "uniform", "params": {"zzz": 1}}])
            )
        # the binned-UCB block size is a constant, not a parameter
        with pytest.raises(ConfigError, match=r"unknown parameters \['block'\]"):
            validate_experiment_config(
                small_config(policies=[{"name": "binned_ucb", "params": {"block": 100}}])
            )

    def test_csv_quotes_instance_names_with_commas(self, tmp_path):
        import csv as csv_mod

        cfg = small_config(
            instance={"family": "sinusoidal", "params": {"d": 1, "amplitude": 0.4, "beta": 2.0}},
            policies=[{"name": "uniform"}],
            horizons=[500],
            reps=1,
        )
        rows, _, _ = run_experiment(cfg, quiet=True)
        write_csv(rows, tmp_path / "r.csv")
        with open(tmp_path / "r.csv") as fh:
            parsed = list(csv_mod.reader(fh))
        assert all(len(r) == 8 for r in parsed)
        assert parsed[1][1] == "sinusoidal(f=1.0,A=0.4)"

    def test_lower_bound_block_with_sigma_list(self):
        inst = build_instance(
            {
                "family": "lower_bound",
                "params": {"T": 100_000, "beta": 1.0, "alpha": 0.5, "d": 1,
                           "delta0": 0.25, "sigma": [1, -1, 1, -1, 1, -1, 1]},
            }
        )
        assert inst.m == 7
        assert list(inst.sigma) == [1, -1, 1, -1, 1, -1, 1]

    def test_bad_family_params(self):
        with pytest.raises(ConfigError, match="gap"):
            build_instance({"family": "constant_gap", "params": {"d": 1, "gap": 2.0}})

    @pytest.mark.parametrize("key, value", [("gpa", 0.3), ("noise", "truncated_gaussian")])
    def test_constant_gap_rejects_unknown_params(self, key, value):
        # these once ran silently as gap 0.5 with Bernoulli rewards
        with pytest.raises(ConfigError, match=f"^instance.params \\(constant_gap\\): .*'{key}'"):
            build_instance({"family": "constant_gap", "params": {"d": 1, key: value}})
        inst = build_instance({"family": "constant_gap", "params": {"d": 1, "gap": 0.3, "beta": 3.0}})
        assert (inst.meta.beta, inst.meta.extras["gap"]) == (3.0, 0.3)

    @pytest.mark.parametrize(
        "family, params, message",
        [
            ("sinusoidal", {"noise": "truncated_gaussian", "noise_scale": 0}, "noise_scale must be"),
            ("sinusoidal", {"noise": "truncated_gaussian", "noise_scale": -0.1}, "noise_scale must be"),
            ("sinusoidal", {"noise_scale": float("nan")}, "noise_scale must be"),
            ("sinusoidal", {"noise": "gaussian"}, "unknown noise law 'gaussian'"),
            ("lower_bound", {"T": 100_000, "beta": 1.0, "alpha": 0.5, "noise": "gausian"},
             "unknown noise law 'gausian'"),
        ],
    )
    def test_bad_reward_law_fails_at_build(self, family, params, message):
        # these once built, and a zero or negative scale fed NaN rewards to the run
        with pytest.raises(ConfigError, match=f"^instance.params \\({family}\\): {message}") as info:
            build_instance({"family": family, "params": {"d": 1, **params}})
        assert info.value.fieldpath == f"instance.params ({family})"

    @pytest.mark.parametrize(
        "field", ["quadrature_resolution", "support_resolution", "support_mass_threshold", "eig_tol"]
    )
    def test_removed_smooth_params_fail_at_validation(self, field):
        cfg = small_config(policies=[{"name": "smooth", "params": {"beta": 2.0, field: 1}}])
        with pytest.raises(ConfigError, match=f"^policies\\[0\\].params: .*'{field}'") as info:
            validate_experiment_config(cfg)
        assert info.value.fieldpath == "policies[0].params"


class TestSummaryRateCheck:
    def test_synthetic_summary_passes_in_band(self):
        horizons = (1000, 2000, 4000, 8000)
        summary = {
            "instance": {"name": "x", "d": 1, "arms": [1, -1], "beta": 2.0, "alpha": 1.0},
            "groups": [
                {"policy": "smooth", "T": T, "reps": 10, "mean_final_regret": 2.0 * T**0.25,
                 "se_final_regret": 0.0, "mean_inferior": 0.0, "se_inferior": 0.0}
                for T in horizons
            ],
        }
        fit, exponent, band, passed = summary_rate_check(summary, "smooth")
        assert exponent == pytest.approx(0.2)
        assert fit.slope == pytest.approx(0.25, abs=1e-9)
        assert passed  # 0.25 inside [0.05, 0.45]

    def test_out_of_band_fails(self):
        summary = {
            "instance": {"name": "x", "d": 1, "arms": [1, -1], "beta": 2.0, "alpha": 1.0},
            "groups": [
                {"policy": "smooth", "T": T, "reps": 10, "mean_final_regret": 0.5 * T,
                 "se_final_regret": 0.0, "mean_inferior": 0.0, "se_inferior": 0.0}
                for T in (1000, 2000, 4000, 8000)
            ],
        }
        *_, passed = summary_rate_check(summary, "smooth")
        assert not passed

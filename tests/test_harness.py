import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

from smoothbandit import baselines, harness
from smoothbandit.baselines import run_binned_ucb, run_uniform
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

    def test_summary_is_strict_json(self, tmp_path):
        # constant_gap declares alpha = inf; strict parsers reject Infinity
        def refuse(constant):
            raise ValueError(f"non-finite constant {constant}")

        _, summary, _ = run_experiment(small_config(policies=[{"name": "uniform"}], horizons=[500]), quiet=True)
        write_summary(summary, tmp_path / "summary.json")
        with open(tmp_path / "summary.json") as fh:
            loaded = json.load(fh, parse_constant=refuse)
        assert loaded["instance"]["alpha"] is None
        summary["groups"][0]["mean_final_regret"] = math.nan
        with pytest.raises(ValueError):
            write_summary(summary, tmp_path / "nan.json")

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

    def test_binned_ucb_grid_equals_runs_alone(self, tmp_path):
        # the harness runs a binned-UCB policy's grid as one batch; every
        # run equals the lone run at its derived seed, and the files list
        # them in job order
        params = {"exploration": 1.5}
        cfg = small_config(
            instance={"family": "sinusoidal", "params": {"d": 1, "amplitude": 0.4}},
            policies=[
                {"name": "uniform"},
                {"name": "binned_ucb", "label": "ucb", "params": params},
                {"name": "oracle"},
            ],
            horizons=[700, 4097],
            reps=2,
        )
        rows, _, results = run_experiment(cfg, quiet=True)
        env = build_instance(cfg["instance"])
        jobs = [(label, T, rep) for label in ("uniform", "ucb", "oracle") for T in (700, 4097) for rep in (0, 1)]
        assert list(results) == jobs
        for T in (700, 4097):
            for rep in (0, 1):
                seed = derive_seed(77, "ucb", T, rep)
                alone = run_binned_ucb(env, T, seed, cfg["checkpoints"], **params)
                assert results[("ucb", T, rep)].equals(alone)
        assert [r[:4] for r in rows if r[0] == "ucb"] == [
            ("ucb", env.name, T, rep) for T in (700, 4097) for rep in (0, 1) for _ in range(4)
        ]

    def test_batch_failure_names_the_run_that_drew_it(self, monkeypatch):
        build = harness.build_instance
        draws = []

        def broken_build(block):
            env = build(block)

            # block 0 of all four runs, then block 1 of the long ones: the
            # sixth draw is the second block of T=5000 rep=1
            def sample(rng, n):
                x = rng.random((n, 1))
                draws.append(n)
                if len(draws) == 6:
                    x[50] = 2.0
                return x

            return dataclasses.replace(env, sample_contexts=sample)

        monkeypatch.setattr(harness, "build_instance", broken_build)
        cfg = small_config(policies=[{"name": "binned_ucb"}], horizons=[500, 5000], reps=2)
        seed = derive_seed(77, "binned_ucb", 5000, 1)
        with pytest.raises(
            RuntimeError,
            match=rf"^run failed at policy=binned_ucb T=5000 rep=1 seed={seed}: context .* at step 4147 ",
        ):
            run_experiment(cfg, quiet=True)

    def test_batch_failure_outside_a_runs_draws_names_the_batch(self, monkeypatch):
        def broken(*args):
            raise ValueError("boom")

        monkeypatch.setattr(baselines, "_ucb_choose", broken)
        cfg = small_config(policies=[{"name": "binned_ucb"}], horizons=[500, 5000], reps=2)
        with pytest.raises(RuntimeError, match=r"^run failed at policy=binned_ucb \(batch of 4 runs\): boom$"):
            run_experiment(cfg, quiet=True)

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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            # once truncated to 1
            ("checkpoints", [1.5], r"times must be integers in \[1, 500\]"),
            # JSON true loads as a bool, which Python counts as the int 1
            ("checkpoints", True, "must be an integer count or a list of times"),
            ("reps", True, "must be a positive integer"),
            ("base_seed", True, "must be an integer"),
            # these once failed only at run time, after earlier runs had executed
            ("checkpoints", 0, "a checkpoint count must be >= 1"),
            ("checkpoints", [0], r"times must be integers in \[1, 500\]"),
            ("checkpoints", [10, 501], r"times must be integers in \[1, 500\] \(the smallest horizon\), got 501"),
        ],
    )
    def test_bad_grid_values_fail_at_validation(self, key, value, message):
        cfg = small_config(**{key: value})
        for validate in (validate_experiment_config, run_experiment):
            with pytest.raises(ConfigError, match=f"^{key}: {message}") as info:
                validate(cfg)
            assert info.value.fieldpath == key

    def test_repeated_horizon_rejected(self):
        # once ran every run twice: the CSV listed each twice while summary.json said reps: 3
        with pytest.raises(ConfigError, match=r"^horizons: must not repeat a horizon, got \[500, 500\]") as info:
            validate_experiment_config(small_config(horizons=[500, 500]))
        assert info.value.fieldpath == "horizons"

    def test_lattice_memory_budget(self):
        # d = 3 at 2^16 (18,399,744 cubes, about 4.6 GiB estimated) was accepted
        smooth = [{"name": "smooth_multi", "params": {"beta": 2.0}}, {"name": "uniform"}]
        instance = {"family": "sinusoidal", "params": {"d": 3}}
        cfg = small_config(instance=instance, policies=smooth, horizons=[2**12, 2**16])
        message = r"^policies\[0\]: horizon 65536 at d = 3 needs a lattice of 18,399,744 cubes, an estimated 4.6 GiB"
        with pytest.raises(ConfigError, match=message):
            validate_experiment_config(cfg)
        validate_experiment_config({**cfg, "horizons": [2**12, 2**14]})
        # a rougher policy's lattice is coarser; baselines build none
        validate_experiment_config({**cfg, "policies": [{"name": "smooth", "params": {"beta": 1.0}}]})
        validate_experiment_config({**cfg, "policies": [{"name": "uniform"}]})

    def test_memory_budget_counts_the_steps(self):
        # d = 1 at 2^26 has 24,351 cubes, yet its epochs' per-step arrays alone need about 5 GB
        instance = {"family": "sinusoidal", "params": {"d": 1}}
        cfg = small_config(instance=instance, policies=[{"name": "smooth", "params": {"beta": 2.0}}], horizons=[2**26])
        message = r"^policies\[0\]: horizon 67108864 at d = 1 needs a lattice of 24,351 cubes, an estimated 4.9 GiB"
        with pytest.raises(ConfigError, match=message):
            validate_experiment_config(cfg)
        validate_experiment_config({**cfg, "horizons": [2**25]})

    @pytest.mark.parametrize(
        "d, horizon, arms, peak_mib",
        [
            # peak RSS of fresh `smoothbandit run` processes, one run each (sinusoid,
            # bump grid, equal means): the estimate stays at or above every one
            (1, 4096, 2, 39.7), (1, 65536, 2, 43.8), (1, 2**18, 2, 55.2), (1, 2**20, 2, 127.1),
            (1, 2**22, 2, 359.5), (2, 2**14, 2, 56.3), (2, 2**16, 2, 80.1), (2, 2**16, 2, 82.4),
            (3, 2**12, 2, 188.8), (3, 2**12, 2, 173.0), (3, 2**12, 3, 201.7), (3, 2**12, 5, 233.0),
            (3, 2**13, 2, 394.8), (3, 2**14, 2, 832.6),
            # equal means at 2, 3 and 5 arms, measured again after the wider origin blocks
            (3, 2**12, 2, 186.1), (3, 2**12, 3, 201.7), (3, 2**12, 5, 232.8), (3, 2**14, 2, 823.3),
        ],
    )
    def test_memory_estimate_covers_the_measured_peaks(self, d, horizon, arms, peak_mib):
        cubes = harness.build_lattice(horizon, 2.0, d).n_cubes
        assert harness._estimated_bytes(cubes, horizon, arms) >= peak_mib * 2**20

    def test_memory_budget_counts_the_arms(self):
        # the estimate once ignored the arm count: 40 arms at d = 3, 2^14 were accepted
        policies = [{"name": "smooth_multi", "params": {"beta": 2.0}}]

        def cfg(arms):
            instance = {"family": "constant_multi", "params": {"d": 3, "means": [0.5] * arms}}
            return small_config(instance=instance, policies=policies, horizons=[2**14])

        message = r"^policies\[0\]: horizon 16384 at d = 3 needs a lattice of 3,796,416 cubes, an estimated 4.1 GiB"
        with pytest.raises(ConfigError, match=message):
            validate_experiment_config(cfg(40))
        validate_experiment_config(cfg(30))
        cubes = 3_796_416
        assert (harness._estimated_bytes(cubes, 2**14, 5) - harness._estimated_bytes(cubes, 2**14, 2)
                == 3 * harness._BYTES_PER_CUBE_ARM * cubes)

    @pytest.mark.parametrize(
        "instance, policy, fieldpath, message",
        [
            (
                {"family": "sinusoidal", "params": {"d": 2}},
                {"name": "binned_ucb", "params": {"bin_rate": 0.6}},
                "policies[1].params",
                "bin_rate must be at most 1/d = 0.5 (more bins than steps otherwise), got 0.6",
            ),
            (
                {"family": "constant_multi", "params": {"means": [0.2, 0.8]}},
                {"name": "smooth", "params": {"beta": 2.0}},
                "policies[1].name",
                "'smooth' needs an instance with arms (+1, -1), got [0, 1]; use 'smooth_multi'",
            ),
        ],
        ids=["bin_rate_above_one_over_d", "smooth_without_arms_plus_minus_one"],
    )
    def test_policies_are_checked_against_the_instance(self, instance, policy, fieldpath, message):
        # these were once raised by run_experiment alone: a caller that only validated was not told
        cfg = small_config(instance=instance, policies=[{"name": "uniform"}, policy])
        for validate in (validate_experiment_config, run_experiment):
            with pytest.raises(ConfigError) as info:
                validate(cfg)
            assert (info.value.fieldpath, str(info.value)) == (fieldpath, f"{fieldpath}: {message}")

    def test_instance_block_is_checked_first(self):
        cfg = small_config(instance={"family": "constant_gap", "params": {"d": 1, "gap": 2.0}}, threads=2, reps=0)
        with pytest.raises(ConfigError) as info:
            validate_experiment_config(cfg)
        assert info.value.fieldpath == "instance.params (constant_gap)"

    def test_checkpoint_times_up_to_the_smallest_horizon_pass(self):
        rows, _, _ = run_experiment(small_config(checkpoints=[1, 500]), quiet=True)
        assert sorted({r[5] for r in rows}) == [1, 500, 1000]

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

    def test_null_alpha_reads_as_a_hard_margin(self):
        summary = {
            "instance": {"name": "x", "d": 1, "arms": [1, -1], "beta": 2.0, "alpha": None},
            "groups": [
                {"policy": "smooth", "T": T, "reps": 10, "mean_final_regret": 3.0 + T * 1e-6,
                 "se_final_regret": 0.0, "mean_inferior": 0.0, "se_inferior": 0.0}
                for T in (1000, 2000, 4000, 8000)
            ],
        }
        _, exponent, band, passed = summary_rate_check(summary, "smooth")
        assert exponent == theoretical_exponent(2.0, math.inf, 1) == 0.0
        assert band == (-0.15, 0.25) and passed


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


class TestHeapPolicy:
    """Grid runs set glibc's heap thresholds once per process, and only on glibc."""

    @pytest.fixture
    def libc(self, monkeypatch):
        # a fake C library recording its mallopt calls; the cache is cleared
        # before and after, so that a later grid run sets the real thresholds
        calls = []

        class FakeLibc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        fake = FakeLibc()
        monkeypatch.setattr(harness.ctypes, "CDLL", lambda name: fake)
        monkeypatch.setattr(harness.os, "confstr", lambda name: "glibc 2.36")
        harness._keep_freed_heap.cache_clear()
        yield fake, calls
        harness._keep_freed_heap.cache_clear()

    _CONFIG = {
        "instance": {"family": "sinusoidal", "params": {"d": 1}},
        "policies": [{"name": "uniform"}],
        "horizons": [10],
    }

    def test_thresholds_set_once_per_process(self, libc):
        _, calls = libc
        run_experiment(self._CONFIG, quiet=True)
        run_experiment(self._CONFIG, quiet=True)
        harness._keep_freed_heap()
        assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]

    def test_set_before_the_config_is_read(self, libc):
        _, calls = libc
        with pytest.raises(ConfigError):
            run_experiment({"policies": []})
        assert len(calls) == 2

    @pytest.mark.parametrize("version", [None, "", "musl 1.2", ValueError, OSError, AttributeError])
    def test_nothing_set_without_glibc(self, libc, monkeypatch, version):
        _, calls = libc
        if isinstance(version, type):
            def confstr(name, error=version):
                raise error(name)
            monkeypatch.setattr(harness.os, "confstr", confstr)
        else:
            monkeypatch.setattr(harness.os, "confstr", lambda name: version)
        run_experiment(self._CONFIG, quiet=True)
        assert calls == []

    def test_nothing_set_without_mallopt(self, libc, monkeypatch):
        fake, calls = libc
        monkeypatch.delattr(type(fake), "mallopt")
        run_experiment(self._CONFIG, quiet=True)
        assert calls == []

    _BURSTS = """
import resource, sys
import numpy as np
from smoothbandit import harness

if sys.argv[1] == "policy":
    harness._keep_freed_heap()

def burst():
    arrays = [np.ones(3 * 2**20 // 8) for _ in range(4)]
    del arrays

burst()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    burst()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

    @pytest.mark.skipif(not _glibc(), reason="the heap thresholds are glibc's")
    def test_freed_arrays_are_not_faulted_in_again(self):
        # four 3 MiB arrays allocated and freed 50 times, after one warm burst:
        # glibc's default thresholds return them to the kernel every time
        # (3,072 faults a burst); the policy keeps them in the heap
        src = os.path.dirname(os.path.dirname(harness.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = path
        faults = {}
        for mode in ("default", "policy"):
            cmd = [sys.executable, "-c", self._BURSTS, mode]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            faults[mode] = int(proc.stdout)
        assert faults["default"] > 50 * 1000, faults
        assert faults["policy"] < 1000, faults

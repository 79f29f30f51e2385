import json
import os
import subprocess
import sys

import pytest

import smoothbandit
from smoothbandit import harness
from smoothbandit.cli import cli


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def run_config(tmp_path):
    return write_config(
        tmp_path / "config.json",
        {
            "instance": {"family": "constant_gap", "params": {"d": 1, "gap": 0.5}},
            "policies": [{"name": "uniform"}, {"name": "oracle"}],
            "horizons": [1024, 2048, 4096, 8192],
            "reps": 10,
            "base_seed": 5,
            "checkpoints": 3,
            "save_states": False,
        },
    )


class TestExitCodes:
    def test_no_arguments(self, capsys):
        assert cli([]) == 2

    def test_unknown_subcommand(self):
        assert cli(["frobnicate"]) == 2

    def test_missing_config_path(self, capsys):
        assert cli(["run", "/nonexistent/config.json"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli(["run", str(bad)]) == 2

    def test_invalid_config_field(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "c.json",
            {"instance": {"family": "constant_gap"}, "policies": [{"name": "bogus"}], "horizons": [100]},
        )
        assert cli(["run", path]) == 2
        assert "policies" in capsys.readouterr().err

    def test_checkpoint_past_the_smallest_horizon(self, run_config, tmp_path, capsys):
        # once exit 1 at run time, after the runs of the smaller horizons
        with open(run_config) as fh:
            cfg = json.load(fh)
        cfg["checkpoints"] = [2000]
        path = write_config(tmp_path / "late.json", cfg)
        assert cli(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: checkpoints: times must be integers in [1, 1024]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_label_that_cannot_name_a_file(self, run_config, tmp_path, capsys):
        # once exit 1 after every run, when its state report could not be written
        with open(run_config) as fh:
            cfg = json.load(fh)
        cfg["policies"][0]["label"] = "uniform/v2"
        cfg["save_states"] = True
        path = write_config(tmp_path / "label.json", cfg)
        assert cli(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: policies[0].label: must not contain" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_binned_ucb_params(self, run_config, tmp_path, capsys):
        with open(run_config) as fh:
            cfg = json.load(fh)
        cfg["policies"] = [{"name": "binned_ucb", "params": {"exploration": -1.0}}]
        path = write_config(tmp_path / "ucb.json", cfg)
        assert cli(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: policies[0].params: exploration must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bin_rate_above_one_over_d(self, run_config, tmp_path, capsys):
        # the bound needs the instance's dimension; it is checked before the first run
        with open(run_config) as fh:
            cfg = json.load(fh)
        cfg["policies"] = [{"name": "uniform"}, {"name": "binned_ucb", "params": {"bin_rate": 10}}]
        path = write_config(tmp_path / "ucb.json", cfg)
        assert cli(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: policies[1].params: bin_rate must be at most 1/d" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_noise_scale(self, run_config, tmp_path, capsys):
        with open(run_config) as fh:
            cfg = json.load(fh)
        cfg["instance"] = {"family": "sinusoidal", "params": {"d": 1, "noise": "truncated_gaussian",
                                                             "noise_scale": 0}}
        path = write_config(tmp_path / "scale.json", cfg)
        assert cli(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: instance.params (sinusoidal): noise_scale must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [[], ["--seed", "3"]])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, extra):
        path = write_config(tmp_path / "list.json", [1, 2])
        assert cli(["run", path, *extra]) == 2
        assert "config error: <root>: config must be a JSON object" in capsys.readouterr().err

    def test_threads_flag_is_gone(self, run_config, tmp_path, capsys):
        assert cli(["run", run_config, "--out-dir", str(tmp_path / "out"), "--threads", "2"]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_threads_config_key_rejected(self, run_config, tmp_path, capsys):
        with open(run_config) as fh:
            cfg = json.load(fh)
        path = write_config(tmp_path / "threads.json", {**cfg, "threads": 2})
        assert cli(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: threads:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _smooth(**params):
    return [{"name": "smooth", "params": {"beta": 2.0, **params}}]


def _instance(family, **params):
    return {"family": family, "params": params}


_BAD_VALUES = {
    # once exit 0, with NaN written into summary.json
    "frequency_nan": (
        {"instance": _instance("sinusoidal", d=1, frequency=float("nan"))},
        "instance.params (sinusoidal): frequency must be a finite positive number",
    ),
    "multi_arm_mean_nan": (
        {
            "instance": _instance("constant_multi", means=[0.2, float("nan")]),
            "policies": [{"name": "smooth_multi", "params": {"beta": 2.0}}],
        },
        "instance.params (constant_multi): means must lie in [0, 1]",
    ),
    "degree_1.5": (
        {"instance": _instance("polynomial_boundary", d=1, degree=1.5)},
        "instance.params (polynomial_boundary): degree must be an integer >= 1",
    ),
    # once exit 1, only once the runs started
    "beta_nan": ({"policies": _smooth(beta=float("nan"))}, "policies[0].params: smoothness must be"),
    "beta_infinity": ({"policies": _smooth(beta=float("inf"))}, "policies[0].params: smoothness must be"),
    "c_epoch_nan": ({"policies": _smooth(c_epoch=float("nan"))}, "policies[0].params: c_epoch must be"),
    "d_0": ({"instance": _instance("sinusoidal", d=0)}, "instance.params (sinusoidal): dimension must be"),
    "d_1.5": ({"instance": _instance("sinusoidal", d=1.5)}, "instance.params (sinusoidal): dimension must be"),
    # once an uncaught traceback
    "policy_params_string": (
        {"policies": [{"name": "smooth", "params": "beta"}]},
        "policies[0].params: must be a mapping",
    ),
    "instance_params_string": (
        {"instance": {"family": "sinusoidal", "params": "d"}},
        "instance.params: must be a mapping",
    ),
    "label_object": (
        {"policies": [{"name": "smooth", "label": {"a": 1}, "params": {"beta": 2.0}}]},
        "policies[0].label: must be a string",
    ),
    # once silently remapped
    "beta_true": ({"policies": _smooth(beta=True)}, "policies[0].params: smoothness must be"),
    "params_pairs": (
        {"policies": [{"name": "smooth", "params": [["beta", 2.0]]}]},
        "policies[0].params: must be a mapping",
    ),
    "save_states_string": ({"save_states": "no"}, "save_states: must be true or false"),
    # once each run twice
    "repeated_horizon": ({"horizons": [500, 500]}, "horizons: must not repeat a horizon"),
}


@pytest.mark.parametrize("case", list(_BAD_VALUES))
def test_bad_values_rejected_before_any_run(tmp_path, capsys, case):
    change, message = _BAD_VALUES[case]
    cfg = {"instance": _instance("sinusoidal", d=1), "policies": _smooth(), "horizons": [500], "reps": 2}
    path = write_config(tmp_path / "bad.json", {**cfg, **change})
    assert cli(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out_dir", [5, "", None, ["out"]], ids=["int", "empty", "null", "list"])
def test_out_dir_not_a_string_rejected_before_any_run(run_config, tmp_path, capsys, monkeypatch, out_dir):
    # once every run of the grid ran, then os.makedirs raised with a traceback (exit 1)
    def no_run(*args, **kwargs):
        raise AssertionError("run_experiment was called")

    monkeypatch.setattr(harness, "run_experiment", no_run)
    with open(run_config) as fh:
        cfg = json.load(fh)
    path = write_config(tmp_path / "out_dir.json", {**cfg, "out_dir": out_dir})
    assert cli(["run", path]) == 2
    assert f"config error: out_dir: must be a non-empty string, got {out_dir!r}" in capsys.readouterr().err


def test_lattice_over_the_memory_budget_exits_before_allocating(tmp_path):
    # d = 4 at 2^16 (1,003,875,856 cubes) was accepted and failed only inside a run;
    # the child process may address 1 GiB, far less than one per-cube table
    cfg = {"instance": _instance("sinusoidal", d=4), "policies": _smooth(), "horizons": [2**16]}
    path = write_config(tmp_path / "big.json", cfg)
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
        "from smoothbandit.cli import cli; sys.exit(cli(sys.argv[1:]))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(smoothbandit.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", path, "--out-dir", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "config error: policies[0]: horizon 65536 at d = 4 needs a lattice of 1,003,875,856 cubes" in proc.stderr
    assert not out.exists()


def test_smooth_without_arms_plus_minus_one_runs_nothing(tmp_path, capsys, monkeypatch):
    # once every uniform and binned-UCB run ran first, then exit 1 at the smooth run
    ran = []
    for module, name in ((harness, "run_policy"), (harness.baselines, "run_binned_ucb_batch")):
        monkeypatch.setattr(module, name, lambda *args, _n=name, **kwargs: ran.append(_n))
    cfg = {
        "instance": _instance("constant_multi", means=[0.2, 0.8]),
        "policies": [{"name": "uniform"}, {"name": "binned_ucb"}, *_smooth()],
        "horizons": [4096],
        "reps": 1,
    }
    path = write_config(tmp_path / "arms.json", cfg)
    assert cli(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: policies[2].name: 'smooth' needs an instance with arms (+1, -1), got [0, 1]" in err
    assert "use 'smooth_multi'" in err
    assert ran == [] and not (tmp_path / "out").exists()


class TestRunCommand:
    def test_run_writes_outputs(self, run_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli(["run", run_config, "--out-dir", str(out), "--quiet"]) == 0
        csv_text = (out / "results.csv").read_text()
        assert csv_text.startswith("policy,instance,T,rep,seed,checkpoint_t,cum_regret,inferior_count")
        summary = json.loads((out / "summary.json").read_text())
        assert {g["policy"] for g in summary["groups"]} == {"uniform", "oracle"}

    def test_run_twice_identical_csv(self, run_config, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli(["run", run_config, "--out-dir", str(out1), "--quiet"]) == 0
        assert cli(["run", run_config, "--out-dir", str(out2), "--quiet"]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_seed_override_changes_results(self, run_config, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert cli(["run", run_config, "--out-dir", str(out1), "--quiet"]) == 0
        assert cli(["run", run_config, "--out-dir", str(out2), "--quiet", "--seed", "99"]) == 0
        assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()


class TestRateCommand:
    def test_linear_growth_passes_explicit_band(self, run_config, tmp_path, capsys):
        out = tmp_path / "out"
        cli(["run", run_config, "--out-dir", str(out), "--quiet"])
        code = cli(["rate", str(out / "summary.json"), "--policy", "uniform", "--band", "0.9,1.1"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_linear_growth_fails_theory_band(self, run_config, tmp_path, capsys):
        # uniform play grows linearly; the smooth-rate band rejects it
        out = tmp_path / "out"
        cli(["run", run_config, "--out-dir", str(out), "--quiet"])
        code = cli(["rate", str(out / "summary.json"), "--policy", "uniform"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_band_argument(self, run_config, tmp_path, capsys):
        out = tmp_path / "out"
        cli(["run", run_config, "--out-dir", str(out), "--quiet"])
        assert cli(["rate", str(out / "summary.json"), "--band", "oops"]) == 2

    def test_band_that_is_not_an_interval(self, run_config, tmp_path, capsys):
        # the first two once printed FAIL and exited 1, a check failure for a usage error
        out = tmp_path / "out"
        cli(["run", run_config, "--out-dir", str(out), "--quiet"])
        capsys.readouterr()
        for band in ("0.5,0.1", "nan,nan", "0.1,nan", "-inf,1", "0.1,inf"):
            assert cli(["rate", str(out / "summary.json"), "--policy", "uniform", f"--band={band}"]) == 2
            captured = capsys.readouterr()
            assert f"config error: --band: expected two finite numbers lo,hi with lo <= hi, got {band!r}" in captured.err
            assert "FAIL" not in captured.out and "PASS" not in captured.out
        # a band of one point is an interval
        assert cli(["rate", str(out / "summary.json"), "--policy", "uniform", "--band", "1,1"]) in (0, 1)


class TestVerifyCommand:
    def test_sinusoidal_instance_passes(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "v.json",
            {"instance": {"family": "sinusoidal", "params": {"d": 1, "amplitude": 0.4, "beta": 2.0}}},
        )
        assert cli(["verify", path, "--samples", "20000"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_lower_bound_instance_passes(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "lb.json",
            {
                "instance": {
                    "family": "lower_bound",
                    "params": {"T": 100_000, "beta": 1.0, "alpha": 0.5, "d": 1, "seed": 3},
                }
            },
        )
        assert cli(["verify", path, "--samples", "100000"]) == 0

    # each once an uncaught traceback (exit 1)
    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({"verify": [1]}, "verify: must be a mapping"),
            ({"verify": {"alpha": "one"}}, "verify.alpha: must be a number"),
            ({"verify": {"t_grid": 0.1}}, "verify.t_grid: must be a list of positive numbers"),
            # once a ValueError from verify_margin, after the instance was built
            ({"verify": {"t_grid": [0.1, -0.2]}}, "verify.t_grid: must be a list of positive numbers"),
        ],
        ids=["list", "alpha_string", "t_grid_number", "t_grid_negative"],
    )
    def test_verify_block_of_the_wrong_shape(self, tmp_path, capsys, cfg, message):
        instance = {"family": "sinusoidal", "params": {"d": 1, "amplitude": 0.4, "beta": 2.0}}
        path = write_config(tmp_path / "v.json", {"instance": instance, **cfg})
        assert cli(["verify", path, "--samples", "20000"]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_empty_t_grid(self, tmp_path, capsys):
        # once a vacuous [PASS] of the margin check, with no row under it
        instance = {"family": "sinusoidal", "params": {"d": 1, "amplitude": 0.4, "beta": 2.0}}
        path = write_config(tmp_path / "v.json", {"instance": instance, "verify": {"t_grid": []}})
        assert cli(["verify", path, "--samples", "20000"]) == 2
        captured = capsys.readouterr()
        assert "config error: verify.t_grid: must not be empty" in captured.err
        assert "PASS" not in captured.out
        env = harness.build_instance(instance)
        with pytest.raises(ValueError, match="t grid must not be empty"):
            smoothbandit.environments.verify_margin(env, 1.0, 2.5, [], 20_000)

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        path = write_config(tmp_path / "v.json", 5)
        assert cli(["verify", path]) == 2
        assert "config error: <root>: config must be a JSON object" in capsys.readouterr().err

    # -5 and -1 were once tracebacks (exit 1); 0 once passed every check on no samples
    @pytest.mark.parametrize(
        "option, message",
        [
            (["--samples", "-5"], "--samples: must be at least 1, got -5"),
            (["--samples", "0"], "--samples: must be at least 1, got 0"),
            (["--seed", "-1"], "--seed: must be non-negative, got -1"),
        ],
        ids=["samples_negative", "samples_zero", "seed_negative"],
    )
    def test_rejects_bad_option(self, tmp_path, capsys, option, message):
        instance = {"family": "sinusoidal", "params": {"d": 1, "amplitude": 0.4, "beta": 2.0}}
        path = write_config(tmp_path / "v.json", {"instance": instance})
        assert cli(["verify", path, *option]) == 2
        captured = capsys.readouterr()
        assert f"config error: {message}" in captured.err
        assert "PASS" not in captured.out

    def test_one_sample_and_seed_zero_are_accepted(self, tmp_path, capsys):
        instance = {"family": "sinusoidal", "params": {"d": 1, "amplitude": 0.4, "beta": 2.0}}
        path = write_config(tmp_path / "v.json", {"instance": instance})
        assert cli(["verify", path, "--samples", "1", "--seed", "0"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestInspectCommand:
    def test_inspect_state_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "instance": {"family": "sinusoidal", "params": {"d": 1, "amplitude": 0.4, "beta": 2.0}},
                "policies": [{"name": "smooth", "params": {"beta": 2.0}}],
                "horizons": [2000],
                "reps": 1,
                "base_seed": 4,
                "save_states": True,
            },
        )
        out = tmp_path / "out"
        assert cli(["run", cfg, "--out-dir", str(out), "--quiet"]) == 0
        state = out / "state_smooth_T2000.json"
        assert state.exists()
        assert cli(["inspect", str(state)]) == 0
        assert "epoch" in capsys.readouterr().out

    # each once an uncaught traceback (exit 1)
    @pytest.mark.parametrize(
        "report, message",
        [
            ({"policy": "x"}, "state.final_regret: missing or not a number"),
            ([1, 2], "state: must be a JSON object"),
            ({"final_regret": 1.0, "epochs": {"epoch": 1}}, "state.epochs: must be a list"),
            ({"final_regret": 1.0, "epochs": [3]}, "state.epochs[0]: must be a mapping"),
            ({"final_regret": 1.0, "epochs": [{"epoch": 1}]}, "state.epochs[0].start: missing or of the wrong type"),
        ],
        ids=["no_final_regret", "list", "epochs_mapping", "epoch_number", "epoch_without_start"],
    )
    def test_report_of_the_wrong_shape(self, tmp_path, capsys, report, message):
        path = write_config(tmp_path / "state.json", report)
        assert cli(["inspect", path]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

import json

import pytest

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

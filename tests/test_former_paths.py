"""The shipped run paths against the former ones of ``former_paths``, run for run.

Each case runs once as shipped and once with every former path restored:
one ``tau`` call per arm, ``argmax`` for the first maximum, the three-line
step outcomes, block running sums by a loop over positions and binned-UCB
rounds fed one ``env.rewards`` call each.  Results, CSV rows, summaries and
state reports must be equal bit for bit.
"""

import json

import numpy as np
import pytest

import former_paths
from smoothbandit import harness
from smoothbandit.baselines import run_binned_ucb_batch
from smoothbandit.environments import make_constant_multi_arm, make_smooth_instance
from smoothbandit.policy import PolicyConfig, run_multi_arm


def _shipped_and_former(monkeypatch, run):
    shipped = run()
    with monkeypatch.context() as patch:
        former_paths.restore(patch)
        former = run()
    return shipped, former


def _assert_equal_runs(shipped, former):
    assert len(shipped) == len(former)
    for got, want in zip(shipped, former):
        assert got.equals(want)
        assert json.dumps(got.to_report(), sort_keys=True) == json.dumps(want.to_report(), sort_keys=True)


def test_d1_grid_of_all_four_policies(monkeypatch):
    cfg = {
        "instance": {"family": "sinusoidal", "params": {"d": 1, "amplitude": 0.4}},
        "policies": [
            {"name": "smooth", "params": {"beta": 2.0, "c_epoch": 8.0}},
            {"name": "binned_ucb"},
            {"name": "uniform"},
            {"name": "oracle"},
        ],
        # 5000 crosses a binned-UCB block
        "horizons": [700, 5000],
        "reps": 2,
        "base_seed": 11,
        "checkpoints": 8,
    }
    shipped, former = _shipped_and_former(monkeypatch, lambda: harness.run_experiment(cfg, quiet=True))
    assert shipped[0] == former[0]
    assert json.dumps(shipped[1], sort_keys=True) == json.dumps(former[1], sort_keys=True)
    assert list(shipped[2]) == list(former[2])
    _assert_equal_runs(list(shipped[2].values()), list(former[2].values()))
    assert any(run.epochs for run in shipped[2].values())


@pytest.mark.parametrize(
    "env, kwargs",
    [
        # two bins at d = 1, one holding most contexts: many one-step rounds
        (make_smooth_instance("sinusoidal", d=1, amplitude=0.4), {"bin_rate": 0.01}),
        (make_smooth_instance("sinusoidal", d=1, amplitude=0.4, noise="truncated_gaussian"), {}),
        # 70 arms, with ties: np.choose takes at most 64 (32 on NumPy 1.x) choices
        (make_constant_multi_arm(tuple(np.round(np.linspace(0.1, 0.9, 70), 1)), d=1), {"exploration": 0.5}),
    ],
    ids=["bin_rate_0.01", "truncated_gaussian", "constant_multi_70_arms"],
)
def test_binned_ucb_batches(monkeypatch, env, kwargs):
    runs = [(5000, 3), (900, 4)]
    shipped, former = _shipped_and_former(monkeypatch, lambda: run_binned_ucb_batch(env, runs, 8, **kwargs))
    _assert_equal_runs(shipped, former)


def test_d3_smooth_multi_run_and_its_state_report(monkeypatch):
    env = make_smooth_instance("sinusoidal", d=3, amplitude=0.4)
    config = PolicyConfig(beta=2.0, d=3, horizon=400, c_epoch=64.0)
    shipped, former = _shipped_and_former(
        monkeypatch, lambda: [run_multi_arm(env, config, 5, checkpoints=8, record_actions=True)]
    )
    _assert_equal_runs(shipped, former)
    run = shipped[0]
    assert len(run.epochs) >= 2 and sum(e.explore_cubes for e in run.epochs[1:]) > 0

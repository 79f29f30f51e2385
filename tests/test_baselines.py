import dataclasses
import math

import numpy as np
import pytest

from smoothbandit.baselines import (
    BinnedUcbState,
    binned_ucb_act,
    binned_ucb_update,
    oracle_act,
    run_binned_ucb,
    run_oracle,
    run_uniform,
    uniform_act,
)
from smoothbandit.environments import make_smooth_instance
from smoothbandit.geometry import GridLattice


def make_state(counts, sums, exploration=2.0):
    lattice = GridLattice(d=1, delta=1.0, cells_per_axis=1)
    state = BinnedUcbState(lattice=lattice, n_arms=len(counts), exploration=exploration)
    state.counts[0] = counts
    state.sums[0] = sums
    return state


class TestBinnedUcbAct:
    def test_fresh_bin_forced_exploration_order(self):
        state = make_state([0, 0], [0.0, 0.0])
        assert binned_ucb_act(state, np.array([0.5])) == 0
        binned_ucb_update(state, 0, 0, 1.0)
        assert binned_ucb_act(state, np.array([0.5])) == 1

    def test_dominant_mean_with_equal_bonus(self):
        state = make_state([10, 10], [9.0, 1.0])
        assert binned_ucb_act(state, np.array([0.5])) == 0

    def test_bonus_dominates_small_count(self):
        # bonus sqrt(2 ln 101 / 1) = 3.04 on the under-pulled arm
        state = make_state([1, 100], [0.5, 60.0])
        assert math.sqrt(2 * math.log(101) / 1) == pytest.approx(3.04, abs=0.01)
        assert binned_ucb_act(state, np.array([0.5])) == 0

    def test_bin_state_matches_standalone_ucb1(self):
        # oracle: an independent UCB1 fed only this bin's steps
        rng = np.random.default_rng(0)
        lattice = GridLattice(d=1, delta=0.25, cells_per_axis=4)
        state = BinnedUcbState(lattice=lattice, n_arms=2, exploration=2.0)

        class UCB1:
            def __init__(self):
                self.counts = [0, 0]
                self.sums = [0.0, 0.0]

            def act(self):
                for a in (0, 1):
                    if self.counts[a] == 0:
                        return a
                t = sum(self.counts)
                scores = [
                    self.sums[a] / self.counts[a] + math.sqrt(2 * math.log(t) / self.counts[a])
                    for a in (0, 1)
                ]
                return int(np.argmax(scores))

            def update(self, a, y):
                self.counts[a] += 1
                self.sums[a] += y

        references = [UCB1() for _ in range(4)]
        xs = rng.random(1000)
        ys = rng.random(1000)
        for x, y in zip(xs, ys):
            flat = int(lattice.cube_index(np.array([[x]]))[0])
            got = binned_ucb_act(state, np.array([x]))
            expected = references[flat].act()
            assert got == expected
            binned_ucb_update(state, flat, got, y)
            references[flat].update(expected, y)


class TestSimplePolicies:
    def test_uniform_act_spread(self):
        rng = np.random.default_rng(1)
        arms = (1, -1)
        draws = [uniform_act(rng, arms) for _ in range(10_000)]
        assert 0.48 <= np.mean(np.array(draws) == 1) <= 0.52

    def test_oracle_act(self):
        env = make_smooth_instance("constant_gap", d=1, gap=0.5)
        assert oracle_act(env, np.array([0.2])) == 1

    def test_oracle_run_zero_regret(self):
        env = make_smooth_instance("constant_gap", d=1, gap=0.5)
        res = run_oracle(env, 5000, seed=0)
        assert res.final_regret == 0.0
        assert res.inferior_count == 0

    def test_uniform_zero_gap_zero_regret(self):
        env = make_smooth_instance("constant_gap", d=1, gap=0.0)
        res = run_uniform(env, 5000, seed=0)
        assert res.final_regret == 0.0

    def test_uniform_regret_near_half_gap(self):
        # analytic oracle: per-step expected regret is gap / 2
        env = make_smooth_instance("constant_gap", d=1, gap=0.5)
        finals = np.array([run_uniform(env, 2000, seed=s).final_regret for s in range(20)])
        expected = 0.25 * 2000
        se = finals.std(ddof=1) / math.sqrt(len(finals))
        assert abs(finals.mean() - expected) <= 3 * se


class TestBinnedUcbRun:
    def test_learns_constant_gap(self):
        env = make_smooth_instance("constant_gap", d=1, gap=0.5)
        res = run_binned_ucb(env, 4000, seed=0)
        # far below uniform randomization's 500
        assert res.final_regret < 250

    def test_default_bin_side(self):
        env = make_smooth_instance("sinusoidal", d=1, amplitude=0.4)
        res = run_binned_ucb(env, 4096, seed=0)
        assert res.meta["delta_bin"] == pytest.approx(4096 ** (-1 / 3), rel=1e-12)

    def test_deterministic(self):
        env = make_smooth_instance("sinusoidal", d=1, amplitude=0.4)
        a = run_binned_ucb(env, 2000, seed=5)
        b = run_binned_ucb(env, 2000, seed=5)
        assert a.equals(b)


class TestOffLatticeContexts:
    def test_binned_ucb_names_the_step(self):
        env = make_smooth_instance("constant_gap", d=1, gap=0.2)

        def sample(rng, n):
            x = rng.random((n, 1))
            x[n // 2] = 2.0
            return x

        env = dataclasses.replace(env, sample_contexts=sample)
        with pytest.raises(RuntimeError, match="step 51 lies off the bin lattice"):
            run_binned_ucb(env, horizon=300, seed=0, block=100)

    def test_binned_ucb_act_names_the_context(self):
        state = BinnedUcbState(lattice=GridLattice(d=1, delta=0.5, cells_per_axis=2), n_arms=2)
        with pytest.raises(ValueError, match=r"context \[1.5\] is outside the unit cube"):
            binned_ucb_act(state, np.array([1.5]))

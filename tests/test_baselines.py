import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest
import reward_oracle

from smoothbandit.baselines import run_binned_ucb, run_oracle, run_uniform
from smoothbandit.environments import (
    make_constant_multi_arm,
    make_lower_bound_instance,
    make_smooth_instance,
)
from smoothbandit.geometry import GridLattice

# ---------------------------------------------------------------------------
# Reference: a step API for binned UCB (one context in, one arm out), and a
# run loop that drives it while drawing the random stream in the order of
# run_binned_ucb.  The step functions are the library's former public API.


@dataclass
class BinnedUcbState:
    """Independent UCB bookkeeping inside each context bin.

    The confidence bonus uses the bin-local visit count as its clock, so
    each bin behaves exactly like an isolated bandit fed only its own
    steps.
    """

    lattice: GridLattice
    n_arms: int
    exploration: float = 2.0
    counts: np.ndarray = None
    sums: np.ndarray = None

    def __post_init__(self):
        if self.counts is None:
            self.counts = np.zeros((self.lattice.n_cubes, self.n_arms), dtype=np.int64)
        if self.sums is None:
            self.sums = np.zeros((self.lattice.n_cubes, self.n_arms))


def binned_ucb_act(state: BinnedUcbState, x, t: int = 0, rng=None) -> int:
    """Arm index for one context.

    Unpulled arms in the bin go first, in arm order; afterwards the arm
    with the highest mean plus sqrt(exploration * log(visits) / count)
    wins, ties to the earliest arm.  The global step ``t`` is accepted for
    interface symmetry but the bonus runs on the bin-local clock.
    """
    flat = state.lattice.cube_index(np.atleast_2d(np.asarray(x, dtype=float)))[0]
    if flat < 0:
        raise ValueError(f"context {x} is outside the unit cube")
    return _binned_ucb_choose(state, int(flat))


def _binned_ucb_choose(state: BinnedUcbState, flat: int) -> int:
    counts = state.counts[flat]
    for arm_ix in range(state.n_arms):
        if counts[arm_ix] == 0:
            return arm_ix
    visits = counts.sum()
    bonus = np.sqrt(state.exploration * math.log(visits) / counts)
    return int(np.argmax(state.sums[flat] / counts + bonus))


def binned_ucb_update(state: BinnedUcbState, flat: int, arm_ix: int, reward: float) -> None:
    state.counts[flat, arm_ix] += 1
    state.sums[flat, arm_ix] += reward


REFERENCE_BLOCK = 4096


def reference_binned_ucb(env, horizon, seed, exploration=2.0, bin_rate=None):
    """Per-step regret and inferior flags of the step API on run_binned_ucb's stream.

    Per block of REFERENCE_BLOCK steps: the contexts, then (Bernoulli noise)
    one uniform per step; truncated-Gaussian rewards are drawn one step at
    a time by the former sampler (``reward_oracle``), not by the library's
    reward law.
    """
    rng = np.random.default_rng(seed)
    delta_bin = horizon ** (-1.0 / (2 + env.d)) if bin_rate is None else horizon**-bin_rate
    lattice = GridLattice(d=env.d, delta=delta_bin, cells_per_axis=math.ceil(1.0 / delta_bin))
    state = BinnedUcbState(lattice=lattice, n_arms=env.n_arms, exploration=exploration)
    regret = np.empty(horizon)
    inferior = np.empty(horizon, dtype=np.int64)
    for pos in range(0, horizon, REFERENCE_BLOCK):
        X = env.sample_contexts(rng, min(REFERENCE_BLOCK, horizon - pos))
        means = env.means_matrix(X)
        u = rng.random(len(X)) if env.noise == "bernoulli" else None
        for i, x in enumerate(X):
            arm_ix = binned_ucb_act(state, x)
            mean_a = means[arm_ix, i]
            if u is not None:
                y = 1.0 if u[i] < mean_a else 0.0
            else:
                y = float(reward_oracle.sample_rewards(env, rng, np.array([mean_a]))[0])
            binned_ucb_update(state, int(lattice.cube_index(x[None, :])[0]), arm_ix, y)
            regret[pos + i] = means[:, i].max() - mean_a
            inferior[pos + i] = arm_ix != means[:, i].argmax()
    return np.cumsum(regret), np.cumsum(inferior)


def _sinusoidal(d, **params):
    return make_smooth_instance("sinusoidal", d=d, amplitude=0.4, **params)


# (instance, horizon, seed, run_binned_ucb keyword arguments)
REFERENCE_CASES = {
    "sinusoidal_d1": (_sinusoidal(1), 3000, 0, {}),
    "sinusoidal_d2": (_sinusoidal(2), 3000, 1, {}),
    "three_arm_constant": (make_constant_multi_arm((0.3, 0.5, 0.6)), 3000, 0, {}),
    "truncated_gaussian": (_sinusoidal(1, noise="truncated_gaussian"), 800, 1, {}),
    # truncated-Gaussian rewards across a block boundary
    "truncated_gaussian_d2_crosses_block": (_sinusoidal(2, noise="truncated_gaussian"), 4500, 2, {}),
    "truncated_gaussian_bump_grid_crosses_block": (
        make_lower_bound_instance(T=100000, beta=2.0, alpha=0.5, d=2, seed=3, noise="truncated_gaussian"),
        4500,
        1,
        {},
    ),
    "bump_grid_d2": (
        make_lower_bound_instance(T=100000, beta=2.0, alpha=0.5, d=2, seed=3), 2000, 0, {}
    ),
    "exploration_0.5": (_sinusoidal(1), 2000, 1, {"exploration": 0.5}),
    "bin_rate": (_sinusoidal(2), 2000, 0, {"bin_rate": 0.2}),
    "crosses_block": (_sinusoidal(1), 5000, 0, {}),
    # 2 bins at d = 1: thousands of rounds per block, of one or two steps each
    "few_bins": (_sinusoidal(1), 9000, 2, {"bin_rate": 0.01}),
    # 95 bins at d = 1: about 43 visits per bin and block, rounds up to 95 steps wide
    "many_bins": (_sinusoidal(1), 9000, 3, {"bin_rate": 0.5}),
    # equal arms and no bonus: exact score ties, broken to the earliest arm
    "ties_exploration_0": (make_constant_multi_arm((0.5, 0.5, 0.5)), 3000, 4, {"exploration": 0.0}),
    # 49 bins x 2 arms > 40 steps: no bin leaves forced exploration
    "forced_exploration_only": (_sinusoidal(2), 40, 0, {"bin_rate": 0.5}),
}


def make_state(counts, sums, exploration=2.0):
    lattice = GridLattice(d=1, delta=1.0, cells_per_axis=1)
    state = BinnedUcbState(lattice=lattice, n_arms=len(counts), exploration=exploration)
    state.counts[0] = counts
    state.sums[0] = sums
    return state


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_run_matches_step_reference(case):
    env, horizon, seed, kwargs = REFERENCE_CASES[case]
    res = run_binned_ucb(env, horizon, seed, checkpoints=list(range(1, horizon + 1)), **kwargs)
    regret, inferior = reference_binned_ucb(env, horizon, seed, **kwargs)
    np.testing.assert_array_equal(res.cum_regret, regret)
    np.testing.assert_array_equal(res.cum_inferior, inferior)
    assert inferior[-1] > 0


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"exploration": math.nan}, "exploration"),
        ({"exploration": math.inf}, "exploration"),
        ({"exploration": -1.0}, "exploration"),
        ({"exploration": "2"}, "exploration"),
        ({"bin_rate": 0.0}, "bin_rate"),
        ({"bin_rate": -0.2}, "bin_rate"),
        ({"bin_rate": math.nan}, "bin_rate"),
        ({"bin_rate": math.inf}, "bin_rate"),
        # more bins than steps; 10 once died in NumPy's allocation of the counts
        ({"bin_rate": 10}, "bin_rate"),
        ({"bin_rate": 1.01}, "bin_rate"),
    ],
)
def test_bad_parameters_raise_before_the_run(kwargs, name):
    env = _sinusoidal(1)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        run_binned_ucb(env, 3000, 0, **kwargs)


def test_edge_parameters_are_accepted():
    env = _sinusoidal(1)
    assert run_binned_ucb(env, 500, 0, exploration=0).horizon == 500
    assert run_binned_ucb(env, 500, 0, exploration=np.float64(1.5), bin_rate=None).horizon == 500
    assert run_binned_ucb(env, 500, 0, bin_rate=1).horizon == 500


def test_bin_rate_is_bounded_by_one_over_d():
    env = _sinusoidal(2)
    with pytest.raises(ValueError, match=r"^bin_rate must be at most 1/d = 0\.5"):
        run_binned_ucb(env, 3000, 0, bin_rate=0.51)
    assert run_binned_ucb(env, 40, 0, bin_rate=0.5).horizon == 40


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
        blocks = []

        def sample(rng, n):
            x = rng.random((n, 1))
            blocks.append(n)
            if len(blocks) == 2:
                x[50] = 2.0
            return x

        env = dataclasses.replace(env, sample_contexts=sample)
        with pytest.raises(RuntimeError, match="step 4147 lies off the bin lattice"):
            run_binned_ucb(env, horizon=5000, seed=0)
        assert blocks == [4096, 904]

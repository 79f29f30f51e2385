import dataclasses
import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
import reward_oracle

from smoothbandit import baselines
from smoothbandit.baselines import RunError, run_binned_ucb, run_binned_ucb_batch, run_oracle, run_uniform
from smoothbandit.environments import (
    make_constant_multi_arm,
    make_lower_bound_instance,
    make_smooth_instance,
)
from smoothbandit.geometry import GridLattice
from smoothbandit.results import CheckpointTally, RunResult

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


# (instance, run_binned_ucb_batch keyword arguments): both reward laws,
# d = 1 and d = 2, default and explicit parameters
BATCH_CASES = {
    "sinusoidal_d1": (_sinusoidal(1), {}),
    "sinusoidal_d2_bin_rate": (_sinusoidal(2), {"bin_rate": 0.3, "exploration": 0.5}),
    "three_arm_constant_exploration": (make_constant_multi_arm((0.3, 0.5, 0.6)), {"exploration": 1.0}),
    "truncated_gaussian_d2": (_sinusoidal(2, noise="truncated_gaussian"), {"bin_rate": 0.25}),
}

# mixed horizons, two of them not a multiple of the 4096-step block, and
# repeated horizons with different seeds (reps)
BATCH_RUNS = [(5000, 11), (300, 12), (9000, 13), (4096, 14), (5000, 15)]


class TestBatch:
    @pytest.mark.parametrize("case", list(BATCH_CASES))
    @pytest.mark.parametrize("checkpoints", [16, [1, 7, 299]])
    def test_batch_equals_each_run_alone(self, case, checkpoints):
        env, kwargs = BATCH_CASES[case]
        runs = BATCH_RUNS[:3] if env.noise == "truncated_gaussian" else BATCH_RUNS
        batch = run_binned_ucb_batch(env, runs, checkpoints, **kwargs)
        assert len(batch) == len(runs)
        for (horizon, seed), got in zip(runs, batch):
            alone = run_binned_ucb(env, horizon, seed, checkpoints, **kwargs)
            assert got.equals(alone), (horizon, seed)
            assert (got.horizon, got.seed) == (horizon, seed)

    def test_chunks_change_no_result(self, monkeypatch):
        # 17 runs of more than one block stack more than 16 blocks' steps,
        # so the batch runs in two chunks; a smaller cap makes more chunks
        env = _sinusoidal(1)
        runs = [(4100 + 37 * k, 100 + k) for k in range(17)]
        chunk = baselines._run_chunk
        chunks = []

        def counted(env, runs, *args):
            chunks.append(len(runs))
            return chunk(env, runs, *args)

        monkeypatch.setattr(baselines, "_run_chunk", counted)
        batch = run_binned_ucb_batch(env, runs, 8)
        assert chunks == [16, 1]
        monkeypatch.setattr(baselines, "_UCB_STACK", 2 * baselines._UCB_BLOCK + 1)
        chunks.clear()
        small = run_binned_ucb_batch(env, runs, 8)
        assert chunks == [2] * 8 + [1]
        for horizon_seed, a, b in zip(runs, batch, small):
            assert a.equals(b), horizon_seed
        for (horizon, seed), got in zip(runs[::4], batch[::4]):
            assert got.equals(run_binned_ucb(env, horizon, seed, 8))

    def test_wall_times_split_the_elapsed_time(self):
        env = _sinusoidal(1)
        runs = [(2000, 1), (6000, 2), (4000, 3)]
        started = time.perf_counter()
        batch = run_binned_ucb_batch(env, runs)
        elapsed = time.perf_counter() - started
        walls = [r.wall_time for r in batch]
        assert all(w > 0 for w in walls)
        assert sum(walls) <= elapsed
        # in proportion to the runs' steps
        assert walls[1] / walls[0] == pytest.approx(3.0, rel=1e-9)
        assert walls[2] / walls[0] == pytest.approx(2.0, rel=1e-9)

    def test_bad_checkpoints_raise_before_any_run(self):
        env = _sinusoidal(1)
        drawn = []

        def sample(rng, n):
            drawn.append(n)
            return rng.random((n, 1))

        env = dataclasses.replace(env, sample_contexts=sample)
        with pytest.raises(ValueError, match=r"checkpoints must lie in \[1, 300\]"):
            run_binned_ucb_batch(env, [(5000, 0), (300, 1)], [500])
        assert drawn == []


@pytest.mark.parametrize("n_keys", [7, 70_000])
def test_rounds_take_each_keys_steps_in_turn(n_keys):
    # keys below 2^16 sort as uint16, larger ones as they are: the rounds
    # are the same definition either way
    keys = np.random.default_rng(n_keys).integers(0, n_keys, 5000)
    order, bounds = baselines._rounds(keys)
    # each step's rank among its key's steps
    rank, seen = [], Counter()
    for k in keys.tolist():
        rank.append(seen[k])
        seen[k] += 1
    expected = sorted(range(len(keys)), key=lambda j: (rank[j], keys[j], j))
    assert order.tolist() == expected
    assert bounds == [0, *np.cumsum(np.bincount(rank)).tolist()]


class TestCheckpointTally:
    @pytest.mark.parametrize("blocks", [[1000], [1, 999], [400, 1, 599], [4096 // 8] * 2])
    def test_blocks_equal_one_cumsum(self, blocks):
        rng = np.random.default_rng(0)
        n = sum(blocks)
        regret = rng.random(n) * rng.integers(0, 2, n)
        inferior = rng.random(n) < 0.3
        whole = RunResult.from_steps("p", "i", 0, regret, inferior, list(range(1, n + 1)), time.perf_counter())
        tally = CheckpointTally(whole.checkpoint_times)
        pos = 0
        for size in blocks:
            tally.add(regret[pos : pos + size], inferior[pos : pos + size])
            pos += size
        assert tally.steps == n
        assert tally.cum_regret.tobytes() == np.cumsum(regret).tobytes()
        np.testing.assert_array_equal(tally.cum_inferior, np.cumsum(inferior))
        assert RunResult.from_tally("p", "i", 0, tally, 0.0).equals(whole)


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

    @pytest.mark.parametrize("fault", ["off_lattice", "raises"])
    def test_batch_names_the_run_that_drew_it(self, fault):
        env = make_smooth_instance("constant_gap", d=1, gap=0.2)
        blocks = []

        # block 0 of all four runs, then block 1 of the two long ones: the
        # sixth draw is the second block of run 3
        def sample(rng, n):
            x = rng.random((n, 1))
            blocks.append(n)
            if len(blocks) == 6:
                if fault == "raises":
                    raise ValueError("sampler broke")
                x[50] = 2.0
            return x

        env = dataclasses.replace(env, sample_contexts=sample)
        message = "sampler broke" if fault == "raises" else "context \\[2\\.\\] at step 4147 lies off the bin lattice"
        with pytest.raises(RunError, match=f"^{message}$") as info:
            run_binned_ucb_batch(env, [(500, 0), (5000, 1), (600, 2), (5000, 3)])
        assert info.value.index == 3
        assert blocks == [500, 4096, 600, 4096, 904, 904]

"""Reference policies: binned UCB, uniform randomization, and the oracle."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .environments import Instance, oracle_arm
from .geometry import GridLattice
from .results import RunResult, normalize_checkpoints


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


def uniform_act(rng: np.random.Generator, arms):
    """Uniform draw over the arm list."""
    return arms[int(rng.random() * len(arms)) % len(arms)]


def oracle_act(instance: Instance, x):
    return oracle_arm(instance, x)


# ---------------------------------------------------------------------------
# Run loops


def run_uniform(env: Instance, horizon: int, seed: int, checkpoints=None) -> RunResult:
    """Uniformly random arms for the whole horizon (fully vectorized)."""
    started = time.perf_counter()
    rng = np.random.default_rng(int(seed))
    X = env.sample_contexts(rng, horizon)
    arm_ix = np.minimum((rng.random(horizon) * env.n_arms).astype(np.int64), env.n_arms - 1)
    means = env.means_matrix(X)
    chosen = means[arm_ix, np.arange(horizon)]
    env.sample_rewards(rng, chosen)
    regret = np.cumsum(means.max(axis=0) - chosen)
    inferior = np.cumsum(arm_ix != means.argmax(axis=0))
    ts = normalize_checkpoints(checkpoints, horizon)
    return RunResult(
        policy="uniform",
        instance=env.name,
        seed=int(seed),
        horizon=horizon,
        checkpoint_times=ts,
        cum_regret=regret[ts - 1],
        cum_inferior=inferior[ts - 1],
        inferior_count=int(inferior[-1]),
        wall_time=time.perf_counter() - started,
    )


def run_oracle(env: Instance, horizon: int, seed: int, checkpoints=None) -> RunResult:
    """Always the optimal arm; zero regret by construction."""
    started = time.perf_counter()
    rng = np.random.default_rng(int(seed))
    X = env.sample_contexts(rng, horizon)
    means = env.means_matrix(X)
    arm_ix = means.argmax(axis=0)
    chosen = means[arm_ix, np.arange(horizon)]
    env.sample_rewards(rng, chosen)
    regret = np.cumsum(means.max(axis=0) - chosen)
    inferior = np.cumsum(arm_ix != means.argmax(axis=0))
    ts = normalize_checkpoints(checkpoints, horizon)
    return RunResult(
        policy="oracle",
        instance=env.name,
        seed=int(seed),
        horizon=horizon,
        checkpoint_times=ts,
        cum_regret=regret[ts - 1],
        cum_inferior=inferior[ts - 1],
        inferior_count=int(inferior[-1]),
        wall_time=time.perf_counter() - started,
    )


def run_binned_ucb(
    env: Instance,
    horizon: int,
    seed: int,
    checkpoints=None,
    exploration: float = 2.0,
    bin_rate: float | None = None,
    block: int = 4096,
) -> RunResult:
    """Isolated UCB per context bin.

    The bin side defaults to horizon**(-1/(2+d)), the calibration that is
    rate-optimal when the reward functions are merely Lipschitz; it
    deliberately ignores any extra smoothness.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(int(seed))
    d = env.d
    if bin_rate is None:
        delta_bin = horizon ** (-1.0 / (2 + d))
    else:
        delta_bin = horizon**-bin_rate
    lattice = GridLattice(d=d, delta=delta_bin, cells_per_axis=math.ceil(1.0 / delta_bin))
    state = BinnedUcbState(lattice=lattice, n_arms=env.n_arms, exploration=exploration)

    regret = np.empty(horizon)
    inferior = np.empty(horizon, dtype=np.int64)
    counts = state.counts
    sums = state.sums
    n_arms = env.n_arms
    expl = state.exploration
    bernoulli = env.noise == "bernoulli"
    pos = 0
    while pos < horizon:
        n = min(block, horizon - pos)
        X = env.sample_contexts(rng, n)
        flat = lattice.cube_index(X)
        off = np.flatnonzero(flat < 0)
        if len(off):
            step = pos + off[0] + 1
            raise RuntimeError(f"context {X[off[0]]} at step {step} lies off the bin lattice")
        means = env.means_matrix(X)
        best = means.max(axis=0)
        oracle_ix = means.argmax(axis=0)
        u = rng.random(n) if bernoulli else None
        for i in range(n):
            b = flat[i]
            row = counts[b]
            arm_ix = -1
            for a in range(n_arms):
                if row[a] == 0:
                    arm_ix = a
                    break
            if arm_ix < 0:
                visits = row.sum()
                logv = math.log(visits)
                score = -math.inf
                for a in range(n_arms):
                    val = sums[b, a] / row[a] + math.sqrt(expl * logv / row[a])
                    if val > score:
                        score = val
                        arm_ix = a
            mean_a = means[arm_ix, i]
            if bernoulli:
                y = 1.0 if u[i] < mean_a else 0.0
            else:
                y = float(env.sample_rewards(rng, np.array([mean_a]))[0])
            counts[b, arm_ix] += 1
            sums[b, arm_ix] += y
            regret[pos + i] = best[i] - mean_a
            inferior[pos + i] = arm_ix != oracle_ix[i]
        pos += n

    cum_regret = np.cumsum(regret)
    cum_inferior = np.cumsum(inferior)
    ts = normalize_checkpoints(checkpoints, horizon)
    return RunResult(
        policy="binned_ucb",
        instance=env.name,
        seed=int(seed),
        horizon=horizon,
        checkpoint_times=ts,
        cum_regret=cum_regret[ts - 1],
        cum_inferior=cum_inferior[ts - 1],
        inferior_count=int(cum_inferior[-1]),
        wall_time=time.perf_counter() - started,
        meta={"delta_bin": delta_bin, "n_bins": lattice.n_cubes},
    )

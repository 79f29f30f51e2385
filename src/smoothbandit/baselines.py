"""Reference policies: binned UCB, uniform randomization, and the oracle.

Each policy has one run loop.  Binned UCB keeps an isolated UCB1 in every
bin of a cube lattice over the contexts, the no-sharing extreme of the
smoothness scale; uniform and oracle pick every step's arm up front and
share one fixed-rule runner.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .environments import Instance
from .geometry import GridLattice
from .results import RunResult, normalize_checkpoints

# Steps whose contexts and Bernoulli uniforms binned UCB draws at once.  A
# constant, not a setting: the block size fixes the order of the random
# draws, and so the regret of a seeded run.
_UCB_BLOCK = 4096


def run_uniform(env: Instance, horizon: int, seed: int, checkpoints=None) -> RunResult:
    """Uniformly random arms for the whole horizon (fully vectorized)."""

    def choose(rng, means):
        return np.minimum((rng.random(horizon) * env.n_arms).astype(np.int64), env.n_arms - 1)

    return _run_fixed_rule("uniform", choose, env, horizon, seed, checkpoints)


def run_oracle(env: Instance, horizon: int, seed: int, checkpoints=None) -> RunResult:
    """Always the optimal arm; zero regret by construction."""
    return _run_fixed_rule(
        "oracle", lambda rng, means: means.argmax(axis=0), env, horizon, seed, checkpoints
    )


def _run_fixed_rule(policy: str, choose, env: Instance, horizon: int, seed: int, checkpoints) -> RunResult:
    """Run a rule that picks every step's arm up front, ``choose(rng, means) -> arm_ix``.

    Draws the contexts, then whatever ``choose`` draws, then the rewards.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(int(seed))
    X = env.sample_contexts(rng, horizon)
    means = env.means_matrix(X)
    arm_ix = choose(rng, means)
    chosen = means[arm_ix, np.arange(horizon)]
    env.sample_rewards(rng, chosen)
    regret = np.cumsum(means.max(axis=0) - chosen)
    inferior = np.cumsum(arm_ix != means.argmax(axis=0))
    ts = normalize_checkpoints(checkpoints, horizon)
    return RunResult(
        policy=policy,
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
) -> RunResult:
    """Isolated UCB per context bin.

    The bin side defaults to horizon**(-1/(2+d)), the calibration that is
    rate-optimal when the reward functions are merely Lipschitz; it
    deliberately ignores any extra smoothness.  In each bin, unpulled arms
    go first in arm order; afterwards the arm with the highest mean plus
    sqrt(exploration * log(visits) / count) wins, ties to the earliest arm.
    ``visits`` is the bin's own step count, so each bin is a bandit fed
    only its own steps.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(int(seed))
    d = env.d
    if bin_rate is None:
        delta_bin = horizon ** (-1.0 / (2 + d))
    else:
        delta_bin = horizon**-bin_rate
    lattice = GridLattice(d=d, delta=delta_bin, cells_per_axis=math.ceil(1.0 / delta_bin))
    n_arms = env.n_arms
    counts = np.zeros((lattice.n_cubes, n_arms), dtype=np.int64)
    sums = np.zeros((lattice.n_cubes, n_arms))

    regret = np.empty(horizon)
    inferior = np.empty(horizon, dtype=np.int64)
    bernoulli = env.noise == "bernoulli"
    pos = 0
    while pos < horizon:
        n = min(_UCB_BLOCK, horizon - pos)
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
                    val = sums[b, a] / row[a] + math.sqrt(exploration * logv / row[a])
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

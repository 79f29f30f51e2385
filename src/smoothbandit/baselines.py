"""Reference policies: binned UCB, uniform randomization, and the oracle.

Binned UCB keeps an isolated UCB1 in every bin of a cube lattice over the
contexts, the no-sharing extreme of the smoothness scale.  Its bins never
read each other's state, so each block of steps runs in rounds across the
bins: round ``r`` chooses and updates every bin's ``r``-th step of the
block in one vectorized pass, with the arithmetic of a step-by-step loop
(``log`` from a table of ``math.log``, first-maximum ties), so a seeded
run's regret is that of the loop, value for value.  Each step's reward
is the instance's reward law at one uniform, drawn per block in step
order, whatever the law.  Very few bins mean many short rounds and a
slower run; see ``run_binned_ucb``.  Uniform and oracle pick every step's
arm up front and share one fixed-rule runner.
"""

from __future__ import annotations

import math
import numbers
import time

import numpy as np

from .environments import Instance
from .geometry import GridLattice
from .results import RunResult

# Steps whose contexts and reward uniforms binned UCB draws at once.  A
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

    Draws the contexts, then whatever ``choose`` draws.  The rule reads no
    reward, so none is drawn.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(int(seed))
    X = env.sample_contexts(rng, horizon)
    means = env.means_matrix(X)
    arm_ix = choose(rng, means)
    regret = means.max(axis=0) - means[arm_ix, np.arange(horizon)]
    inferior = arm_ix != means.argmax(axis=0)
    return RunResult.from_steps(policy, env.name, seed, regret, inferior, checkpoints, started)


def check_binned_ucb_params(exploration=2.0, bin_rate=None, d: int | None = None) -> None:
    """Raise ``ValueError`` naming the first binned-UCB parameter out of range.

    ``exploration`` must be a finite number >= 0 and ``bin_rate`` either
    None or a finite number > 0, at most ``1 / d`` when the context
    dimension ``d`` is given.  A NaN exploration would make every score
    NaN and the arm choice meaningless; a negative one would take the
    square root of a negative number.  A ``bin_rate`` above ``1 / d`` asks
    for more bins (about ``horizon**(bin_rate * d)``) than there are steps,
    and soon for more memory than the host has.
    """
    if not (isinstance(exploration, numbers.Real) and math.isfinite(exploration) and exploration >= 0):
        raise ValueError(f"exploration must be a finite number >= 0, got {exploration!r}")
    if bin_rate is not None and not (
        isinstance(bin_rate, numbers.Real) and math.isfinite(bin_rate) and bin_rate > 0
    ):
        raise ValueError(f"bin_rate must be None or a finite number > 0, got {bin_rate!r}")
    if bin_rate is not None and d is not None and bin_rate > 1.0 / d:
        raise ValueError(
            f"bin_rate must be at most 1/d = {1.0 / d:g} (more bins than steps otherwise), got {bin_rate!r}"
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

    A step depends only on the earlier steps of its own bin, so each block
    of steps runs in rounds: round ``r`` makes every bin's ``r``-th visit
    of the block at once, with one vectorized choose-and-update.  The
    arithmetic is that of a step-by-step loop, value for value: ``log`` is
    read from a table of ``math.log(v)``, division and square root are
    correctly rounded, ``argmax`` takes the first maximum, and the bins of
    a round are distinct, so each bin's sums add in step order.  A block
    draws its contexts, then one uniform per step in step order, and each
    round reads its steps' rewards off ``env.rewards``, so the rewards
    are those of a per-step loop that draws them one step at a time.

    Cost: each round pays the fixed overhead of a few NumPy calls, and a
    block has as many rounds as its busiest bin has visits.  The default
    bin side gives tens of bins (16 to 41 at ``d = 1`` for horizons 2^12
    to 2^16), and the rounds run 4 to 8 times faster than a per-step
    loop.  With very few bins they are slower: ``bin_rate`` 0.01 gives 2
    bins at ``d = 1``, one of them holding over nine tenths of the
    contexts, so nearly every round is one step, and a run at 2^16 takes
    about twice as long as a per-step loop.  From ``bin_rate`` 0.1 (4
    bins) up, the rounds are the faster.
    """
    check_binned_ucb_params(exploration, bin_rate, env.d)
    started = time.perf_counter()
    rng = np.random.default_rng(int(seed))
    d = env.d
    if bin_rate is None:
        delta_bin = horizon ** (-1.0 / (2 + d))
    else:
        delta_bin = horizon**-bin_rate
    lattice = GridLattice(d=d, delta=delta_bin, cells_per_axis=math.ceil(1.0 / delta_bin))
    counts = np.zeros((lattice.n_cubes, env.n_arms), dtype=np.int64)
    sums = np.zeros((lattice.n_cubes, env.n_arms))
    # log_visits[v] == math.log(v) bit for bit; entry 0 is read only for a
    # bin with no visits, whose arms are all unpulled
    log_visits = np.zeros(horizon + 1)
    log_visits[1:] = np.fromiter(map(math.log, range(1, horizon + 1)), float, horizon)

    regret = np.empty(horizon)
    inferior = np.empty(horizon, dtype=bool)
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
        # the block's steps in round order; round k is order[bounds[k]:bounds[k + 1]]
        order, bounds = _rounds(flat)
        u = rng.random(n)[order]
        bins = flat[order]
        round_means = means[:, order]
        cols = np.arange(n)
        arms = np.empty(n, dtype=np.int64)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            b = bins[lo:hi]
            arm = _ucb_choose(counts[b], sums[b], exploration, log_visits)
            y = env.rewards(round_means[arm, cols[lo:hi]], u[lo:hi])
            counts[b, arm] += 1
            sums[b, arm] += y
            arms[lo:hi] = arm
        arm_ix = np.empty(n, dtype=np.int64)
        arm_ix[order] = arms
        regret[pos : pos + n] = means.max(axis=0) - means[arm_ix, cols]
        inferior[pos : pos + n] = arm_ix != means.argmax(axis=0)
        pos += n

    return RunResult.from_steps(
        "binned_ucb", env.name, seed, regret, inferior, checkpoints, started,
        meta={"delta_bin": delta_bin, "n_bins": lattice.n_cubes},
    )


def _rounds(flat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """A block's steps in round order, and the bounds of the rounds.

    Round ``r`` holds every bin's ``r``-th step of the block, so no two
    steps of a round share a bin.
    """
    order = np.argsort(flat, kind="stable")
    ranked = flat[order]
    ix = np.arange(len(flat))
    first = np.ones(len(flat), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    rank = ix - np.maximum.accumulate(np.where(first, ix, 0))
    return order[np.argsort(rank, kind="stable")], [0, *np.cumsum(np.bincount(rank)).tolist()]


def _ucb_choose(counts: np.ndarray, sums: np.ndarray, exploration: float, log_visits: np.ndarray) -> np.ndarray:
    """Each row's arm: its first unpulled arm, else the first maximum UCB score."""
    pulled = np.maximum(counts, 1)
    score = sums / pulled + np.sqrt(exploration * log_visits[counts.sum(axis=1)][:, None] / pulled)
    score[counts == 0] = np.inf
    return score.argmax(axis=1)

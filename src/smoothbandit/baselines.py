"""Reference policies: binned UCB, uniform randomization, and the oracle.

Binned UCB keeps an isolated UCB1 in every bin of a cube lattice over the
contexts, the no-sharing extreme of the smoothness scale.  Its bins never
read each other's state, and neither do separate runs, so
``run_binned_ucb_batch`` computes many runs together: block ``k`` of every
run runs in rounds across all the runs' bins, and round ``r`` chooses and
updates every (run, bin) key's ``r``-th step of the block in one
vectorized pass, with the arithmetic of a step-by-step loop (``log`` from
a table of ``math.log``, first-maximum ties).  So a seeded run's regret
is that of the loop, value for value, alone or in any batch;
``run_binned_ucb`` is the batch of one.  Each step's reward is the
instance's reward law at one uniform, drawn per block in step order,
whatever the law.  A block computes, before its rounds, every step's
exploration term and its reward under every arm, so a round only reads
slices of those tables.  Very few bins mean many short rounds and a
slower run; see ``run_binned_ucb_batch``.  Uniform and oracle pick every
step's arm up front and share one fixed-rule runner.  All three score
their steps with ``environments.step_outcomes``.
"""

from __future__ import annotations

import math
import numbers
import time

import numpy as np

from .environments import Instance, first_max, step_outcomes
from .geometry import GridLattice
from .results import CheckpointTally, RunResult, normalize_checkpoints

# Steps whose contexts and reward uniforms binned UCB draws at once.  A
# constant, not a setting: the block size fixes the order of the random
# draws, and so the regret of a seeded run.
_UCB_BLOCK = 4096
# Most steps of one block that a binned-UCB batch stacks across its runs;
# it bounds the batch's memory and changes no result.
_UCB_STACK = 16 * _UCB_BLOCK


def run_uniform(env: Instance, horizon: int, seed: int, checkpoints=None) -> RunResult:
    """Uniformly random arms for the whole horizon (fully vectorized)."""

    def choose(rng, means):
        return np.minimum((rng.random(horizon) * env.n_arms).astype(np.int64), env.n_arms - 1)

    return _run_fixed_rule("uniform", choose, env, horizon, seed, checkpoints)


def run_oracle(env: Instance, horizon: int, seed: int, checkpoints=None) -> RunResult:
    """Always the optimal arm; zero regret by construction."""
    return _run_fixed_rule("oracle", lambda rng, means: first_max(means), env, horizon, seed, checkpoints)


def _run_fixed_rule(policy: str, choose, env: Instance, horizon: int, seed: int, checkpoints) -> RunResult:
    """Run a rule that picks every step's arm up front, ``choose(rng, means) -> arm_ix``.

    Normalizes the checkpoints, then draws the contexts, then whatever
    ``choose`` draws.  The rule reads no reward, so none is drawn.
    """
    started = time.perf_counter()
    tally = CheckpointTally(normalize_checkpoints(checkpoints, horizon))
    rng = np.random.default_rng(int(seed))
    means = env.means_matrix(env.sample_contexts(rng, horizon))
    regret, inferior, _ = step_outcomes(means, choose(rng, means))
    tally.add(regret, inferior)
    return RunResult.from_tally(policy, env.name, seed, tally, time.perf_counter() - started)


def check_binned_ucb_params(d: int, exploration=2.0, bin_rate=None) -> None:
    """Raise ``ValueError`` naming the first binned-UCB parameter out of range.

    ``exploration`` must be a finite number >= 0 and ``bin_rate`` either
    None or a finite number > 0, at most ``1 / d`` for the context
    dimension ``d``.  A NaN exploration would make every score NaN and the
    arm choice meaningless; a negative one would take the square root of a
    negative number.  A ``bin_rate`` above ``1 / d`` asks for more bins
    (about ``horizon**(bin_rate * d)``) than there are steps, and soon for
    more memory than the host has.
    """
    if not (isinstance(exploration, numbers.Real) and math.isfinite(exploration) and exploration >= 0):
        raise ValueError(f"exploration must be a finite number >= 0, got {exploration!r}")
    if bin_rate is not None and not (
        isinstance(bin_rate, numbers.Real) and math.isfinite(bin_rate) and bin_rate > 0
    ):
        raise ValueError(f"bin_rate must be None or a finite number > 0, got {bin_rate!r}")
    if bin_rate is not None and bin_rate > 1.0 / d:
        raise ValueError(
            f"bin_rate must be at most 1/d = {1.0 / d:g} (more bins than steps otherwise), got {bin_rate!r}"
        )


class RunError(RuntimeError):
    """A run of a binned-UCB batch failed; ``index`` is its place in the batch."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def run_binned_ucb(
    env: Instance,
    horizon: int,
    seed: int,
    checkpoints=None,
    exploration: float = 2.0,
    bin_rate: float | None = None,
) -> RunResult:
    """Isolated UCB per context bin: the batch of one run; see ``run_binned_ucb_batch``.

    The bin side defaults to horizon**(-1/(2+d)), the calibration that is
    rate-optimal when the reward functions are merely Lipschitz; it
    deliberately ignores any extra smoothness.  In each bin, unpulled arms
    go first in arm order; afterwards the arm with the highest mean plus
    sqrt(exploration * log(visits) / count) wins, ties to the earliest arm.
    ``visits`` is the bin's own step count, so each bin is a bandit fed
    only its own steps.
    """
    return run_binned_ucb_batch(env, [(horizon, seed)], checkpoints, exploration, bin_rate)[0]


def run_binned_ucb_batch(
    env: Instance,
    runs,
    checkpoints=None,
    exploration: float = 2.0,
    bin_rate: float | None = None,
) -> list[RunResult]:
    """Binned UCB for each ``(horizon, seed)`` of ``runs``, computed together.

    Each run has its own lattice, bin side (see ``run_binned_ucb``) and
    generator, and its results are those of the run alone, value for value.
    A step depends only on the earlier steps of its own bin, so each block
    of steps runs in rounds: round ``r`` makes the ``r``-th visit of the
    block to every (run, bin) key at once, with one vectorized
    choose-and-update.  Block ``k`` of every run still going is stacked
    under the same rounds; keys of different runs never meet.  The
    arithmetic is that of a step-by-step loop, value for value: ``log`` is
    read from a table of ``math.log(v)``, division and square root are
    correctly rounded, ``argmax`` takes the first maximum, and the keys of
    a round are distinct, so each bin's sums add in step order.  A step's
    bin visits are its key's visits before the block plus its round, so
    each block first tabulates, in round order, every step's ``exploration
    * log(visits)`` and its reward under every arm, the latter from one
    ``env.rewards`` call; a round reads its steps' slices and picks the
    chosen arm's reward by flat index, for any number of arms.  A run's
    block draws its contexts, then one uniform per step in step order,
    from the run's own generator, and the reward law maps each (mean,
    uniform) pair on its own, so the rewards are those of a per-step loop
    that draws them one step at a time.  Runs are taken in consecutive
    chunks whose blocks stack at most ``_UCB_STACK`` steps; the chunking
    changes no result.

    Checkpoints are normalized for every run before any run starts, and
    each run's cumulative regret and inferior count are kept at its
    checkpoints only (``CheckpointTally``).  ``wall_time`` is the batch's
    elapsed time split across its runs in proportion to their horizons,
    so the runs' wall times add up to the batch's.  A failure while a run
    draws its contexts or means (an off-lattice context, say) raises
    ``RunError`` with the run's index in ``runs``.

    Cost: each round pays the fixed overhead of about a dozen NumPy calls
    (gathers of the counts and sums, the choice, two scatter-adds and two
    table reads), and a stacked block has as many rounds as its busiest key
    has visits.  The reward law runs once a block, not once a round.  The
    default bin side gives tens of bins (16 to 41 at ``d = 1`` for
    horizons 2^12 to 2^16), so a lone run's block has a few hundred rounds
    of a few dozen steps each.  Stacked, the rounds of the runs overlap:
    two reps at each horizon from 2^12 to 2^16 take 2,538 rounds together
    and 9,413 one by one.  With very few bins the rounds are short and
    many: ``bin_rate`` 0.01 gives 2 bins at ``d = 1``, one of them holding
    over nine tenths of the contexts, so nearly every round of a lone run
    is one step, and a run at 2^16 takes longer than a per-step loop.  The
    tables add two floats per step and one per (step, arm) to a block's
    memory.
    """
    check_binned_ucb_params(env.d, exploration, bin_rate)
    started = time.perf_counter()
    runs = [(int(horizon), int(seed)) for horizon, seed in runs]
    tallies = [CheckpointTally(normalize_checkpoints(checkpoints, horizon)) for horizon, _ in runs]
    out = []
    first = 0
    while first < len(runs):
        stop, stacked = first + 1, min(_UCB_BLOCK, runs[first][0])
        while stop < len(runs) and stacked + min(_UCB_BLOCK, runs[stop][0]) <= _UCB_STACK:
            stacked += min(_UCB_BLOCK, runs[stop][0])
            stop += 1
        out += _run_chunk(env, runs[first:stop], tallies[first:stop], first, exploration, bin_rate)
        first = stop
    elapsed = time.perf_counter() - started
    steps = sum(horizon for horizon, _ in runs)
    for run in out:
        run.wall_time = elapsed * run.horizon / steps
    return out


def _run_chunk(env, runs, tallies, first, exploration, bin_rate) -> list[RunResult]:
    """The runs of one chunk, block by block; ``first`` is the chunk's index in the batch."""
    d, n_arms = env.d, env.n_arms
    lattices = []
    for horizon, _ in runs:
        delta_bin = horizon ** (-1.0 / (2 + d)) if bin_rate is None else horizon**-bin_rate
        lattices.append(GridLattice(d=d, delta=delta_bin, cells_per_axis=math.ceil(1.0 / delta_bin)))
    # run i's bins are keys offsets[i] .. offsets[i + 1] - 1 of the shared state
    offsets = np.cumsum([0] + [lattice.n_cubes for lattice in lattices])
    counts = np.zeros((offsets[-1], n_arms), dtype=np.int64)
    sums = np.zeros((offsets[-1], n_arms))
    visits = np.zeros(offsets[-1], dtype=np.int64)
    log_visits = np.zeros(1)
    # (key, arm) cells, for the updates
    flat_counts, flat_sums = counts.reshape(-1), sums.reshape(-1)
    rngs = [np.random.default_rng(seed) for _, seed in runs]

    for pos in range(0, max(horizon for horizon, _ in runs), _UCB_BLOCK):
        live = [i for i, (horizon, _) in enumerate(runs) if horizon > pos]
        keys, means, u = [], [], []
        for i in live:
            n = min(_UCB_BLOCK, runs[i][0] - pos)
            try:
                X = env.sample_contexts(rngs[i], n)
                flat = lattices[i].cube_index(X)
                off = np.flatnonzero(flat < 0)
                if len(off):
                    raise RuntimeError(f"context {X[off[0]]} at step {pos + off[0] + 1} lies off the bin lattice")
                means.append(env.means_matrix(X))
            except Exception as exc:
                raise RunError(first + i, str(exc)) from exc
            keys.append(flat + offsets[i])
            u.append(rngs[i].random(n))
        ends = np.cumsum([0] + [len(k) for k in keys])
        keys, means, u = np.concatenate(keys), np.concatenate(means, axis=1), np.concatenate(u)
        # the stacked steps in round order; round r is order[bounds[r]:bounds[r + 1]]
        order, bounds = _rounds(keys)
        keys = keys[order]
        # A step's visits are its key's visits before the block plus its
        # round, which grows them by at most one a round.  Tables in round
        # order: each step's exploration * log(visits), and its reward
        # under every arm, step j's under arm a at flat j * n_arms + a.
        log_visits = _log_table(log_visits, int(visits.max()) + len(bounds))
        rank = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        explore = exploration * log_visits[visits[keys] + rank]
        stepped = means.T[order]
        rewards = env.rewards(stepped, np.broadcast_to(u[order, None], stepped.shape)).reshape(-1)
        visits += np.bincount(keys, minlength=len(visits))
        del u, rank, stepped
        row = np.arange(0, len(rewards), n_arms)
        arms = np.empty(len(order), dtype=np.int64)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            b = keys[lo:hi]
            arm = _ucb_choose(counts.take(b, axis=0), sums.take(b, axis=0), explore[lo:hi])
            cell = b * n_arms + arm
            flat_counts[cell] += 1
            flat_sums[cell] += rewards.take(row[lo:hi] + arm)
            arms[lo:hi] = arm
        arm_ix = np.empty_like(arms)
        arm_ix[order] = arms
        del keys, order, arms, explore, rewards, row
        regret, inferior, _ = step_outcomes(means, arm_ix)
        del means, arm_ix
        for i, lo, hi in zip(live, ends[:-1], ends[1:]):
            tallies[i].add(regret[lo:hi], inferior[lo:hi])

    return [
        RunResult.from_tally(
            "binned_ucb", env.name, seed, tally, 0.0,
            meta={"delta_bin": lattice.delta, "n_bins": lattice.n_cubes},
        )
        for (_, seed), tally, lattice in zip(runs, tallies, lattices)
    ]


def _rounds(keys: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """A block's steps in round order, and the bounds of the rounds.

    Round ``r`` holds every key's ``r``-th step of the block, so no two
    steps of a round share a key.  Both sorts are stable, so their result
    is unique; keys and ranks below 2^16 sort as ``uint16``, for which
    NumPy's stable sort is a radix sort.
    """
    order = np.argsort(_narrow(keys), kind="stable")
    ranked = keys[order]
    ix = np.arange(len(keys))
    first = np.ones(len(keys), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    rank = ix - np.maximum.accumulate(np.where(first, ix, 0))
    return order[np.argsort(_narrow(rank), kind="stable")], [0, *np.cumsum(np.bincount(rank)).tolist()]


def _narrow(values: np.ndarray) -> np.ndarray:
    """Non-negative ``values`` as ``uint16`` when they all fit."""
    return values.astype(np.uint16) if values.max() < 1 << 16 else values


def _log_table(table: np.ndarray, n: int) -> np.ndarray:
    """``table`` grown to at least ``n`` entries, entry ``v`` being ``math.log(v)`` bit for bit.

    Entry 0 is read only for a bin with no visits, whose arms are all
    unpulled; start from ``np.zeros(1)``.
    """
    if len(table) >= n:
        return table
    return np.concatenate((table, np.fromiter(map(math.log, range(len(table), n)), float, n - len(table))))


def _ucb_choose(counts: np.ndarray, sums: np.ndarray, explore: np.ndarray) -> np.ndarray:
    """Each row's arm: its first unpulled arm, else the first maximum UCB score.

    ``explore`` is each row's ``exploration * log(visits)``, with
    ``visits`` its bin's step count; the score is ``sums / counts +
    sqrt(explore / counts)``.
    """
    pulled = np.maximum(counts, 1)
    score = sums / pulled + np.sqrt(explore[:, None] / pulled)
    score[counts == 0] = np.inf
    return score.argmax(axis=1)

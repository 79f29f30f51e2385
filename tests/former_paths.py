"""Test oracles: the library's former per-step and per-round paths, kept verbatim.

Each function is the body the library ran before its NumPy-overhead
rewrites, and ``restore`` monkeypatches all of them back in, so that a test
can compare a run of the shipped code with the same run on the former
paths:

- ``means_matrix``: one ``mean`` call, and so one ``tau`` evaluation, per arm;
- ``first_max``: ``np.argmax(values, axis=0)``;
- ``step_outcomes``: the three-line expression the elimination policy and
  both baseline runners repeated;
- ``raw_moments``: block running sums by a Python loop over block positions;
- ``run_chunk``: binned-UCB rounds that gather visits, read the log table and
  call ``env.rewards`` once a round.
"""

import math

import numpy as np

from smoothbandit import baselines, environments, localpoly, policy
from smoothbandit.geometry import GridLattice
from smoothbandit.results import RunResult


def means_matrix(self, points):
    points = np.atleast_2d(points)
    return np.stack([self.mean(points, a) for a in self.arms])


def first_max(values):
    return np.argmax(values, axis=0)


def step_outcomes(means, arm_ix):
    chosen = means[arm_ix, np.arange(len(arm_ix))]
    regret = means.max(axis=0) - chosen
    inferior = arm_ix != means.argmax(axis=0)
    return regret, inferior, chosen


def raw_moments(self, pairs, factors, columns, c0, c1):
    q0, q1 = self.block_start[c0], self.block_end[c1 - 1]
    pick = np.flatnonzero((pairs.first_block < c1) & (pairs.last_block >= c0))
    lo = np.maximum(pairs.first_block[pick], c0)
    count = np.minimum(pairs.last_block[pick], c1 - 1) - lo + 1
    pair, block = np.repeat(pick, count), localpoly._ranges(lo, count)
    add_at = np.maximum(pairs.start[pair], self.block_start[block]) - q0
    ends = pairs.stop[pair] < self.block_end[block]
    sub_at = pairs.stop[pair][ends] - q0
    v = (pairs.x[pair] - self.origin[block]) / self.h
    v_powers = [None, v]
    for _ in range(2, max(q for _, q in columns) + 1):
        v_powers.append(v_powers[-1] * v)
    n = q1 - q0
    raw = np.empty((n, len(columns)))
    gathered = {}
    for k, (factor, q) in enumerate(columns):
        if factor not in gathered:
            gathered[factor] = None if factors[factor] is None else factors[factor][pair]
        term = localpoly._product(gathered[factor], v_powers[q])
        ended = None if term is None else term[ends]
        raw[:, k] = localpoly._bincount(add_at, term, n) - localpoly._bincount(sub_at, ended, n)
    return running_sums(raw, np.arange(q0, q1) - self.block_start[self.block_of[q0:q1]])


def running_sums(raw, step):
    """Running sums of the rows of ``raw`` within blocks, ``step`` being each row's position in its block."""
    raw = raw.copy()
    for o in range(1, int(step.max()) + 1):
        i = np.flatnonzero(step == o)
        raw[i] += raw[i - 1]
    return raw


def ucb_choose(counts, sums, exploration, log_visits):
    pulled = np.maximum(counts, 1)
    score = sums / pulled + np.sqrt(exploration * log_visits[:, None] / pulled)
    score[counts == 0] = np.inf
    return score.argmax(axis=1)


def run_chunk(env, runs, tallies, first, exploration, bin_rate):
    d, n_arms = env.d, env.n_arms
    lattices = []
    for horizon, _ in runs:
        delta_bin = horizon ** (-1.0 / (2 + d)) if bin_rate is None else horizon**-bin_rate
        lattices.append(GridLattice(d=d, delta=delta_bin, cells_per_axis=math.ceil(1.0 / delta_bin)))
    offsets = np.cumsum([0] + [lattice.n_cubes for lattice in lattices])
    counts = np.zeros((offsets[-1], n_arms), dtype=np.int64)
    sums = np.zeros((offsets[-1], n_arms))
    visits = np.zeros(offsets[-1], dtype=np.int64)
    log_visits = np.zeros(1)
    flat_counts, flat_sums = counts.reshape(-1), sums.reshape(-1)
    rngs = [np.random.default_rng(seed) for _, seed in runs]

    for pos in range(0, max(horizon for horizon, _ in runs), baselines._UCB_BLOCK):
        live = [i for i, (horizon, _) in enumerate(runs) if horizon > pos]
        keys, means, u = [], [], []
        for i in live:
            n = min(baselines._UCB_BLOCK, runs[i][0] - pos)
            try:
                X = env.sample_contexts(rngs[i], n)
                flat = lattices[i].cube_index(X)
                off = np.flatnonzero(flat < 0)
                if len(off):
                    raise RuntimeError(f"context {X[off[0]]} at step {pos + off[0] + 1} lies off the bin lattice")
                means.append(env.means_matrix(X))
            except Exception as exc:
                raise baselines.RunError(first + i, str(exc)) from exc
            keys.append(flat + offsets[i])
            u.append(rngs[i].random(n))
        ends = np.cumsum([0] + [len(k) for k in keys])
        keys, means, u = np.concatenate(keys), np.concatenate(means, axis=1), np.concatenate(u)
        order, bounds = baselines._rounds(keys)
        keys, u = keys[order], u[order]
        log_visits = baselines._log_table(log_visits, int(visits.max()) + len(bounds))
        arms = np.empty(len(order), dtype=np.int64)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            b = keys[lo:hi]
            arm = ucb_choose(counts.take(b, axis=0), sums.take(b, axis=0), exploration, log_visits[visits[b]])
            y = env.rewards(means[arm, order[lo:hi]], u[lo:hi])
            cell = b * n_arms + arm
            flat_counts[cell] += 1
            flat_sums[cell] += y
            visits[b] += 1
            arms[lo:hi] = arm
        arm_ix = np.empty_like(arms)
        arm_ix[order] = arms
        regret, inferior, _ = step_outcomes(means, arm_ix)
        for i, lo, hi in zip(live, ends[:-1], ends[1:]):
            tallies[i].add(regret[lo:hi], inferior[lo:hi])

    return [
        RunResult.from_tally(
            "binned_ucb", env.name, seed, tally, 0.0,
            meta={"delta_bin": lattice.delta, "n_bins": lattice.n_cubes},
        )
        for (_, seed), tally, lattice in zip(runs, tallies, lattices)
    ]


def restore(monkeypatch) -> None:
    """Put every former path back in place of the shipped one, for one test."""
    monkeypatch.setattr(environments.Instance, "means_matrix", means_matrix)
    for module in (environments, baselines):
        monkeypatch.setattr(module, "first_max", first_max)
    for module in (policy, baselines):
        monkeypatch.setattr(module, "step_outcomes", step_outcomes)
    monkeypatch.setattr(localpoly._Sweep, "raw_moments", raw_moments)
    monkeypatch.setattr(baselines, "_run_chunk", run_chunk)

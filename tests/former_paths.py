"""Test oracles: the library's former per-step and per-round paths, kept verbatim.

Each function is the body the library ran before its NumPy-overhead
rewrites, and ``restore`` monkeypatches all of them back in, so that a test
can compare a run of the shipped code with the same run on the former
paths:

- ``first_max``: ``np.argmax(values, axis=0)``;
- ``step_outcomes``: the three-line expression the elimination policy and
  both baseline runners repeated;
- ``pairs`` and ``runs``: every run end placed by ``np.searchsorted`` over
  one search key of all rows, then fixed by the rule, ``d = 1`` included;
- ``block_fits``: the fit stage (binomial shift, eigenvalue filter, solve)
  run once per raw-moment chunk, and one sweep per problem;
- ``raw_moments``: block running sums by a Python loop over block positions;
- ``solve``: the fits by one batched ``np.linalg.solve`` call (LAPACK's LU
  with partial pivoting, one matrix at a time) on the non-degenerate systems;
- ``run_chunk``: binned-UCB rounds that gather visits, read the log table and
  call ``env.rewards`` once a round;
- ``support_cube_mask``: every mixed cube's quadrature points built in one
  array, and the in-cube share gathered through ``lattice.cube_ids()``;
- ``classify``: the bump-grid cube classes from one set of ``(n_cubes, d)``
  arrays over every cube of the lattice.
"""

import math

import numpy as np

from smoothbandit import baselines, environments, localpoly, policy
from smoothbandit.environments import _CLASSIFY_MARGIN
from smoothbandit.geometry import (
    CUBE_IN,
    CUBE_MIXED,
    CUBE_OUT,
    GridLattice,
    _classifier,
    _midpoint_axis,
    _midpoint_offsets,
    unit_cube_support,
)
from smoothbandit.results import RunResult


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
    v = (pairs.x[pair] - self.origin[block]) / self.block_h[block]
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


def runs(self, row, x, w, p0, p1):
    c = self.last
    first, end = self.row_start[row], self.row_end[row]
    # row r's last coordinates, clipped to [low, low + stride - 1], plus r * stride
    low = c.min() - 1.0
    stride = c.max() - low + 2.0

    def search_key(r, value):
        return r * stride + (np.clip(value, low, low + stride - 1.0) - low)

    keys = search_key(np.repeat(np.arange(len(self.row_start)), self.row_end - self.row_start), c)[p0:p1]
    start = np.clip(p0 + np.searchsorted(keys, search_key(row, x - w), side="left"), first, end)
    stop = np.clip(p0 + np.searchsorted(keys, search_key(row, x + w), side="right"), first, end)

    def settle(pos, move, test):
        while (hit := test(pos)).any():
            pos[hit] += move

    top = len(c) - 1
    settle(start, -1, lambda p: (p > first) & (x <= c[p - 1] + w))
    settle(start, 1, lambda p: (p < end) & (x > c[np.minimum(p, top)] + w))
    settle(stop, -1, lambda p: (p > first) & (c[p - 1] - w > x))
    settle(stop, 1, lambda p: (p < end) & (c[np.minimum(p, top)] - w <= x))
    return start, np.maximum(start, stop)


def pairs(self, r0, r1):
    points, rewards = self.points, self.rewards
    width = self.hi[r0:r1] - self.lo[r0:r1]
    row = np.repeat(np.arange(r0, r1), width)
    sample = localpoly._ranges(self.lo[r0:r1], width)
    offset = points[sample, :-1] - self.keys[row]
    r2 = np.zeros(len(row))
    for k in range(offset.shape[1]):
        r2 += offset[:, k] * offset[:, k]
    h = self.row_h[row]
    near = r2 <= h * h
    row, sample, offset, r2, h = row[near], sample[near], offset[near], r2[near], h[near]
    x = points[sample, -1]
    start, stop = runs(self, row, x, np.sqrt(h * h - r2), self.row_start[r0], self.row_end[r1 - 1])
    hit = stop > start
    start, stop = start[hit], stop[hit]
    return localpoly._Pairs(offset[hit] / h[hit, None], x[hit], rewards[sample[hit]], start, stop,
                            self.block_of[start], self.block_of[stop - 1])


def block_fits(problems, basis):
    offset = 0
    for i, problem in enumerate(problems):
        for index, counts, gram, coef, lam, degenerate in _lone_block_fits(*problem, basis):
            yield index + offset, counts, gram, coef, {i: float(lam.min())}, degenerate
        offset += len(problem[0])


def _lone_block_fits(centers, points, rewards, h, basis):
    if len(centers) == 0:
        return
    eig_tol = localpoly.default_eig_tol(basis)
    gram_plan, rhs_plan, columns, entry = localpoly._plans(basis)
    K = len(gram_plan.columns)
    sweep = localpoly._Sweep([(centers, points, rewards, h)], localpoly._origin_span(basis))
    for r0, r1 in localpoly._spans(sweep.hi - sweep.lo + sweep.row_end - sweep.row_start, localpoly._CHUNK):
        pairs = sweep.pairs(r0, r1)
        p0, p1 = sweep.row_start[r0], sweep.row_end[r1 - 1]
        counts = localpoly._coverage(pairs.start - p0, pairs.stop - p0, p1 - p0)
        key_powers = localpoly._monomials(pairs.u, {key for (key, _), _ in columns})
        factors = {(key, reward): localpoly._product(key_powers[key], pairs.y if reward else None)
                   for (key, reward), _ in columns}
        b0, b1 = sweep.block_of[p0], sweep.block_of[p1 - 1] + 1
        terms = localpoly._coverage(pairs.first_block - b0, pairs.last_block + 1 - b0, b1 - b0)
        queries = sweep.block_end[b0:b1] - sweep.block_start[b0:b1]
        for c0, c1 in localpoly._spans(terms + basis.M * queries, localpoly._CHUNK):
            c0, c1 = b0 + c0, b0 + c1
            q0, q1 = sweep.block_start[c0], sweep.block_end[c1 - 1]
            raw = sweep.raw_moments(pairs, factors, columns, c0, c1)
            s = sweep.shift[q0:q1]
            gram = gram_plan.centered(raw[:, :K], s)[:, entry]
            rhs = rhs_plan.centered(raw[:, K:], s)
            count = counts[q0 - p0:q1 - p0]
            gram[count == 0] = 0.0
            lam = localpoly._eigen_filter(gram, eig_tol)
            degenerate = lam < eig_tol
            yield sweep.order[q0:q1], count, gram, localpoly._solve(gram, rhs, degenerate), lam, degenerate


def running_sums(raw, step):
    """Running sums of the rows of ``raw`` within blocks, ``step`` being each row's position in its block."""
    raw = raw.copy()
    for o in range(1, int(step.max()) + 1):
        i = np.flatnonzero(step == o)
        raw[i] += raw[i - 1]
    return raw


def solve(gram, rhs, degenerate):
    coef = np.zeros(rhs.shape)
    ok = ~degenerate
    if ok.any():
        coef[ok] = np.linalg.solve(gram[ok], rhs[ok][:, :, None])[:, :, 0]
    return coef


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


def support_cube_mask(lattice, support, resolution=8, mass_threshold=1e-9):
    if support is None:
        support = unit_cube_support
    d, cpa = lattice.d, lattice.cells_per_axis
    classify = _classifier(support)
    if classify is None:
        classes = np.full(lattice.n_cubes, CUBE_MIXED, dtype=np.int8)
    else:
        classes = np.asarray(classify(lattice))
    corners = (np.arange(cpa) + 0.5) * lattice.delta - lattice.delta / 2.0
    coords = corners[:, None] + lattice.delta * ((_midpoint_axis(resolution) + 1.0) / 2.0)[None, :]
    in_unit = np.count_nonzero((coords >= 0.0) & (coords <= 1.0), axis=1)
    inside = in_unit[lattice.cube_ids()].prod(axis=1)
    fraction = np.where(classes == CUBE_IN, inside / resolution**d, 0.0)
    mixed = np.nonzero(classes == CUBE_MIXED)[0]
    if len(mixed):
        offsets = (_midpoint_offsets(d, resolution) + 1.0) / 2.0  # in [0,1]^d
        corners = lattice.centers(mixed) - lattice.delta / 2.0
        points = (corners[:, None, :] + lattice.delta * offsets[None, :, :]).reshape(-1, d)
        member = np.asarray(support(points), dtype=bool).reshape(len(mixed), -1)
        fraction[mixed] = member.mean(axis=1)
    return fraction > mass_threshold


def classify(self, lattice):
    d, q = self.d, self.q
    cube = lattice.cube_ids()
    lo = np.clip(cube * lattice.delta - _CLASSIFY_MARGIN, 0.0, 1.0)
    hi = np.clip((cube + 1) * lattice.delta + _CLASSIFY_MARGIN, 0.0, 1.0)
    cell_lo = np.clip(np.floor(lo * q).astype(np.int64), 0, q - 1)
    cell_hi = np.clip(np.floor(hi * q).astype(np.int64), 0, q - 1)
    meets_bump = np.ravel_multi_index(tuple(cell_lo.T), (q,) * d) < self.m
    only_bumps = np.ravel_multi_index(tuple(cell_hi.T), (q,) * d) < self.m
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    near = np.clip(np.rint(mid * q - 0.5), cell_lo, cell_hi)
    gap = np.maximum(np.abs((near + 0.5) / q - mid) - half, 0.0)
    nearest = np.sqrt(np.einsum("ij,ij->i", gap, gap))
    center = (cell_lo + 0.5) / q
    reach = np.maximum(center - lo, hi - center)
    farthest = np.sqrt(np.einsum("ij,ij->i", reach, reach))
    one_cell = np.all(cell_lo == cell_hi, axis=1)
    classes = np.full(lattice.n_cubes, CUBE_MIXED, dtype=np.int8)
    classes[~meets_bump] = CUBE_IN
    classes[only_bumps & (nearest > self.radius + _CLASSIFY_MARGIN)] = CUBE_OUT
    classes[only_bumps & one_cell & (farthest <= self.radius - _CLASSIFY_MARGIN)] = CUBE_IN
    return classes


def restore(monkeypatch) -> None:
    """Put every former path back in place of the shipped one, for one test."""
    for module in (environments, baselines):
        monkeypatch.setattr(module, "first_max", first_max)
    for module in (policy, baselines):
        monkeypatch.setattr(module, "step_outcomes", step_outcomes)
    monkeypatch.setattr(localpoly._Sweep, "pairs", pairs)
    monkeypatch.setattr(localpoly, "_block_fits", block_fits)
    monkeypatch.setattr(localpoly._Sweep, "raw_moments", raw_moments)
    monkeypatch.setattr(localpoly, "_solve", solve)
    monkeypatch.setattr(baselines, "_run_chunk", run_chunk)
    monkeypatch.setattr(policy, "support_cube_mask", support_cube_mask)
    monkeypatch.setattr(environments.BumpGridSupport, "_classify", classify)

"""Epoch-based elimination policy for smooth contextual bandits.

The policy lays a cube lattice over the context space and proceeds in
epochs of roughly geometrically growing length while a per-epoch accuracy
tolerance halves.  Each cube keeps the set of arms still active there.
At each epoch boundary the policy (1) screens out, per arm, cubes whose
reachable sampling region has become too irregular for a trustworthy
local polynomial fit, (2) re-estimates each arm's mean at the centers of
the cubes still randomizing it, using samples from the previous epoch
with a sample-size-matched bandwidth, all centers of an arm in one
batched call to ``localpoly.fit_at_centers``, and (3) drops screened
arms and arms beaten by more than the tolerance from each cube's set.
The stages pass one ``(n_cubes, n_arms)`` bool screen table and plain
return values; an arm that drew no samples last epoch has no bandwidth,
and that alone marks its fail-safe state.  Within an epoch the action
rule is static: every cube draws uniformly from its active arms.
``run_multi_arm`` is the one run loop; ``run_two_arm`` is its two-arm
case, reported with the explore/exploit region labels of the two-arm
formulation.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .environments import TWO_ARMS, Instance, check_dimension_and_smoothness, step_outcomes, strict_floor
from .geometry import (
    GridLattice,
    RegionMask,
    batch_weak_regularity,
    build_lattice,
    support_cube_mask,
)
from .localpoly import (
    MultiIndexBasis,
    enumerate_basis,
    fit_at_centers,
    scaled_design,  # unused here; the benchmark's tracer patches policy.scaled_design
)
from .results import EpochDiagnostics, RunResult

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PolicyConfig:
    """Inputs of the elimination policy.

    ``c_epoch`` stands in for the intractable conditioning constant in the
    epoch-length formula (any positive value below the true constant keeps
    the regret rate; smaller values lengthen epochs).  ``p`` is a lower
    bound on the probability that each arm is optimal, consumed by the
    schedule.  ``c0`` is the regularity constant of the screening test.
    """

    beta: float
    d: int
    horizon: int
    c_epoch: float = 2.0
    p: float = 0.5
    c0: float = 1.0 / 12.0
    arm_count: int = 2

    def __post_init__(self):
        check_dimension_and_smoothness(self.d, self.beta)
        for name in ("c_epoch", "p", "c0"):
            if isinstance(getattr(self, name), bool):  # JSON true would run as 1
                raise ValueError(f"{name} must be a number, got {getattr(self, name)}")
        if self.horizon < 3:
            raise ValueError(f"horizon must be >= 3, got {self.horizon}")
        if not 0 < self.c_epoch < math.inf:
            raise ValueError(f"c_epoch must be a finite positive number, got {self.c_epoch}")
        if not 0 < self.p <= 1:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if not 0 < self.c0 <= 1:
            raise ValueError(f"c0 must lie in (0, 1], got {self.c0}")
        if self.arm_count < 2:
            raise ValueError(f"need at least two arms, got {self.arm_count}")

    @property
    def degree(self) -> int:
        return strict_floor(self.beta)

    def basis(self) -> MultiIndexBasis:
        return enumerate_basis(self.d, self.degree)


# ---------------------------------------------------------------------------
# Epoch schedule


@dataclass(frozen=True)
class EpochSchedule:
    """Planned and realized epoch lengths with their accuracy tolerances.

    The planned length of epoch k is

        ceil( (2 A / p) * (log(T delta^-d) / (c_epoch eps_k^2))^((2b+d)/(2b))
              + (A^2 / (2 p^2)) * log T ),      eps_k = 2^-k,

    which reduces to the two-arm form (4/p, 2/p^2 coefficients) at A = 2.
    The last epoch is truncated so realized lengths sum to the horizon.
    """

    horizon: int
    planned: tuple[int, ...]
    realized: tuple[int, ...]
    tolerances: tuple[float, ...]
    delta: float
    degenerate: bool

    @property
    def K(self) -> int:
        return len(self.realized)


def epoch_count_bound(beta: float, d: int, horizon: int) -> int:
    """Logarithmic cap on the epoch count."""
    return math.ceil(beta * math.log(horizon) / ((2 * beta + d) * math.log(2)))


def planned_epoch_length(k: int, config: PolicyConfig, delta: float) -> int:
    arms = config.arm_count
    eps = 2.0**-k
    log_term = math.log(config.horizon * delta**-config.d)
    expo = (2 * config.beta + config.d) / (2 * config.beta)
    main = (2.0 * arms / config.p) * (log_term / (config.c_epoch * eps * eps)) ** expo
    tail = (arms * arms) / (2.0 * config.p * config.p) * math.log(config.horizon)
    return math.ceil(main + tail)


def make_schedule(config: PolicyConfig) -> EpochSchedule:
    lattice = build_lattice(config.horizon, config.beta, config.d)
    planned: list[int] = []
    total = 0
    while total < config.horizon:
        k = len(planned) + 1
        if k > 200:
            raise RuntimeError("epoch schedule failed to reach the horizon")
        n_k = planned_epoch_length(k, config, lattice.delta)
        planned.append(n_k)
        total += n_k
    realized = list(planned)
    realized[-1] -= total - config.horizon
    tolerances = tuple(2.0**-k for k in range(1, len(planned) + 1))
    degenerate = len(planned) == 1
    if degenerate:
        log.warning(
            "horizon %d is shorter than the first planned epoch (%d): pure exploration",
            config.horizon,
            planned[0],
        )
    return EpochSchedule(
        horizon=config.horizon,
        planned=tuple(planned),
        realized=tuple(realized),
        tolerances=tolerances,
        delta=lattice.delta,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Epoch simulation


def _choose_arms(table: np.ndarray, counts: np.ndarray, flat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Arm index drawn uniformly from each cube's active set, one uniform per draw.

    ``table[c]`` lists cube ``c``'s active arm indices first and
    ``counts[c]`` counts them (``_multi_arm_tables``); uniform ``u`` picks
    entry ``floor(u * count)``, clamped to the last.
    """
    k = np.minimum((u * counts[flat]).astype(np.int64), counts[flat] - 1)
    return table[flat, k]


def _static_epoch(env: Instance, rng, n, lattice, table, counts, start_t=0):
    """Simulate one epoch whose per-cube action rule is fixed.

    Consumes exactly one context draw, one action uniform, and one reward
    uniform per step (``Instance.sample_rewards``), whatever the reward
    law and the active arm sets, so the draws of a seeded run do not
    depend on its decisions.
    """
    try:
        X = env.sample_contexts(rng, n)
    except Exception as exc:
        raise RuntimeError(f"environment sampling failed at step {start_t + 1}: {exc}") from exc
    flat = lattice.cube_index(X)
    off = np.flatnonzero(flat < 0)
    if len(off):
        step = start_t + off[0] + 1
        raise RuntimeError(f"context {X[off[0]]} at step {step} lies off the cube lattice")
    arm_ix = _choose_arms(table, counts, flat, rng.random(n))
    regret, inferior, chosen = step_outcomes(env.means_matrix(X), arm_ix)
    rewards = env.sample_rewards(rng, chosen)
    return X, arm_ix, rewards, regret, inferior


# ---------------------------------------------------------------------------
# Elimination engine: per-cube active arm sets


@dataclass
class MultiArmState:
    """Per-cube active arm sets plus the last epoch's sample log; only sampled arms have a bandwidth.

    The run's ``(n_cubes, n_arms)`` tables (``active``, the screen table and
    the estimates) are column-major, so each arm's column is contiguous and
    the per-cube reductions over arms run along contiguous memory.  Every
    stage gives the same result on C-ordered tables, only more slowly.
    """

    lattice: GridLattice
    support_cubes: np.ndarray
    active: np.ndarray  # (n_cubes, n_arms) bool
    samples: dict = field(default_factory=dict)
    bandwidths: dict = field(default_factory=dict)

    def active_counts(self) -> np.ndarray:
        return self.active.sum(axis=1)

    def arm_region_mask(self, arm_index: int) -> np.ndarray:
        return self.active[:, arm_index] & self.support_cubes

    def invariants_ok(self) -> bool:
        return bool(self.active.any(axis=1)[self.support_cubes].all())


def initial_multi_state(lattice: GridLattice, support_cubes: np.ndarray, n_arms: int) -> MultiArmState:
    """Every arm active in every cube, in a column-major table (see ``MultiArmState``)."""
    return MultiArmState(lattice, support_cubes, np.ones((lattice.n_cubes, n_arms), dtype=bool, order="F"))


def screen_multi_arm(state: MultiArmState, arm_index: int, support, config: PolicyConfig) -> np.ndarray:
    """Cubes flagged inestimable for one arm by the weak-regularity screen.

    Only cubes still randomizing the arm among at least two active arms
    are tested: flagging the sole active arm of a cube would empty its arm
    set, so those cubes are left alone (the never-empty guard would
    discard the flag anyway).  An arm without samples last epoch is in the
    fail-safe state and flags no cube: the silence must not be read as
    evidence against it, and its cubes keep randomizing.
    """
    mask = np.zeros(state.lattice.n_cubes, dtype=bool)
    if arm_index not in state.bandwidths:
        return mask
    reachable = state.arm_region_mask(arm_index)
    ids = np.nonzero(reachable & (state.active_counts() >= 2))[0]
    if len(ids):
        region = RegionMask(state.lattice, reachable, support)
        radius = state.bandwidths[arm_index]
        ok = batch_weak_regularity(state.lattice.centers(ids), radius, config.c0 / 2**config.d, region)
        mask[ids[~ok]] = True
    return mask


def estimate_means_at_centers(
    state: MultiArmState, config: PolicyConfig, screened: np.ndarray
) -> tuple[np.ndarray, int, float | None]:
    """Per-arm mean estimates at centers of multi-active, unscreened cubes.

    ``screened`` is the ``(n_cubes, n_arms)`` screen table.  Returns the
    estimates, the number of degenerate fits and the smallest Gram
    eigenvalue (``None`` when nothing was fitted).  NaN marks combinations
    with no estimate: arm inactive, screened, or without samples.
    """
    eta = np.full(state.active.shape, np.nan, order="F")
    estimable = state.active & ~screened & (state.support_cubes & (state.active_counts() >= 2))[:, None]
    basis = config.basis()
    degenerate = 0
    eig_min = math.inf
    for ai, bandwidth in state.bandwidths.items():
        ids = np.nonzero(estimable[:, ai])[0]
        if len(ids) == 0:
            continue
        X, y = state.samples[ai]
        vals, degen, min_eig, _ = fit_at_centers(state.lattice.centers(ids), X, y, bandwidth, basis)
        eta[ids, ai] = vals
        degenerate += int(degen.sum())
        eig_min = min(eig_min, min_eig)
    return eta, degenerate, None if math.isinf(eig_min) else eig_min


def update_active_sets(
    state: MultiArmState, eta_hat: np.ndarray, screened: np.ndarray, tolerance: float
) -> tuple[MultiArmState, int]:
    """Remove arms flagged irregular or estimated suboptimal by the margin.

    An arm is eliminated from a cube when some other active, estimable arm
    beats its estimate by more than the tolerance, or when the cube was
    flagged by the arm's regularity screen.  A removal that would empty a
    cube's arm set is rejected and counted as an anomaly.  Returns the
    next state, without a sample log, and the anomaly count.
    """
    best = np.fmax.reduce(eta_hat, axis=1)  # NaN, and so beating nothing, where no arm has an estimate
    removal = (screened | (best[:, None] - eta_hat > tolerance)) & state.active
    would_empty = removal.any(axis=1) & ~(state.active & ~removal).any(axis=1)
    removal &= ~would_empty[:, None]
    return MultiArmState(state.lattice, state.support_cubes, state.active & ~removal), int(would_empty.sum())


update_regions = update_active_sets  # the name the benchmark's tracer patches for updates
estimate_cate_at_centers = estimate_means_at_centers  # the name it patches for estimation


def _multi_arm_tables(state: MultiArmState):
    """Each cube's active arm indices first, and their count (at least 1); see ``_choose_arms``.

    A row lists the active arms, then the inactive ones, each in arm
    order: an active arm goes to the count of active arms before it, an
    inactive one after every active arm, by the count of inactive arms
    before it.
    """
    n_cubes, n_arms = state.active.shape
    counts = state.active_counts()
    table = np.empty((n_cubes, n_arms), dtype=np.int64)
    cubes = np.arange(n_cubes)
    seen = np.zeros(n_cubes, dtype=np.int64)  # active arms before arm a
    for a in range(n_arms):
        column = state.active[:, a]
        table[cubes, np.where(column, seen, counts + (a - seen))] = a
        seen += column
    return table, np.maximum(counts, 1).astype(np.int64)


def run_multi_arm(
    env: Instance,
    config: PolicyConfig,
    seed: int,
    checkpoints=None,
    record_actions: bool = False,
) -> RunResult:
    """Execute the full elimination run with per-cube active arm sets.

    The first epoch randomizes everywhere; each later epoch starts with
    screen / estimate / update at the previous epoch's tolerance, then
    acts statically.  Returns the regret and inferior-sampling trajectory
    plus per-epoch diagnostics and the final active-arm bits per cube
    (bit ``i`` set when arm ``env.arms[i]`` is active, -1 off support).
    """
    if config.arm_count != len(env.arms):
        raise ValueError(
            f"config.arm_count={config.arm_count} does not match the instance's {len(env.arms)} arms"
        )
    if config.d != env.d:
        raise ValueError(f"config dimension {config.d} != instance dimension {env.d}")
    started = time.perf_counter()
    rng = np.random.default_rng(int(seed))
    lattice = build_lattice(config.horizon, config.beta, config.d)
    support = support_cube_mask(lattice, env.support)
    schedule = make_schedule(config)
    n_arms = len(env.arms)
    state = initial_multi_state(lattice, support, n_arms)

    regret_parts, inferior_parts, action_parts = [], [], []
    diags = []
    below_cube_total = 0
    start_t = 0
    for k, length in enumerate(schedule.realized, start=1):
        screened = np.zeros(state.active.shape, dtype=bool, order="F")
        fail_safe, anomalies, degenerate, min_eig = [], 0, 0, None
        if k >= 2:
            fail_safe = [arm for ai, arm in enumerate(env.arms) if ai not in state.bandwidths]
            for ai in range(n_arms):
                screened[:, ai] = screen_multi_arm(state, ai, env.support, config)
            eta_hat, degenerate, min_eig = estimate_means_at_centers(state, config, screened)
            state, anomalies = update_active_sets(state, eta_hat, screened, schedule.tolerances[k - 2])
            if not state.invariants_ok():
                raise RuntimeError(f"epoch {k}: a support cube has no active arm left")
        table, counts = _multi_arm_tables(state)
        X, arm_ix, rewards, regret, inferior = _static_epoch(
            env, rng, length, lattice, table, counts, start_t
        )
        below_cube_total += _log_epoch_samples(state, X, arm_ix, rewards, config, env.arms)
        regret_parts.append(regret)
        inferior_parts.append(inferior)
        if record_actions:
            action_parts.append(np.asarray(env.arms)[arm_ix])
        active = state.active & support[:, None]
        arm_counts = active.sum(axis=1)
        diags.append(
            EpochDiagnostics(
                epoch=k,
                start=start_t,
                length=length,
                tolerance=schedule.tolerances[k - 1],
                explore_cubes=int((arm_counts >= 2).sum()),
                exploit_cubes=dict(zip(env.arms, active[arm_counts == 1].sum(axis=0).tolist())),
                screened_cubes=dict(zip(env.arms, screened.sum(axis=0).tolist())),
                anomalies=anomalies,
                degenerate_fits=degenerate,
                min_eig=min_eig,
                sample_counts={arm: len(state.samples[ai][1]) for ai, arm in enumerate(env.arms)},
                bandwidths={env.arms[ai]: bw for ai, bw in state.bandwidths.items()},
                fail_safe_arms=fail_safe,
                active_cubes=dict(zip(env.arms, active.sum(axis=0).tolist())),
            )
        )
        start_t += length

    active_bits = (state.active.astype(np.int64) * (1 << np.arange(n_arms))).sum(axis=1)
    active_bits[~state.support_cubes] = -1
    regret, inferior = np.concatenate(regret_parts), np.concatenate(inferior_parts)
    return RunResult.from_steps(
        "smooth_multi_arm", env.name, seed, regret, inferior, checkpoints, started,
        epochs=diags,
        final_labels=active_bits,
        actions=np.concatenate(action_parts) if record_actions else None,
        meta={
            "epochs": schedule.K,
            "delta": schedule.delta,
            "n_cubes": lattice.n_cubes,
            "anomalies": sum(e.anomalies for e in diags),
            "bandwidth_below_cube": below_cube_total,
            "schedule_degenerate": schedule.degenerate,
        },
    )


def _log_epoch_samples(state: MultiArmState, X, arm_ix, rewards, config, arms):
    """Store each arm's samples and bandwidth; return how many fell below the cube diagonal."""
    state.samples = {}
    state.bandwidths = {}
    exponent = -1.0 / (2 * config.beta + config.d)
    diagonal = math.sqrt(config.d) * state.lattice.delta
    below = 0
    for ai, arm in enumerate(arms):
        drawn = np.flatnonzero(arm_ix == ai)
        count = len(drawn)
        state.samples[ai] = (X.take(drawn, axis=0), rewards.take(drawn))
        if count > 0:
            bw = count**exponent
            state.bandwidths[ai] = bw
            if bw < diagonal:
                below += 1
                log.warning("bandwidth %.4g for arm %s fell below the cube diagonal %.4g", bw, arm, diagonal)
    return below


# Two-arm label indexed by active-arm bits + 1: bits -1 (off support) -> 3,
# 1 (only +1 active) -> 1, 2 (only -1 active) -> 2, 3 (both) -> 0 explore.
# Bits 0, an empty arm set, cannot pass the run loop's invariant check.
_TWO_ARM_LABELS = np.array([3, -1, 1, 2, 0], dtype=np.int8)


def run_two_arm(
    env: Instance,
    config: PolicyConfig,
    seed: int,
    checkpoints=None,
    record_actions: bool = False,
) -> RunResult:
    """Execute the elimination run on a two-arm instance with arms (+1, -1).

    This is ``run_multi_arm`` at two arms; only the policy name and the
    final labels differ, which use the per-cube code 0 explore, 1 exploit
    +1, 2 exploit -1, 3 off-support.
    """
    if tuple(env.arms) != TWO_ARMS:
        raise ValueError("two-arm runs require arms (+1, -1)")
    if config.arm_count != 2:
        raise ValueError("config.arm_count must be 2 for two-arm runs")
    result = run_multi_arm(env, config, seed, checkpoints, record_actions)
    return replace(
        result, policy="smooth_two_arm", final_labels=_TWO_ARM_LABELS[result.final_labels + 1]
    )

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
Within an epoch the action rule is static: every cube draws uniformly
from its active arms.  ``run_multi_arm`` is the one run loop;
``run_two_arm`` is its two-arm case, reported with the explore/exploit
region labels of the two-arm formulation.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .environments import Instance
from .geometry import (
    GridLattice,
    RegionMask,
    batch_weak_regularity,
    build_lattice,
    support_cube_mask,
)
from .localpoly import (
    MultiIndexBasis,
    default_eig_tol,
    enumerate_basis,
    fit_at_centers,
    scaled_design,  # unused here; the benchmark's tracer patches policy.scaled_design
)
from .results import EpochDiagnostics, RunResult, normalize_checkpoints

log = logging.getLogger(__name__)


def strict_floor(beta: float) -> int:
    """Largest integer strictly smaller than beta."""
    return math.ceil(beta) - 1


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
    quadrature_resolution: int = 32
    support_resolution: int = 8
    support_mass_threshold: float = 1e-9
    eig_tol: float | None = None
    arm_count: int = 2

    def __post_init__(self):
        if self.beta < 1:
            raise ValueError(f"smoothness must be >= 1, got {self.beta}")
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.horizon < 3:
            raise ValueError(f"horizon must be >= 3, got {self.horizon}")
        if self.c_epoch <= 0:
            raise ValueError(f"c_epoch must be positive, got {self.c_epoch}")
        if not 0 < self.p <= 1:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if not 0 < self.c0 <= 1:
            raise ValueError(f"c0 must lie in (0, 1], got {self.c0}")
        if self.quadrature_resolution < 2:
            raise ValueError("quadrature resolution must be >= 2")
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

    @property
    def boundaries(self) -> np.ndarray:
        return np.cumsum(self.realized)


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
# Decision state


class ScreenResult(NamedTuple):
    """Cubes flagged inestimable for one arm.

    ``fail_safe`` marks the no-data case: the arm had no samples last
    epoch, so it flags no cube and is not estimated; the silence must not
    be read as evidence against it, and its cubes keep randomizing.
    """

    mask: np.ndarray
    fail_safe: bool


# ---------------------------------------------------------------------------
# Epoch simulation


def _static_epoch(env: Instance, rng, n, lattice, table, counts, start_t=0):
    """Simulate one epoch whose per-cube action rule is fixed.

    Consumes exactly one context draw, one action uniform, and one reward
    uniform per step (for Bernoulli rewards), independent of the active
    arm sets, so the draws of a seeded run do not depend on its decisions.
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
    u = rng.random(n)
    k = np.minimum((u * counts[flat]).astype(np.int64), counts[flat] - 1)
    arm_ix = table[flat, k]
    means = env.means_matrix(X)
    chosen = means[arm_ix, np.arange(n)]
    rewards = env.sample_rewards(rng, chosen)
    regret = means.max(axis=0) - chosen
    inferior = arm_ix != means.argmax(axis=0)
    return X, arm_ix, rewards, regret, inferior


# ---------------------------------------------------------------------------
# Elimination engine: per-cube active arm sets


@dataclass
class MultiArmState:
    """Per-cube active arm sets plus the sample log of the last epoch."""

    lattice: GridLattice
    support_cubes: np.ndarray
    epoch: int
    active: np.ndarray  # (n_cubes, n_arms) bool
    samples: dict = field(default_factory=dict)
    sample_counts: dict = field(default_factory=dict)
    bandwidths: dict = field(default_factory=dict)

    def active_counts(self) -> np.ndarray:
        return self.active.sum(axis=1)

    def arm_region_mask(self, arm_index: int) -> np.ndarray:
        return self.active[:, arm_index] & self.support_cubes

    def invariants_ok(self) -> bool:
        return bool(np.all(self.active[self.support_cubes].sum(axis=1) >= 1))


def initial_multi_state(lattice: GridLattice, support_cubes: np.ndarray, n_arms: int) -> MultiArmState:
    return MultiArmState(
        lattice=lattice,
        support_cubes=support_cubes,
        epoch=1,
        active=np.ones((lattice.n_cubes, n_arms), dtype=bool),
    )


def screen_multi_arm(state: MultiArmState, arm_index: int, support, config: PolicyConfig) -> ScreenResult:
    """Weak-regularity screen for one arm over cubes still randomizing it.

    Only cubes with at least two active arms are tested: flagging the sole
    active arm of a cube would empty its arm set, so those cubes are left
    alone (the never-empty guard would discard the flag anyway).
    """
    n = state.lattice.n_cubes
    if state.sample_counts.get(arm_index, 0) == 0:
        return ScreenResult(np.zeros(n, dtype=bool), True)
    bandwidth = state.bandwidths[arm_index]
    region = RegionMask(state.lattice, state.arm_region_mask(arm_index), support)
    testable = state.arm_region_mask(arm_index) & (state.active_counts() >= 2)
    ids = np.nonzero(testable)[0]
    mask = np.zeros(n, dtype=bool)
    if len(ids) == 0:
        return ScreenResult(mask, False)
    ok = batch_weak_regularity(
        state.lattice.centers(ids),
        bandwidth,
        config.c0 / 2**config.d,
        region,
        config.quadrature_resolution,
    )
    mask[ids[~ok]] = True
    return ScreenResult(mask, False)


def estimate_means_at_centers(
    state: MultiArmState, config: PolicyConfig, screened: dict
) -> tuple[np.ndarray, dict]:
    """Per-arm mean estimates at centers of multi-active, unscreened cubes.

    NaN marks combinations with no estimate (arm inactive, screened, or in
    the fail-safe no-data state).
    """
    n, n_arms = state.active.shape
    eta = np.full((n, n_arms), np.nan)
    diag = {"degenerate_fits": 0, "min_eig": None, "estimated_cubes": 0}
    basis = config.basis()
    eig_tol = config.eig_tol if config.eig_tol is not None else default_eig_tol(basis)
    multi = state.active_counts() >= 2
    eig_min = math.inf
    total = 0
    for ai in range(n_arms):
        if screened[ai].fail_safe:
            continue
        mask = state.arm_region_mask(ai) & multi & ~screened[ai].mask
        ids = np.nonzero(mask)[0]
        if len(ids) == 0:
            continue
        X, y = state.samples[ai]
        vals, degen, eigs, _ = fit_at_centers(
            state.lattice.centers(ids), X, y, state.bandwidths[ai], basis, eig_tol
        )
        eta[ids, ai] = vals
        diag["degenerate_fits"] += int(degen.sum())
        total += len(ids)
        if len(eigs):
            eig_min = min(eig_min, float(np.nanmin(eigs)))
    diag["min_eig"] = None if math.isinf(eig_min) else eig_min
    diag["estimated_cubes"] = total
    return eta, diag


def update_active_sets(
    state: MultiArmState, eta_hat: np.ndarray, screened: dict, tolerance: float
) -> tuple[MultiArmState, dict]:
    """Remove arms flagged irregular or estimated suboptimal by the margin.

    An arm is eliminated from a cube when some other active, estimable arm
    beats its estimate by more than the tolerance, or when the cube was
    flagged by the arm's regularity screen.  A removal that would empty a
    cube's arm set is rejected and counted as an anomaly.
    """
    n, n_arms = state.active.shape
    removal = np.zeros_like(state.active)
    for ai in range(n_arms):
        removal[:, ai] = screened[ai].mask
    with np.errstate(invalid="ignore"):
        best = np.nanmax(np.where(np.isnan(eta_hat), -np.inf, eta_hat), axis=1)
        for ai in range(n_arms):
            beaten = (best - eta_hat[:, ai] > tolerance) & ~np.isnan(eta_hat[:, ai])
            removal[:, ai] |= beaten
    removal &= state.active
    keep = state.active & ~removal
    would_empty = (keep.sum(axis=1) == 0) & (removal.sum(axis=1) > 0)
    removal[would_empty] = False
    new_active = state.active & ~removal
    info = {
        "anomalies": int(would_empty.sum()),
        "removed": int(removal[state.support_cubes].sum()),
        "screened": {ai: int(screened[ai].mask.sum()) for ai in range(n_arms)},
        "fail_safe": [ai for ai in range(n_arms) if screened[ai].fail_safe],
    }
    new_state = MultiArmState(
        lattice=state.lattice,
        support_cubes=state.support_cubes,
        epoch=state.epoch + 1,
        active=new_active,
    )
    return new_state, info


update_regions = update_active_sets  # the name the benchmark's tracer patches for updates
estimate_cate_at_centers = estimate_means_at_centers  # the name it patches for estimation


def _multi_arm_tables(state: MultiArmState):
    counts = state.active.sum(axis=1).astype(np.int64)
    counts = np.maximum(counts, 1)
    table = np.argsort(~state.active, axis=1, kind="stable").astype(np.int64)
    return table, counts


def act_multi(x, state: MultiArmState, rng: np.random.Generator, arms) -> object:
    """Action at a single context: uniform over the cube's active arm set."""
    table, counts = _multi_arm_tables(state)
    flat = state.lattice.cube_index(np.atleast_2d(np.asarray(x, dtype=float)))[0]
    if flat < 0:
        raise ValueError(f"context {x} is outside the unit cube")
    u = rng.random()
    k = min(int(u * counts[flat]), counts[flat] - 1)
    return arms[table[flat, k]]


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
    if len(env.arms) < 2:
        raise ValueError("need at least two arms")
    if config.arm_count != len(env.arms):
        raise ValueError(
            f"config.arm_count={config.arm_count} does not match the instance's {len(env.arms)} arms"
        )
    if config.d != env.d:
        raise ValueError(f"config dimension {config.d} != instance dimension {env.d}")
    started = time.perf_counter()
    rng = np.random.default_rng(int(seed))
    lattice = build_lattice(config.horizon, config.beta, config.d)
    support = support_cube_mask(
        lattice, env.support, config.support_resolution, config.support_mass_threshold
    )
    schedule = make_schedule(config)
    state = initial_multi_state(lattice, support, len(env.arms))
    n_arms = len(env.arms)

    regret_parts, inferior_parts, action_parts = [], [], []
    diags = []
    anomaly_total = 0
    below_cube_total = 0
    start_t = 0
    for k, length in enumerate(schedule.realized, start=1):
        upd_info = {"anomalies": 0, "screened": dict.fromkeys(range(n_arms), 0), "fail_safe": []}
        est_diag = {"degenerate_fits": 0, "min_eig": None}
        if k >= 2:
            screened = {ai: screen_multi_arm(state, ai, env.support, config) for ai in range(n_arms)}
            eta_hat, est_diag = estimate_means_at_centers(state, config, screened)
            state, upd_info = update_active_sets(state, eta_hat, screened, schedule.tolerances[k - 2])
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
        anomaly_total += upd_info["anomalies"]
        active_support = state.active[state.support_cubes]
        diags.append(
            EpochDiagnostics(
                epoch=k,
                start=start_t,
                length=length,
                tolerance=schedule.tolerances[k - 1],
                explore_cubes=int((active_support.sum(axis=1) >= 2).sum()),
                exploit_cubes={
                    env.arms[ai]: int(
                        (active_support[:, ai] & (active_support.sum(axis=1) == 1)).sum()
                    )
                    for ai in range(n_arms)
                },
                screened_cubes={env.arms[ai]: v for ai, v in upd_info["screened"].items()},
                anomalies=upd_info["anomalies"],
                degenerate_fits=est_diag["degenerate_fits"],
                min_eig=est_diag["min_eig"],
                sample_counts={env.arms[ai]: state.sample_counts.get(ai, 0) for ai in range(n_arms)},
                bandwidths={env.arms[ai]: bw for ai, bw in state.bandwidths.items()},
                fail_safe_arms=[env.arms[ai] for ai in upd_info["fail_safe"]],
                active_cubes={
                    env.arms[ai]: int(state.arm_region_mask(ai).sum()) for ai in range(n_arms)
                },
            )
        )
        start_t += length

    cum_regret = np.cumsum(np.concatenate(regret_parts))
    cum_inferior = np.cumsum(np.concatenate(inferior_parts).astype(np.int64))
    ts = normalize_checkpoints(checkpoints, config.horizon)
    active_bits = (state.active.astype(np.int64) * (1 << np.arange(n_arms))).sum(axis=1)
    active_bits[~state.support_cubes] = -1
    return RunResult(
        policy="smooth_multi_arm",
        instance=env.name,
        seed=int(seed),
        horizon=config.horizon,
        checkpoint_times=ts,
        cum_regret=cum_regret[ts - 1],
        cum_inferior=cum_inferior[ts - 1],
        inferior_count=int(cum_inferior[-1]),
        wall_time=time.perf_counter() - started,
        epochs=diags,
        final_labels=active_bits,
        actions=np.concatenate(action_parts) if record_actions else None,
        meta={
            "epochs": schedule.K,
            "delta": schedule.delta,
            "n_cubes": lattice.n_cubes,
            "anomalies": anomaly_total,
            "bandwidth_below_cube": below_cube_total,
            "schedule_degenerate": schedule.degenerate,
        },
    )


def _log_epoch_samples(state: MultiArmState, X, arm_ix, rewards, config, arms):
    """Store each arm's samples and bandwidth; return how many fell below the cube diagonal."""
    state.samples = {}
    state.sample_counts = {}
    state.bandwidths = {}
    exponent = -1.0 / (2 * config.beta + config.d)
    diagonal = math.sqrt(config.d) * state.lattice.delta
    below = 0
    for ai, arm in enumerate(arms):
        mask = arm_ix == ai
        count = int(mask.sum())
        state.samples[ai] = (X[mask], rewards[mask])
        state.sample_counts[ai] = count
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
    if tuple(env.arms) != (1, -1):
        raise ValueError("two-arm runs require arms (+1, -1)")
    if config.arm_count != 2:
        raise ValueError("config.arm_count must be 2 for two-arm runs")
    result = run_multi_arm(env, config, seed, checkpoints, record_actions)
    return replace(
        result, policy="smooth_two_arm", final_labels=_TWO_ARM_LABELS[result.final_labels + 1]
    )

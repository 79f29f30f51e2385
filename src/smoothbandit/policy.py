"""Epoch-based elimination policy for smooth contextual bandits.

The policy lays a cube lattice over the context space and proceeds in
epochs of roughly geometrically growing length while a per-epoch accuracy
tolerance halves.  At each epoch boundary it (1) screens out cubes whose
reachable sampling region has become too irregular for a trustworthy
local polynomial fit, (2) re-estimates the arm mean gap at the centers of
the remaining undecided cubes using samples from the previous epoch with
a sample-size-matched bandwidth, all centers of an arm in one batched
call to ``localpoly.fit_at_centers``, and (3) promotes cubes with a
confidently signed gap into exploit regions (two arms) or shrinks
per-cube active arm sets (multiple arms).  Within an epoch the action
rule is static: exploit cubes pull their arm, undecided cubes randomize
uniformly over the remaining arms.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
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

    ``fail_safe`` marks the no-data case: the flag set covers every
    undecided cube but must not be converted into exploit evidence for
    the opposite arm; flagged cubes keep randomizing instead.
    """

    mask: np.ndarray
    fail_safe: bool


@dataclass
class DecisionState:
    """Two-arm region assignment plus the sample log of the last epoch."""

    lattice: GridLattice
    support_cubes: np.ndarray
    epoch: int
    explore: np.ndarray
    exploit: dict
    samples: dict = field(default_factory=dict)
    sample_counts: dict = field(default_factory=dict)
    bandwidths: dict = field(default_factory=dict)

    def arm_region_mask(self, arm) -> np.ndarray:
        """Cubes where the arm may be pulled this epoch (its sample support)."""
        return self.explore | self.exploit[arm]

    def partition_ok(self) -> bool:
        union = self.explore | self.exploit[1] | self.exploit[-1]
        disjoint = (
            self.explore.astype(int) + self.exploit[1].astype(int) + self.exploit[-1].astype(int)
        )
        return bool(np.array_equal(union, self.support_cubes) and np.all(disjoint <= 1))

    def labels(self) -> np.ndarray:
        """Per-cube code: 0 explore, 1 exploit +1, 2 exploit -1, 3 off-support."""
        out = np.full(self.lattice.n_cubes, 3, dtype=np.int8)
        out[self.explore] = 0
        out[self.exploit[1]] = 1
        out[self.exploit[-1]] = 2
        return out


def initial_state(lattice: GridLattice, support_cubes: np.ndarray) -> DecisionState:
    n = lattice.n_cubes
    return DecisionState(
        lattice=lattice,
        support_cubes=support_cubes,
        epoch=1,
        explore=support_cubes.copy(),
        exploit={1: np.zeros(n, dtype=bool), -1: np.zeros(n, dtype=bool)},
    )


# ---------------------------------------------------------------------------
# Screening, estimation, region updates (two arms)


def screen_inestimable(state: DecisionState, arm, support, config: PolicyConfig) -> ScreenResult:
    """Undecided cubes whose center fails the weak-regularity test for an arm.

    The tested region is the union of cubes where the arm could be pulled
    in the last epoch, intersected with the support; the ball radius is
    the arm's current bandwidth and the threshold is c0 / 2^d.  An arm
    with no samples triggers the fail-safe: every undecided cube is
    flagged and the caller keeps randomizing there.
    """
    n = state.lattice.n_cubes
    if state.sample_counts.get(arm, 0) == 0:
        return ScreenResult(state.explore.copy(), True)
    bandwidth = state.bandwidths[arm]
    region = RegionMask(state.lattice, state.arm_region_mask(arm) & state.support_cubes, support)
    ids = np.nonzero(state.explore)[0]
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


def estimate_cate_at_centers(
    state: DecisionState, config: PolicyConfig, screened: dict
) -> tuple[np.ndarray, dict]:
    """Gap estimate at the centers of undecided, unscreened cubes.

    Each arm's mean is fit on its previous-epoch samples at the arm's own
    bandwidth; the returned array holds NaN where no estimate was made.
    Degenerate fits contribute 0 and are counted in the diagnostics.
    """
    n = state.lattice.n_cubes
    tau = np.full(n, np.nan)
    diag = {"degenerate_fits": 0, "min_eig": None, "estimated_cubes": 0}
    estimable = state.explore & ~screened[1].mask & ~screened[-1].mask
    ids = np.nonzero(estimable)[0]
    if len(ids) == 0:
        return tau, diag
    centers = state.lattice.centers(ids)
    basis = config.basis()
    eig_tol = config.eig_tol if config.eig_tol is not None else default_eig_tol(basis)
    per_arm = {}
    eig_min = math.inf
    for arm in (1, -1):
        X, y = state.samples[arm]
        vals, degen, eigs, _ = fit_at_centers(centers, X, y, state.bandwidths[arm], basis, eig_tol)
        per_arm[arm] = vals
        diag["degenerate_fits"] += int(degen.sum())
        if len(eigs):
            eig_min = min(eig_min, float(np.nanmin(eigs)))
    tau[ids] = per_arm[1] - per_arm[-1]
    diag["min_eig"] = None if math.isinf(eig_min) else eig_min
    diag["estimated_cubes"] = len(ids)
    return tau, diag


def update_regions(
    state: DecisionState, tau_hat: np.ndarray, screened: dict, tolerance: float
) -> tuple[DecisionState, dict]:
    """Advance the region assignment by one epoch.

    Undecided cubes with a gap estimate beyond the tolerance move to the
    matching exploit region; cubes inestimable for one arm move to the
    other arm's exploit region; cubes flagged for both arms are anomalies
    and keep randomizing, as do fail-safe flags.  Exploit regions only
    ever grow.
    """
    movable_to_pos = screened[-1].mask if not screened[-1].fail_safe else np.zeros_like(state.explore)
    movable_to_neg = screened[1].mask if not screened[1].fail_safe else np.zeros_like(state.explore)
    anomaly = movable_to_pos & movable_to_neg
    movable_to_pos = movable_to_pos & ~anomaly
    movable_to_neg = movable_to_neg & ~anomaly
    estimable = state.explore & ~screened[1].mask & ~screened[-1].mask
    with np.errstate(invalid="ignore"):
        to_pos = (estimable & (tau_hat > tolerance)) | movable_to_pos
        to_neg = (estimable & (tau_hat < -tolerance)) | movable_to_neg
    new_exploit = {
        1: state.exploit[1] | to_pos,
        -1: state.exploit[-1] | to_neg,
    }
    new_explore = state.explore & ~to_pos & ~to_neg
    info = {
        "anomalies": int(anomaly.sum()),
        "promoted": {1: int(to_pos.sum()), -1: int(to_neg.sum())},
        "screened": {1: int(screened[1].mask.sum()), -1: int(screened[-1].mask.sum())},
        "fail_safe": [a for a in (1, -1) if screened[a].fail_safe],
    }
    new_state = DecisionState(
        lattice=state.lattice,
        support_cubes=state.support_cubes,
        epoch=state.epoch + 1,
        explore=new_explore,
        exploit=new_exploit,
    )
    return new_state, info


def act(x, state: DecisionState, rng: np.random.Generator):
    """Action at a single context under the current two-arm region state."""
    table, counts = _two_arm_tables(state)
    flat = state.lattice.cube_index(np.atleast_2d(np.asarray(x, dtype=float)))[0]
    if flat < 0:
        raise ValueError(f"context {x} is outside the unit cube")
    u = rng.random()
    k = min(int(u * counts[flat]), counts[flat] - 1)
    return (1, -1)[table[flat, k]]


# ---------------------------------------------------------------------------
# Epoch simulation


def _two_arm_tables(state: DecisionState):
    n = state.lattice.n_cubes
    table = np.zeros((n, 2), dtype=np.int64)
    table[:, 1] = 1
    counts = np.full(n, 2, dtype=np.int64)
    counts[state.exploit[1] | state.exploit[-1]] = 1
    table[state.exploit[-1], 0] = 1
    return table, counts


def _static_epoch(env: Instance, rng, n, lattice, table, counts, start_t=0):
    """Simulate one epoch whose per-cube action rule is fixed.

    Consumes exactly one context draw, one action uniform, and one reward
    uniform per step (for Bernoulli rewards), independent of the region
    layout, so runs with shared seeds stay aligned across engines.
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


def _log_epoch_samples(state, env, X, arm_ix, rewards, config):
    state.samples = {}
    state.sample_counts = {}
    state.bandwidths = {}
    exponent = -1.0 / (2 * config.beta + config.d)
    below_cube = 0
    for ai, arm in enumerate(env.arms):
        mask = arm_ix == ai
        count = int(mask.sum())
        state.samples[arm] = (X[mask], rewards[mask])
        state.sample_counts[arm] = count
        if count > 0:
            bw = count**exponent
            state.bandwidths[arm] = bw
            if bw < math.sqrt(config.d) * state.lattice.delta:
                below_cube += 1
                log.warning(
                    "bandwidth %.4g for arm %s fell below the cube diagonal %.4g",
                    bw,
                    arm,
                    math.sqrt(config.d) * state.lattice.delta,
                )
    return below_cube


def run_two_arm(
    env: Instance,
    config: PolicyConfig,
    seed: int,
    checkpoints=None,
    record_actions: bool = False,
) -> RunResult:
    """Execute the full two-arm elimination run.

    The first epoch randomizes everywhere; each later epoch starts with
    screen / estimate / update at the previous epoch's tolerance, then
    acts statically.  Returns the regret and inferior-sampling trajectory
    plus per-epoch diagnostics and the final region labels.
    """
    if tuple(env.arms) != (1, -1):
        raise ValueError("two-arm runs require arms (+1, -1)")
    if config.arm_count != 2:
        raise ValueError("config.arm_count must be 2 for two-arm runs")
    if config.d != env.d:
        raise ValueError(f"config dimension {config.d} != instance dimension {env.d}")
    started = time.perf_counter()
    rng = np.random.default_rng(int(seed))
    lattice = build_lattice(config.horizon, config.beta, config.d)
    support = support_cube_mask(
        lattice, env.support, config.support_resolution, config.support_mass_threshold
    )
    schedule = make_schedule(config)
    state = initial_state(lattice, support)

    regret_parts, inferior_parts, action_parts = [], [], []
    diags = []
    anomaly_total = 0
    below_cube_total = 0
    start_t = 0
    for k, length in enumerate(schedule.realized, start=1):
        upd_info = {"anomalies": 0, "screened": {1: 0, -1: 0}, "fail_safe": []}
        est_diag = {"degenerate_fits": 0, "min_eig": None}
        if k >= 2:
            screened = {a: screen_inestimable(state, a, env.support, config) for a in (1, -1)}
            tau_hat, est_diag = estimate_cate_at_centers(state, config, screened)
            state, upd_info = update_regions(state, tau_hat, screened, schedule.tolerances[k - 2])
            if not state.partition_ok():
                raise RuntimeError(f"epoch {k}: the explore/exploit regions do not partition the support")
        table, counts = _two_arm_tables(state)
        X, arm_ix, rewards, regret, inferior = _static_epoch(
            env, rng, length, lattice, table, counts, start_t
        )
        below_cube_total += _log_epoch_samples(state, env, X, arm_ix, rewards, config)
        regret_parts.append(regret)
        inferior_parts.append(inferior)
        if record_actions:
            action_parts.append(np.asarray(env.arms)[arm_ix])
        anomaly_total += upd_info["anomalies"]
        diags.append(
            EpochDiagnostics(
                epoch=k,
                start=start_t,
                length=length,
                tolerance=schedule.tolerances[k - 1],
                explore_cubes=int(state.explore.sum()),
                exploit_cubes={a: int(state.exploit[a].sum()) for a in (1, -1)},
                screened_cubes=upd_info["screened"],
                anomalies=upd_info["anomalies"],
                degenerate_fits=est_diag["degenerate_fits"],
                min_eig=est_diag["min_eig"],
                sample_counts=dict(state.sample_counts),
                bandwidths=dict(state.bandwidths),
                fail_safe_arms=upd_info["fail_safe"],
                active_cubes={a: int(state.arm_region_mask(a).sum()) for a in (1, -1)},
            )
        )
        start_t += length

    cum_regret = np.cumsum(np.concatenate(regret_parts))
    cum_inferior = np.cumsum(np.concatenate(inferior_parts).astype(np.int64))
    ts = normalize_checkpoints(checkpoints, config.horizon)
    return RunResult(
        policy="smooth_two_arm",
        instance=env.name,
        seed=int(seed),
        horizon=config.horizon,
        checkpoint_times=ts,
        cum_regret=cum_regret[ts - 1],
        cum_inferior=cum_inferior[ts - 1],
        inferior_count=int(cum_inferior[-1]),
        wall_time=time.perf_counter() - started,
        epochs=diags,
        final_labels=state.labels(),
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


# ---------------------------------------------------------------------------
# Multi-arm variant: per-cube active arm sets


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
    """Execute the elimination run with per-cube active arm sets.

    At two arms this reproduces the two-arm run step for step under a
    shared seed: the schedules coincide and eliminations map onto region
    moves.
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
        upd_info = {"anomalies": 0, "screened": {}, "fail_safe": []}
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
        below_cube_total += _log_epoch_samples_multi(state, X, arm_ix, rewards, config, n_arms)
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
                bandwidths={env.arms[ai]: state.bandwidths.get(ai) for ai in range(n_arms)},
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


def _log_epoch_samples_multi(state: MultiArmState, X, arm_ix, rewards, config, n_arms):
    state.samples = {}
    state.sample_counts = {}
    state.bandwidths = {}
    exponent = -1.0 / (2 * config.beta + config.d)
    below = 0
    for ai in range(n_arms):
        mask = arm_ix == ai
        count = int(mask.sum())
        state.samples[ai] = (X[mask], rewards[mask])
        state.sample_counts[ai] = count
        if count > 0:
            bw = count**exponent
            state.bandwidths[ai] = bw
            if bw < math.sqrt(config.d) * state.lattice.delta:
                below += 1
    return below

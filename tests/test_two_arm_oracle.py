"""The two-arm region engine, kept as the reference for ``policy.run_two_arm``.

``run_two_arm`` is the two-arm case of ``run_multi_arm``.  The code below
is the separate explore/exploit region engine it replaced, unchanged.  The
equivalence test requires identical actions, regret, inferior counts,
final labels, ``meta`` and epoch diagnostics from both, except three
fields whose conventions differ on purpose:

- ``screened_cubes`` of a fail-safe arm (an arm with no samples last
  epoch): the region engine flags every undecided cube, the active-set
  engine none; neither uses the flags;
- ``degenerate_fits`` and ``min_eig``: the region engine fits both arms
  only where neither is screened, the active-set engine fits each arm
  wherever it alone is unscreened, so the two differ on epochs with
  one-sided screening or a fail-safe arm.
"""

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import pytest

from smoothbandit import policy
from smoothbandit.environments import (
    Instance,
    InstanceMeta,
    make_lower_bound_instance,
    make_smooth_instance,
)
from smoothbandit.geometry import (
    GridLattice,
    RegionMask,
    batch_weak_regularity,
    build_lattice,
    support_cube_mask,
)
from smoothbandit.localpoly import fit_at_centers
from smoothbandit.policy import PolicyConfig, _static_epoch, make_schedule
from smoothbandit.results import EpochDiagnostics, RunResult, normalize_checkpoints

log = policy.log


# ---------------------------------------------------------------------------
# Reference: the two-arm region engine


class ScreenResult(NamedTuple):
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
        32,
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
    per_arm = {}
    eig_min = math.inf
    for arm in (1, -1):
        X, y = state.samples[arm]
        vals, degen, min_eig, _ = fit_at_centers(centers, X, y, state.bandwidths[arm], basis)
        per_arm[arm] = vals
        diag["degenerate_fits"] += int(degen.sum())
        eig_min = min(eig_min, min_eig)
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


def _two_arm_tables(state: DecisionState):
    n = state.lattice.n_cubes
    table = np.zeros((n, 2), dtype=np.int64)
    table[:, 1] = 1
    counts = np.full(n, 2, dtype=np.int64)
    counts[state.exploit[1] | state.exploit[-1]] = 1
    table[state.exploit[-1], 0] = 1
    return table, counts


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
    support = support_cube_mask(lattice, env.support, 8)
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
    for e in diags:  # each epoch's own steps, as differences of the running totals
        end = e.start + e.length - 1
        e.regret = float(cum_regret[end] - (cum_regret[e.start - 1] if e.start else 0.0))
        e.inferior = int(cum_inferior[end] - (cum_inferior[e.start - 1] if e.start else 0))
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
# Equivalence of policy.run_two_arm with the reference


def _rate_instance():
    return make_smooth_instance("sinusoidal", d=1, frequency=1.0, amplitude=0.4, beta=2.0)


def _left_half_instance():
    # contexts and support on [0, 1/2] only, as in test_restricted_support_run
    def means(points):
        return np.stack([0.5 + 0.25 * arm * np.sin(2 * math.pi * points[:, 0] / 0.5) for arm in (1, -1)])

    def sample(rng, n):
        out = rng.random((n, 1))
        out[:, 0] *= 0.5
        return out

    def support(points):
        points = np.atleast_2d(points)
        return (points[:, 0] <= 0.5) & np.all((points >= 0) & (points <= 1), axis=1)

    return Instance(
        name="left_half",
        d=1,
        arms=(1, -1),
        means=means,
        sample_contexts=sample,
        support=support,
        meta=InstanceMeta(beta=2.0, L=20.0, L1=4.0, alpha=1.0, gamma=2.0,
                          c0=0.25, r0=0.1, mu_min=2.0, mu_max=2.0),
    )


_CALIBRATED = {"beta": 2.0, "c_epoch": 8.0, "p": 0.5}

# case id -> (instance builder, policy config, seed)
CASES = {
    "d1": (_rate_instance, PolicyConfig(d=1, horizon=4096, **_CALIBRATED), 0),
    "d1_one_sided_screen": (_rate_instance, PolicyConfig(d=1, horizon=4096, **_CALIBRATED), 2),
    "d2": (
        lambda: make_smooth_instance("sinusoidal", d=2, frequency=1.0, amplitude=0.4, beta=2.0),
        PolicyConfig(d=2, horizon=2048, **_CALIBRATED),
        11,
    ),
    "left_half_support": (_left_half_instance, PolicyConfig(d=1, horizon=4000, **_CALIBRATED), 1),
    "fail_safe": (
        lambda: make_smooth_instance("constant_gap", d=1, gap=0.8),
        PolicyConfig(beta=1.0, d=1, horizon=10_000, c_epoch=8.0, p=0.5),
        0,
    ),
    "bump_grid_d1": (
        lambda: make_lower_bound_instance(T=100_000, beta=2.0, alpha=0.5, d=1, seed=3),
        PolicyConfig(d=1, horizon=2048, **_CALIBRATED),
        11,
    ),
    "bump_grid_d2": (
        lambda: make_lower_bound_instance(T=100_000, beta=2.0, alpha=0.5, d=2, seed=3),
        PolicyConfig(d=2, horizon=1024, **_CALIBRATED),
        11,
    ),
}

# fields whose conventions differ between the engines (see the module docstring)
_FIT_FIELDS = ("degenerate_fits", "min_eig")


def _comparable(epoch: EpochDiagnostics) -> dict:
    out = epoch.to_dict()
    for name in _FIT_FIELDS:
        del out[name]
    for arm in out["fail_safe_arms"]:
        del out["screened_cubes"][arm]
    return out


@pytest.mark.parametrize("case", CASES)
def test_run_two_arm_matches_region_engine(case):
    build, cfg, seed = CASES[case]
    env = build()
    ref = run_two_arm(env, cfg, seed, checkpoints=8, record_actions=True)
    new = policy.run_two_arm(env, cfg, seed, checkpoints=8, record_actions=True)
    assert new.policy == ref.policy == "smooth_two_arm"
    np.testing.assert_array_equal(new.checkpoint_times, ref.checkpoint_times)
    np.testing.assert_array_equal(new.actions, ref.actions)
    np.testing.assert_array_equal(new.cum_regret, ref.cum_regret)
    np.testing.assert_array_equal(new.cum_inferior, ref.cum_inferior)
    assert new.inferior_count == ref.inferior_count
    np.testing.assert_array_equal(new.final_labels, ref.final_labels)
    assert new.final_labels.dtype == ref.final_labels.dtype
    assert new.meta == ref.meta
    assert [_comparable(e) for e in new.epochs] == [_comparable(e) for e in ref.epochs]
    for e in new.epochs:
        for arm in e.fail_safe_arms:
            assert e.screened_cubes[arm] == 0


def test_cases_cover_one_sided_screening_and_fail_safe():
    def epochs(case):
        build, cfg, seed = CASES[case]
        return run_two_arm(build(), cfg, seed).epochs

    one_sided = [
        e for e in epochs("d1_one_sided_screen")
        if not e.fail_safe_arms and (e.screened_cubes[1] > 0) != (e.screened_cubes[-1] > 0)
    ]
    assert one_sided
    assert any(e.fail_safe_arms for e in epochs("fail_safe"))
    support_cubes = epochs("left_half_support")[0].explore_cubes
    assert support_cubes < 0.6 * build_lattice(4000, 2.0, 1).n_cubes

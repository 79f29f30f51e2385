import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import smoothbandit
from smoothbandit import baselines, geometry, harness, policy
from smoothbandit.environments import (
    Instance,
    make_constant_multi_arm,
    make_lower_bound_instance,
    make_smooth_instance,
)
from smoothbandit.geometry import build_lattice, support_cube_mask, unit_cube_support
from smoothbandit.harness import save_state_reports
from smoothbandit.policy import (
    MultiArmState,
    PolicyConfig,
    ScreenResult,
    _multi_arm_tables,
    _static_epoch,
    act_multi,
    epoch_count_bound,
    estimate_means_at_centers,
    initial_multi_state,
    make_schedule,
    planned_epoch_length,
    run_multi_arm,
    run_two_arm,
    screen_multi_arm,
    strict_floor,
    update_active_sets,
)

# two-arm instances list their arms as (+1, -1): arm index 0 is +1, index 1 is -1
POS, NEG = 0, 1
TWO_ARMS = (1, -1)


def two_arm_planned_length(k, config, delta):
    """Independent oracle for the two-arm epoch-length formula."""
    eps = 2.0**-k
    log_term = math.log(config.horizon * delta**-config.d)
    expo = (2 * config.beta + config.d) / (2 * config.beta)
    return math.ceil(
        (4.0 / config.p) * (log_term / (config.c_epoch * eps * eps)) ** expo
        + (2.0 / (config.p * config.p)) * math.log(config.horizon)
    )


class TestStrictFloor:
    def test_values(self):
        assert strict_floor(1.0) == 0
        assert strict_floor(1.5) == 1
        assert strict_floor(2.0) == 1
        assert strict_floor(3.0) == 2


class TestSchedule:
    def test_tolerances_halve(self):
        cfg = PolicyConfig(beta=1.0, d=1, horizon=100_000)
        sched = make_schedule(cfg)
        assert sched.tolerances[:3] == (0.5, 0.25, 0.125)

    def test_realized_lengths_sum_to_horizon(self):
        for T in (1000, 4096, 31337):
            cfg = PolicyConfig(beta=2.0, d=1, horizon=T)
            sched = make_schedule(cfg)
            assert sum(sched.realized) == T
            assert len(sched.realized) == sched.K

    def test_planned_lengths_strictly_increase(self):
        cfg = PolicyConfig(beta=1.5, d=2, horizon=10**6, c_epoch=1.0, p=0.5)
        lengths = [planned_epoch_length(k, cfg, make_schedule(cfg).delta) for k in range(1, 8)]
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_two_arm_formula_matches_general_form(self):
        # at two arms 2|A|/p = 4/p and |A|^2/(2 p^2) = 2/p^2 bit for bit
        cfg = PolicyConfig(beta=2.0, d=1, horizon=20_000, c_epoch=0.7, p=0.3)
        delta = make_schedule(cfg).delta
        for k in range(1, 6):
            assert planned_epoch_length(k, cfg, delta) == two_arm_planned_length(k, cfg, delta)

    def test_multi_arm_lengths_scale_with_arm_count(self):
        # independent oracle for the general coefficients 2A/p, A^2/(2p^2)
        cfg = PolicyConfig(beta=2.0, d=1, horizon=20_000, c_epoch=0.7, p=0.3, arm_count=3)
        delta = make_schedule(cfg).delta
        for k in range(1, 5):
            eps = 2.0**-k
            log_term = math.log(cfg.horizon * delta**-cfg.d)
            expo = (2 * cfg.beta + cfg.d) / (2 * cfg.beta)
            expected = math.ceil(
                (6.0 / cfg.p) * (log_term / (cfg.c_epoch * eps * eps)) ** expo
                + (9.0 / (2.0 * cfg.p * cfg.p)) * math.log(cfg.horizon)
            )
            assert planned_epoch_length(k, cfg, delta) == expected

    def test_epoch_count_bound_example(self):
        # ceil((1 / (3 log 2)) log 1e4) = ceil(4.429...) = 5
        assert epoch_count_bound(1.0, 1, 10_000) == 5
        cfg = PolicyConfig(beta=1.0, d=1, horizon=10_000, p=1.0, c_epoch=1.0)
        assert make_schedule(cfg).K <= 5

    def test_epoch_count_bound_grid(self):
        for beta in (1.0, 1.5, 2.0, 3.0):
            for d in (1, 2):
                for p in (0.25, 1.0):
                    for c_epoch in (0.25, 0.5, 1.0, 2.0):
                        for T in (1000, 10_000, 100_000):
                            if T < math.exp(max(c_epoch, 1.0)):
                                continue
                            cfg = PolicyConfig(beta=beta, d=d, horizon=T, p=p, c_epoch=c_epoch)
                            assert make_schedule(cfg).K <= epoch_count_bound(beta, d, T)

    def test_degenerate_short_horizon_flag(self):
        cfg = PolicyConfig(beta=2.0, d=1, horizon=100)
        sched = make_schedule(cfg)
        assert sched.degenerate
        assert sched.K == 1
        assert sched.realized == (100,)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig(beta=0.5, d=1, horizon=100)
        with pytest.raises(ValueError):
            PolicyConfig(beta=1.0, d=1, horizon=100, p=0.0)
        with pytest.raises(ValueError):
            PolicyConfig(beta=1.0, d=1, horizon=100, c0=1.5)
        with pytest.raises(ValueError):
            PolicyConfig(beta=1.0, d=1, horizon=2)


def two_arm_state(lattice, support, exploit_pos, exploit_neg):
    """Active sets of a two-arm region layout: an exploit cube keeps only its arm."""
    active = np.ones((lattice.n_cubes, 2), dtype=bool)
    active[exploit_pos, NEG] = False
    active[exploit_neg, POS] = False
    return MultiArmState(lattice=lattice, support_cubes=support, epoch=2, active=active)


def regions(state):
    """Explore and exploit masks of a two-arm active-set state, over the support."""
    on, pos, neg = state.support_cubes, state.active[:, POS], state.active[:, NEG]
    return {"explore": on & pos & neg, 1: on & pos & ~neg, -1: on & neg & ~pos}


def gap_estimates(tau):
    """Per-arm estimates whose difference is the gap tau: +1 at tau, -1 at 0 (NaN with tau)."""
    return np.column_stack([tau, np.where(np.isnan(tau), np.nan, 0.0)])


def make_state_with_samples(lattice, support, exploit_pos, exploit_neg, n_per_arm, rng):
    state = two_arm_state(lattice, support, exploit_pos, exploit_neg)
    for ai in (POS, NEG):
        X = rng.random((n_per_arm, lattice.d))
        y = rng.random(n_per_arm)
        state.samples[ai] = (X, y)
        state.sample_counts[ai] = n_per_arm
        state.bandwidths[ai] = n_per_arm ** (-1.0 / (2 * 2.0 + lattice.d))
    return state


class TestScreening:
    def test_full_support_screens_nothing(self):
        # with the whole cube reachable, every center keeps >= 2^-d of its
        # ball, which dominates c0 / 2^d for any c0 <= 1
        cfg = PolicyConfig(beta=2.0, d=1, horizon=5000)
        lattice = build_lattice(cfg.horizon, cfg.beta, cfg.d)
        support = support_cube_mask(lattice, None)
        rng = np.random.default_rng(0)
        n = lattice.n_cubes
        state = make_state_with_samples(lattice, support, np.zeros(n, bool), np.zeros(n, bool), 500, rng)
        for ai in (POS, NEG):
            res = screen_multi_arm(state, ai, unit_cube_support, cfg)
            assert not res.fail_safe
            assert res.mask.sum() == 0

    def test_isolated_cube_is_screened(self):
        # a lone explore cube inside a sea of opposite-arm cubes: the
        # reachable region for this arm is one cube of side delta << H,
        # fraction ~ delta / (2 H) < c0 / 2
        cfg = PolicyConfig(beta=2.0, d=1, horizon=5000)
        lattice = build_lattice(cfg.horizon, cfg.beta, cfg.d)
        support = support_cube_mask(lattice, None)
        n = lattice.n_cubes
        rng = np.random.default_rng(1)
        explore = np.zeros(n, bool)
        explore[n // 2] = True
        exploit_neg = support & ~explore  # everything else exploits -1
        state = make_state_with_samples(lattice, support, np.zeros(n, bool), exploit_neg, 500, rng)
        res = screen_multi_arm(state, POS, unit_cube_support, cfg)
        frac = lattice.delta / (2 * state.bandwidths[POS])
        assert frac < cfg.c0 / 2
        assert res.mask[n // 2]
        # arm -1 reaches nearly everything: not screened
        res_neg = screen_multi_arm(state, NEG, unit_cube_support, cfg)
        assert res_neg.mask.sum() == 0

    def test_empty_explore_screens_nothing(self):
        cfg = PolicyConfig(beta=2.0, d=1, horizon=5000)
        lattice = build_lattice(cfg.horizon, cfg.beta, cfg.d)
        support = support_cube_mask(lattice, None)
        n = lattice.n_cubes
        rng = np.random.default_rng(2)
        state = make_state_with_samples(lattice, support, support.copy(), np.zeros(n, bool), 100, rng)
        assert screen_multi_arm(state, POS, unit_cube_support, cfg).mask.sum() == 0

    def test_no_samples_triggers_fail_safe(self):
        cfg = PolicyConfig(beta=2.0, d=1, horizon=5000)
        lattice = build_lattice(cfg.horizon, cfg.beta, cfg.d)
        support = support_cube_mask(lattice, None)
        rng = np.random.default_rng(3)
        n = lattice.n_cubes
        state = make_state_with_samples(lattice, support, np.zeros(n, bool), np.zeros(n, bool), 100, rng)
        state.sample_counts[POS] = 0
        res = screen_multi_arm(state, POS, unit_cube_support, cfg)
        # no data: nothing is flagged, so the silence removes the arm nowhere
        assert res.fail_safe
        assert res.mask.sum() == 0


class TestUpdateRegions:
    def setup_state(self):
        lattice = build_lattice(3000, 1.0, 1)
        support = support_cube_mask(lattice, None)
        n = lattice.n_cubes
        return initial_multi_state(lattice, support, 2), n

    def no_screen(self, n):
        return {POS: ScreenResult(np.zeros(n, bool), False), NEG: ScreenResult(np.zeros(n, bool), False)}

    def test_all_zero_estimates_keep_randomizing(self):
        state, n = self.setup_state()
        screened = self.no_screen(n)
        screened[POS].mask[:2] = True  # two cubes inestimable for +1
        tau = np.zeros(n)
        tau[screened[POS].mask] = np.nan
        new, info = update_active_sets(state, gap_estimates(tau), screened, 0.5)
        before, after = regions(state), regions(new)
        assert after["explore"].sum() == before["explore"].sum() - 2
        assert after[-1].sum() == 2  # screened-for-+1 cubes exploit -1
        assert after[1].sum() == 0
        assert new.invariants_ok()

    def test_large_positive_estimates_exploit_everywhere(self):
        state, n = self.setup_state()
        tau = np.full(n, 1.0)
        new, _ = update_active_sets(state, gap_estimates(tau), self.no_screen(n), 0.5)
        after = regions(new)
        assert after["explore"].sum() == 0
        assert np.array_equal(after[1], state.support_cubes)

    def test_mixed_signs_split_three_ways(self):
        state, n = self.setup_state()
        tau = np.full(n, np.nan)
        ids = np.nonzero(state.support_cubes)[0][:3]
        tau[ids] = [-1.0, 0.0, 1.0]
        # restrict explore to the three cubes
        explore = np.zeros(n, bool)
        explore[ids] = True
        state = two_arm_state(state.lattice, state.support_cubes, state.support_cubes & ~explore, np.zeros(n, bool))
        new, _ = update_active_sets(state, gap_estimates(tau), self.no_screen(n), 0.5)
        after = regions(new)
        assert after[-1][ids[0]]
        assert after["explore"][ids[1]]
        assert after[1][ids[2]]

    def test_double_screened_cube_is_anomaly(self):
        state, n = self.setup_state()
        screened = self.no_screen(n)
        cube = np.nonzero(state.support_cubes)[0][0]
        screened[POS].mask[cube] = True
        screened[NEG].mask[cube] = True
        new, info = update_active_sets(state, np.full((n, 2), np.nan), screened, 0.5)
        assert info["anomalies"] == 1
        assert regions(new)["explore"][cube]
        assert new.invariants_ok()

    def test_fail_safe_flags_keep_randomizing(self):
        cfg = PolicyConfig(beta=1.0, d=1, horizon=3000)
        state, n = self.setup_state()
        state.sample_counts = {POS: 0, NEG: 500}  # no data for +1
        screened = {
            POS: screen_multi_arm(state, POS, unit_cube_support, cfg),
            NEG: ScreenResult(np.zeros(n, bool), False),
        }
        assert screened[POS].fail_safe
        new, _ = update_active_sets(state, np.full((n, 2), np.nan), screened, 0.5)
        assert np.array_equal(new.active, state.active)

    def test_exploit_regions_only_grow(self):
        state, n = self.setup_state()
        tau = np.full(n, np.nan)
        ids = np.nonzero(state.support_cubes)[0]
        tau[ids[:5]] = 1.0
        tau[ids[5:]] = 0.0
        new, _ = update_active_sets(state, gap_estimates(tau), self.no_screen(n), 0.5)
        tau2 = np.full(n, np.nan)
        tau2[np.nonzero(regions(new)["explore"])[0]] = -1.0
        newer, _ = update_active_sets(new, gap_estimates(tau2), self.no_screen(n), 0.25)
        for arm in TWO_ARMS:
            assert np.all(regions(newer)[arm] >= regions(new)[arm])
        assert newer.invariants_ok()


class TestAct:
    def test_exploit_cube_always_pulls_its_arm(self):
        lattice = build_lattice(3000, 1.0, 1)
        support = support_cube_mask(lattice, None)
        state = two_arm_state(lattice, support, support, np.zeros(lattice.n_cubes, bool))
        rng = np.random.default_rng(0)
        assert all(act_multi(np.array([0.3]), state, rng, TWO_ARMS) == 1 for _ in range(200))

    def test_explore_cube_randomizes_evenly(self):
        lattice = build_lattice(3000, 1.0, 1)
        state = initial_multi_state(lattice, support_cube_mask(lattice, None), 2)
        rng = np.random.default_rng(1)
        draws = np.array([act_multi(np.array([0.3]), state, rng, TWO_ARMS) for _ in range(10_000)])
        freq = np.mean(draws == 1)
        assert 0.48 <= freq <= 0.52  # 4 sigma band around 1/2

    def test_multi_arm_uniform_over_active_set(self):
        lattice = build_lattice(3000, 1.0, 1)
        state = initial_multi_state(lattice, support_cube_mask(lattice, None), 3)
        rng = np.random.default_rng(2)
        arms = (0, 1, 2)
        draws = np.array([act_multi(np.array([0.3]), state, rng, arms) for _ in range(10_000)])
        for a in arms:
            assert 0.30 <= np.mean(draws == a) <= 0.37


class TestRunTwoArm:
    def test_zero_effect_means_zero_regret(self):
        env = make_smooth_instance("constant_gap", d=1, gap=0.0)
        cfg = PolicyConfig(beta=1.0, d=1, horizon=2000)
        res = run_two_arm(env, cfg, seed=0)
        assert res.final_regret == 0.0

    def test_determinism(self):
        env = make_smooth_instance("sinusoidal", d=1, amplitude=0.4, beta=2.0)
        cfg = PolicyConfig(beta=2.0, d=1, horizon=4000)
        a = run_two_arm(env, cfg, seed=42, record_actions=True)
        b = run_two_arm(env, cfg, seed=42, record_actions=True)
        assert a.equals(b)
        c = run_two_arm(env, cfg, seed=43, record_actions=True)
        assert not a.equals(c)

    def test_equals_compares_meta_but_not_wall_time(self):
        env = make_smooth_instance("sinusoidal", d=1, amplitude=0.4, beta=2.0)
        res = run_two_arm(env, PolicyConfig(beta=2.0, d=1, horizon=2000), seed=42)
        assert res.equals(dataclasses.replace(res, wall_time=res.wall_time + 1.0))
        meta = {**res.meta, "anomalies": res.meta["anomalies"] + 1}
        assert not res.equals(dataclasses.replace(res, meta=meta))

    def test_constant_gap_beats_uniform_randomization(self):
        # uniform play pays gap/2 per step in expectation
        env = make_smooth_instance("constant_gap", d=1, gap=0.5)
        cfg = PolicyConfig(beta=1.0, d=1, horizon=5000)
        finals = [run_two_arm(env, cfg, seed=s).final_regret for s in range(10)]
        assert np.mean(finals) <= 0.25 * 5000

    def test_wrong_arm_is_never_exploited_on_separated_instance(self):
        # arm -1 is optimal nowhere; its exploit region should stay empty
        env = make_smooth_instance("constant_gap", d=1, gap=0.5)
        cfg = PolicyConfig(beta=1.0, d=1, horizon=5000)
        clean = 0
        for seed in range(100):
            res = run_two_arm(env, cfg, seed=seed)
            if all(e.exploit_cubes[-1] == 0 for e in res.epochs):
                clean += 1
        assert clean >= 95

    def test_epoch_accounting_and_partition(self):
        env = make_smooth_instance("sinusoidal", d=1, amplitude=0.4, beta=2.0)
        cfg = PolicyConfig(beta=2.0, d=1, horizon=8192, c_epoch=8.0, p=0.5)
        res = run_two_arm(env, cfg, seed=7)
        assert sum(e.length for e in res.epochs) == cfg.horizon
        support_total = res.epochs[0].explore_cubes
        for e in res.epochs:
            assert e.explore_cubes + sum(e.exploit_cubes.values()) == support_total
        for a in (1, -1):
            counts = [e.exploit_cubes[a] for e in res.epochs]
            assert all(b >= a_ for a_, b in zip(counts, counts[1:]))
        labels = res.final_labels
        assert (labels == 3).sum() == res.meta["n_cubes"] - support_total

    def test_regret_bounded_by_inferior_count(self):
        env = make_smooth_instance("sinusoidal", d=1, amplitude=0.4, beta=2.0)
        cfg = PolicyConfig(beta=2.0, d=1, horizon=4000)
        res = run_two_arm(env, cfg, seed=3)
        assert 0 <= res.inferior_count <= cfg.horizon
        assert res.final_regret <= 0.4 * res.inferior_count + 1e-9
        assert np.all(np.diff(res.cum_regret) >= 0)

    def test_bandwidth_stays_above_cube_diagonal(self):
        env = make_smooth_instance("sinusoidal", d=1, amplitude=0.4, beta=2.0)
        cfg = PolicyConfig(beta=2.0, d=1, horizon=20_000, c_epoch=8.0, p=0.5)
        res = run_two_arm(env, cfg, seed=11)
        assert res.meta["bandwidth_below_cube"] == 0

    def test_rejects_mismatched_instance(self):
        env = make_constant_multi_arm((0.2, 0.5, 0.8), d=1)
        cfg = PolicyConfig(beta=1.0, d=1, horizon=1000)
        with pytest.raises(ValueError):
            run_two_arm(env, cfg, seed=0)

    def test_restricted_support_run(self):
        # support is only the left half of the axis: the cube cover must
        # shrink accordingly and screening must respect the boundary
        import math as _math

        from smoothbandit.environments import Instance, InstanceMeta

        def mean(points, arm):
            points = np.atleast_2d(points)
            return 0.5 + 0.25 * arm * np.sin(2 * _math.pi * points[:, 0] / 0.5)

        def sample(rng, n):
            out = rng.random((n, 1))
            out[:, 0] *= 0.5
            return out

        def support(points):
            points = np.atleast_2d(points)
            return (points[:, 0] >= 0) & (points[:, 0] <= 0.5) & np.all(
                (points >= 0) & (points <= 1), axis=1
            )

        env = Instance(
            name="left_half",
            d=1,
            arms=(1, -1),
            mean=mean,
            sample_contexts=sample,
            support=support,
            meta=InstanceMeta(beta=2.0, L=20.0, L1=4.0, alpha=1.0, gamma=2.0,
                              c0=0.25, r0=0.1, mu_min=2.0, mu_max=2.0),
        )
        cfg = PolicyConfig(beta=2.0, d=1, horizon=4000, c_epoch=8.0, p=0.5)
        res = run_two_arm(env, cfg, seed=1)
        support_total = res.epochs[0].explore_cubes
        # roughly half the cubes carry context mass
        assert support_total < 0.6 * res.meta["n_cubes"]
        for e in res.epochs:
            assert e.explore_cubes + sum(e.exploit_cubes.values()) == support_total
        assert res.equals(run_two_arm(env, cfg, seed=1))

    def test_fail_safe_reached_in_live_run(self):
        # a huge gap empties the exploration region after one update; the
        # inferior arm then collects no samples and later updates must fall
        # back gracefully instead of inferring anything from the silence
        env = make_smooth_instance("constant_gap", d=1, gap=0.8)
        cfg = PolicyConfig(beta=1.0, d=1, horizon=10_000, c_epoch=8.0, p=0.5)
        res = run_two_arm(env, cfg, seed=0)
        assert res.meta["epochs"] >= 3
        assert any(e.sample_counts[-1] == 0 for e in res.epochs)
        assert any(-1 in e.fail_safe_arms for e in res.epochs)
        assert all(e.exploit_cubes[-1] == 0 for e in res.epochs)

    def test_two_dimensional_run(self):
        # exercises the tree-based neighbor queries and the planar
        # screening quadrature inside a full run
        env = make_smooth_instance("sinusoidal", d=2, amplitude=0.4, beta=2.0)
        cfg = PolicyConfig(beta=2.0, d=2, horizon=500, c_epoch=8.0, p=0.5)
        res = run_two_arm(env, cfg, seed=2)
        assert res.meta["epochs"] >= 2
        assert sum(e.length for e in res.epochs) == 500
        assert res.final_regret <= 0.4 * res.inferior_count + 1e-9
        repeat = run_two_arm(env, cfg, seed=2)
        assert res.equals(repeat)

    def test_estimate_constant_half_rewards_gives_zero_gap(self):
        cfg = PolicyConfig(beta=2.0, d=1, horizon=5000)
        lattice = build_lattice(cfg.horizon, cfg.beta, cfg.d)
        support = support_cube_mask(lattice, None)
        n = lattice.n_cubes
        rng = np.random.default_rng(8)
        state = initial_multi_state(lattice, support, 2)
        for ai in (POS, NEG):
            X = rng.random((600, 1))
            state.samples[ai] = (X, np.full(600, 0.5))
            state.sample_counts[ai] = 600
            state.bandwidths[ai] = 600 ** (-1.0 / 5)
        screened = {POS: ScreenResult(np.zeros(n, bool), False), NEG: ScreenResult(np.zeros(n, bool), False)}
        eta, _ = estimate_means_at_centers(state, cfg, screened)
        tau = eta[:, POS] - eta[:, NEG]
        np.testing.assert_allclose(tau[~np.isnan(tau)], 0.0, atol=1e-12)

    def test_estimate_separated_constant_arms(self):
        # noiseless means 3/4 and 1/4: the gap comes out at 1/2 exactly
        cfg = PolicyConfig(beta=2.0, d=1, horizon=5000)
        lattice = build_lattice(cfg.horizon, cfg.beta, cfg.d)
        support = support_cube_mask(lattice, None)
        n = lattice.n_cubes
        rng = np.random.default_rng(9)
        state = initial_multi_state(lattice, support, 2)
        for ai, level in ((POS, 0.75), (NEG, 0.25)):
            X = rng.random((800, 1))
            state.samples[ai] = (X, np.full(800, level))
            state.sample_counts[ai] = 800
            state.bandwidths[ai] = 800 ** (-1.0 / 5)
        screened = {POS: ScreenResult(np.zeros(n, bool), False), NEG: ScreenResult(np.zeros(n, bool), False)}
        eta, diag = estimate_means_at_centers(state, cfg, screened)
        tau = eta[:, POS] - eta[:, NEG]
        assert diag["degenerate_fits"] == 0
        np.testing.assert_allclose(tau[~np.isnan(tau)], 0.5, atol=1e-6)

    def test_estimate_op_flags_degenerate_fits(self):
        cfg = PolicyConfig(beta=2.0, d=1, horizon=5000)
        lattice = build_lattice(cfg.horizon, cfg.beta, cfg.d)
        support = support_cube_mask(lattice, None)
        n = lattice.n_cubes
        state = initial_multi_state(lattice, support, 2)
        rng = np.random.default_rng(4)
        # plentiful data for +1, one lone far-away sample for -1
        state.samples[POS] = (rng.random((800, 1)), np.full(800, 0.75))
        state.sample_counts[POS] = 800
        state.bandwidths[POS] = 800 ** (-1.0 / 5)
        state.samples[NEG] = (np.array([[0.0]]), np.array([0.25]))
        state.sample_counts[NEG] = 1
        state.bandwidths[NEG] = 0.015
        screened = {POS: ScreenResult(np.zeros(n, bool), False), NEG: ScreenResult(np.zeros(n, bool), False)}
        eta, diag = estimate_means_at_centers(state, cfg, screened)
        tau = eta[:, POS] - eta[:, NEG]
        assert diag["degenerate_fits"] > 0
        ids = ~np.isnan(tau)
        # cubes where arm -1 had no usable fit fall back to eta=0: tau = 0.75
        assert np.nanmax(tau[ids]) == pytest.approx(0.75, abs=0.05)


def _classified_and_bare_runs(tmp_path, monkeypatch, **config):
    """Runs on the d = 2 bump-grid instance with its classified support and
    with the bare predicate.

    The classified support screens on the lattice, the bare predicate on the
    points; the runs and their state reports must not tell them apart.
    """
    env = make_lower_bound_instance(T=100000, beta=2.0, alpha=0.5, d=2, seed=3)
    bare = dataclasses.replace(env, support=lambda points: env.support(points))
    assert hasattr(env.support, "classify_cubes") and not hasattr(bare.support, "classify_cubes")
    cfg = PolicyConfig(d=2, horizon=2**11, arm_count=2, beta=2.0, c_epoch=8.0, p=0.5, **config)
    calls = []
    for name in ("_point_counts", "_mixed_counts"):
        counted = getattr(geometry, name)
        monkeypatch.setattr(
            geometry, name, lambda *a, _f=counted, _n=name: calls.append(_n) or _f(*a)
        )
    runs, paths = [], []
    for e in (env, bare):
        calls.clear()
        runs.append(run_multi_arm(e, cfg, seed=11))
        paths.append(sorted(set(calls)))
    assert paths == [["_mixed_counts"], ["_point_counts"]]
    assert runs[0].equals(runs[1])
    reports = []
    for name, run in zip(("classified", "bare"), runs):
        (tmp_path / name).mkdir()
        (path,) = save_state_reports({("smooth_multi", cfg.horizon, 0): run}, str(tmp_path / name))
        with open(path, "rb") as fh:
            reports.append(fh.read())
    assert reports[0] == reports[1]
    return runs


class TestRunMultiArm:
    def test_matches_two_arm_under_shared_seed(self):
        env = make_smooth_instance("sinusoidal", d=1, amplitude=0.4, beta=2.0)
        cfg = PolicyConfig(beta=2.0, d=1, horizon=2000, arm_count=2)
        for seed in range(2):
            a = run_two_arm(env, cfg, seed=seed, record_actions=True)
            b = run_multi_arm(env, cfg, seed=seed, record_actions=True)
            np.testing.assert_array_equal(a.actions, b.actions)
            np.testing.assert_array_equal(a.cum_regret, b.cum_regret)

    def test_identical_arms_zero_regret(self):
        env = make_constant_multi_arm((0.5, 0.5, 0.5), d=1)
        cfg = PolicyConfig(beta=1.0, d=1, horizon=2000, arm_count=3)
        res = run_multi_arm(env, cfg, seed=0)
        assert res.final_regret == 0.0

    def test_best_arm_survives_elimination(self):
        # pilot-calibrated config: by the final epoch the tolerance 2^-(K-1)
        # sits below the 0.3 gap, so both inferior arms are eliminated
        env = make_constant_multi_arm((0.2, 0.5, 0.8), d=1, beta=2.0)
        cfg = PolicyConfig(beta=2.0, d=1, horizon=10_000, c_epoch=2.0, p=0.5, arm_count=3)
        fractions = []
        for seed in range(20):
            res = run_multi_arm(env, cfg, seed=seed)
            assert 2.0 ** -(res.meta["epochs"] - 1) < 0.3
            last = res.epochs[-1]
            total = last.explore_cubes + sum(last.exploit_cubes.values())
            fractions.append(last.exploit_cubes[2] / total)
        assert np.median(fractions) >= 0.9

    def test_active_sets_never_empty_and_monotone(self):
        env = make_constant_multi_arm((0.3, 0.6, 0.9), d=1)
        cfg = PolicyConfig(beta=1.0, d=1, horizon=5000, arm_count=3)
        res = run_multi_arm(env, cfg, seed=1)
        assert res.meta["anomalies"] == 0
        bits = res.final_labels
        assert np.all(bits[bits >= 0] > 0)  # no support cube lost all arms

    def test_bump_grid_classifier_keeps_the_run(self, tmp_path, monkeypatch):
        _classified_and_bare_runs(tmp_path, monkeypatch)

    def test_bump_grid_classifier_keeps_a_run_that_flags_cubes(self, tmp_path, monkeypatch):
        # at the default c0 no cube is flagged, so the run above compares
        # all-pass masks; at c0 = 1 screening flags cubes in epochs 2 and 3
        runs = _classified_and_bare_runs(tmp_path, monkeypatch, c0=1.0)
        assert sum(sum(e.screened_cubes.values()) for e in runs[0].epochs) > 0

    def test_rejects_wrong_arm_count(self):
        env = make_constant_multi_arm((0.2, 0.8), d=1)
        cfg = PolicyConfig(beta=1.0, d=1, horizon=1000, arm_count=3)
        with pytest.raises(ValueError):
            run_multi_arm(env, cfg, seed=0)

    def test_region_dependent_optimal_arms(self):
        # three phase-shifted sinusoids: each arm is optimal on its own third
        # of the axis, so eliminations must differ cube by cube
        import math as _math

        from smoothbandit.environments import Instance, InstanceMeta

        def mean(points, arm):
            points = np.atleast_2d(points)
            return 0.5 + 0.3 * np.sin(2 * _math.pi * (points[:, 0] - arm / 3.0))

        def support(points):
            points = np.atleast_2d(points)
            return np.all((points >= 0) & (points <= 1), axis=1)

        env = Instance(
            name="phased_three_arm",
            d=1,
            arms=(0, 1, 2),
            mean=mean,
            sample_contexts=lambda rng, n: rng.random((n, 1)),
            support=support,
            meta=InstanceMeta(beta=2.0, L=0.3 * (2 * _math.pi) ** 2 / 2, L1=0.3 * 2 * _math.pi,
                              alpha=1.0, gamma=2.0, c0=0.25, r0=0.1, mu_min=1.0, mu_max=1.0),
        )
        cfg = PolicyConfig(beta=2.0, d=1, horizon=30_000, c_epoch=8.0, p=0.5, arm_count=3)
        res = run_multi_arm(env, cfg, seed=4)
        assert res.meta["epochs"] >= 3

        # active-cube counts shrink monotonically for every arm
        for arm in env.arms:
            counts = [e.active_cubes[arm] for e in res.epochs]
            assert all(later <= earlier for earlier, later in zip(counts, counts[1:]))

        # decided cubes must agree with the oracle on clearly separated cells
        lattice = build_lattice(cfg.horizon, cfg.beta, cfg.d)
        bits = res.final_labels
        support_ids = np.nonzero(bits >= 0)[0]
        centers = lattice.centers(support_ids)
        means_at_centers = env.means_matrix(centers)
        lead = np.sort(means_at_centers, axis=0)[-1] - np.sort(means_at_centers, axis=0)[-2]
        oracle = means_at_centers.argmax(axis=0)
        decided = np.array([bin(b).count("1") == 1 for b in bits[support_ids]])
        correct = np.array(
            [b == (1 << o) for b, o in zip(bits[support_ids], oracle)]
        )
        clear = lead > 0.2
        assert decided[clear].mean() > 0.9  # well-separated cells get decided
        assert correct[clear & decided].mean() > 0.95  # and almost always correctly
        # every arm still owns some region: none is eliminated globally
        for arm in env.arms:
            assert any(b == (1 << arm) for b in bits[support_ids])


class TestLogEpochSamples:
    def test_counts_and_warns_when_bandwidth_falls_below_cube_diagonal(self, caplog):
        # T = 10, beta = 1, d = 1: cube side 0.2016, so an arm with 200
        # samples gets bandwidth 200^(-1/3) = 0.171 < 0.2016 and one with 50
        # gets 0.271; an arm with no samples gets no bandwidth at all
        cfg = PolicyConfig(beta=1.0, d=1, horizon=10, arm_count=3)
        lattice = build_lattice(cfg.horizon, cfg.beta, cfg.d)
        state = initial_multi_state(lattice, support_cube_mask(lattice, None), 3)
        arm_ix = np.repeat([0, 1], [200, 50])
        X = np.random.default_rng(0).random((len(arm_ix), 1))
        with caplog.at_level("WARNING", logger=policy.log.name):
            below = policy._log_epoch_samples(state, X, arm_ix, np.zeros(len(arm_ix)), cfg, (7, 8, 9))
        assert below == 1
        assert state.sample_counts == {0: 200, 1: 50, 2: 0}
        assert sorted(state.bandwidths) == [0, 1]
        assert state.bandwidths[0] < math.sqrt(cfg.d) * lattice.delta < state.bandwidths[1]
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 1 and "for arm 7 fell below the cube diagonal" in warnings[0]


def _break_partition(update):
    def broken(state, *args):
        state, info = update(state, *args)
        state.active[np.argmax(state.support_cubes)] = False  # a support cube in no region
        return state, info

    return broken


def _empty_active_sets(update):
    def broken(state, *args):
        state, info = update(state, *args)
        state.active[:] = False
        return state, info

    return broken


class TestInvariantChecks:
    """Broken states stop the run with the epoch named, also under ``python -O``."""

    def test_two_arm_broken_partition_raises(self, monkeypatch):
        monkeypatch.setattr(policy, "update_active_sets", _break_partition(policy.update_active_sets))
        env = make_smooth_instance("constant_gap", d=1, gap=0.0)
        with pytest.raises(RuntimeError, match="epoch 2"):
            run_two_arm(env, PolicyConfig(beta=1.0, d=1, horizon=2000), seed=0)

    def test_multi_arm_empty_active_set_raises(self, monkeypatch):
        monkeypatch.setattr(policy, "update_active_sets", _empty_active_sets(policy.update_active_sets))
        env = make_constant_multi_arm((0.5, 0.5, 0.5), d=1)
        with pytest.raises(RuntimeError, match="epoch 2"):
            run_multi_arm(env, PolicyConfig(beta=1.0, d=1, horizon=2000, arm_count=3), seed=0)

    def test_checks_survive_optimize_flag(self):
        # the two tests above, rerun in an interpreter that strips asserts
        src = os.path.dirname(os.path.dirname(smoothbandit.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        selected = "TestInvariantChecks and raises"
        cmd = [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__, "-k", selected]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "2 passed" in proc.stdout, proc.stdout


class TestOffLatticeContexts:
    def test_static_epoch_names_the_step(self):
        env = make_smooth_instance("constant_gap", d=1, gap=0.2)

        def sample(rng, n):
            x = rng.random((n, 1))
            x[3] = 1.5
            return x

        env = dataclasses.replace(env, sample_contexts=sample)
        lattice = build_lattice(1000, 1.0, 1)
        state = initial_multi_state(lattice, support_cube_mask(lattice, unit_cube_support), 2)
        table, counts = _multi_arm_tables(state)
        rng = np.random.default_rng(0)
        with pytest.raises(RuntimeError, match="step 104 lies off the cube lattice"):
            _static_epoch(env, rng, 10, lattice, table, counts, start_t=100)

    def test_run_stops_at_an_off_lattice_context(self):
        env = make_smooth_instance("constant_gap", d=1, gap=0.2)
        draws = []

        def sample(rng, n):
            x = rng.random((n, 1))
            if sum(draws) + n > 1500:
                x[1500 - sum(draws) - 1] = -0.25
            draws.append(n)
            return x

        env = dataclasses.replace(env, sample_contexts=sample)
        with pytest.raises(RuntimeError, match="step 1500 lies off"):
            run_two_arm(env, PolicyConfig(beta=1.0, d=1, horizon=2000), seed=0)


class TestPatchPoints:
    def test_traced_names_are_module_attributes(self):
        # the benchmark's outside-in tracer replaces these attributes of the
        # policy module for the length of a pass, and fails when one is missing
        names = (
            "_static_epoch",
            "update_regions",
            "update_active_sets",
            "batch_weak_regularity",
            "estimate_cate_at_centers",
            "estimate_means_at_centers",
            "scaled_design",
        )
        missing = [name for name in names if name not in vars(policy)]
        assert not missing, missing

    def test_traced_names_of_the_other_layers(self):
        # the same tracer replaces these attributes of the harness, the
        # baselines and the instance class
        owners = {
            harness: (
                "run_experiment",
                "run_policy",
                "write_csv",
                "write_summary",
                "build_instance",
                "run_two_arm",
                "run_multi_arm",
            ),
            baselines: ("run_binned_ucb", "run_uniform", "run_oracle"),
            Instance: ("means_matrix", "sample_rewards"),
        }
        missing = [
            f"{owner.__name__}.{name}"
            for owner, names in owners.items()
            for name in names
            if name not in vars(owner)
        ]
        assert not missing, missing

"""Experiment orchestration: replicated runs, rate fits, and file output.

Runs a grid of (policy, horizon, repetition) simulations with seeds
derived stably from a base seed, accumulates regret and inferior-sampling
trajectories, fits the growth exponent of the mean final regret against
the horizon, and emits CSV rows plus a JSON summary.  Runs execute in a
single process, one after another, except that a binned-UCB policy's
runs interleave block by block in one batch; every run's results are
those of the run alone, so identical configs produce byte-identical
outputs.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import hashlib
import json
import logging
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import baselines
from .environments import (
    TWO_ARMS,
    Instance,
    make_constant_multi_arm,
    make_lower_bound_instance,
    make_smooth_instance,
)
from .geometry import build_lattice
from .policy import PolicyConfig, run_multi_arm, run_two_arm
from .results import RunResult

log = logging.getLogger(__name__)

CSV_HEADER = "policy,instance,T,rep,seed,checkpoint_t,cum_regret,inferior_count"


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, fieldpath: str, message: str):
        super().__init__(f"{fieldpath}: {message}")
        self.fieldpath = fieldpath


# ---------------------------------------------------------------------------
# Rate fitting


def theoretical_exponent(beta: float, alpha: float, d: int) -> float:
    """Growth exponent of the minimax regret in the horizon.

    ``max(beta + d - alpha*beta, 0) / (2*beta + d)``; zero means
    polylogarithmic regret.
    """
    if beta < 1:
        raise ValueError(f"smoothness must be >= 1, got {beta}")
    if alpha < 0:
        raise ValueError(f"margin exponent must be >= 0, got {alpha}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return max(beta + d - alpha * beta, 0.0) / (2 * beta + d)


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log mean-final-regret against log horizon."""

    horizons: tuple[int, ...]
    mean_regrets: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float
    excluded: tuple[int, ...] = ()


def fit_rate(regrets_by_horizon: dict, min_reps: int = 10) -> RateFit:
    """Fit the regret growth exponent over horizons.

    ``regrets_by_horizon`` maps each horizon to the final regrets of its
    repetitions (at least ``min_reps`` per horizon, at least 4 usable
    horizons).  Horizons whose mean regret is not positive are excluded
    and flagged.
    """
    horizons = sorted(regrets_by_horizon)
    usable, means, excluded = [], [], []
    for T in horizons:
        reps = np.asarray(regrets_by_horizon[T], dtype=float)
        if len(reps) < min_reps:
            raise ValueError(f"horizon {T} has {len(reps)} repetitions, need >= {min_reps}")
        m = float(reps.mean())
        if m <= 0:
            excluded.append(T)
            log.warning("horizon %d excluded from the rate fit: mean regret %.3g <= 0", T, m)
            continue
        usable.append(T)
        means.append(m)
    if len(usable) < 4:
        raise ValueError(f"need >= 4 horizons with positive mean regret, have {len(usable)}")
    x = np.log(np.asarray(usable, dtype=float))
    y = np.log(np.asarray(means))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RateFit(
        horizons=tuple(usable),
        mean_regrets=tuple(means),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        excluded=tuple(excluded),
    )


# ---------------------------------------------------------------------------
# Seeds


def derive_seed(base_seed: int, policy: str, horizon: int, rep: int) -> int:
    """Stable 63-bit run seed: base_seed XOR sha256(policy|T|rep)."""
    digest = hashlib.sha256(f"{policy}|{horizon}|{rep}".encode()).digest()
    return (int(base_seed) ^ int.from_bytes(digest[:8], "little")) & ((1 << 63) - 1)


# ---------------------------------------------------------------------------
# Instance and policy construction from config dictionaries


def build_instance(block: dict) -> Instance:
    if not isinstance(block, dict):
        raise ConfigError("instance", "must be a mapping")
    family = block.get("family")
    if not isinstance(family, str):
        raise ConfigError("instance.family", "missing or not a string")
    params = block.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("instance.params", "must be a mapping")
    try:
        if family == "lower_bound":
            return make_lower_bound_instance(**params)
        if family == "constant_multi":
            return make_constant_multi_arm(**params)
        return make_smooth_instance(family, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"instance.params ({family})", str(exc)) from exc


_POLICY_NAMES = ("smooth", "smooth_multi", "binned_ucb", "uniform", "oracle")

_BASELINE_PARAMS = {
    "binned_ucb": {"exploration", "bin_rate"},
    "uniform": set(),
    "oracle": set(),
}
_HARNESS_OWNED = {"d", "horizon", "arm_count"}


def validate_policy_params(index: int, name: str, params: dict, env: Instance) -> None:
    """Reject a malformed parameter block, or a policy that ``env`` cannot run, with a field-level error.

    The instance's context dimension ``env.d`` bounds binned UCB's
    ``bin_rate``, and ``smooth`` needs the arms (+1, -1).
    """
    fieldpath = f"policies[{index}].params"
    if name in ("smooth", "smooth_multi"):
        owned = _HARNESS_OWNED & params.keys()
        if owned:
            raise ConfigError(fieldpath, f"{sorted(owned)} are set by the harness, not the config")
        try:
            PolicyConfig(d=1, horizon=1000, arm_count=2, **params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(fieldpath, str(exc)) from exc
    else:
        unknown = params.keys() - _BASELINE_PARAMS[name]
        if unknown:
            raise ConfigError(fieldpath, f"unknown parameters {sorted(unknown)} for {name!r}")
        if name == "binned_ucb":
            try:
                baselines.check_binned_ucb_params(env.d, **params)
            except ValueError as exc:
                raise ConfigError(fieldpath, str(exc)) from exc
    if name == "smooth" and tuple(env.arms) != TWO_ARMS:
        raise ConfigError(
            f"policies[{index}].name",
            f"'smooth' needs an instance with arms (+1, -1), got {list(env.arms)}; use 'smooth_multi'",
        )


def run_policy(
    name: str, params: dict, env: Instance, horizon: int, seed: int, checkpoints
) -> RunResult:
    """Dispatch one run; ``params`` feeds the policy's own configuration."""
    if name == "smooth":
        config = PolicyConfig(d=env.d, horizon=horizon, arm_count=2, **params)
        return run_two_arm(env, config, seed, checkpoints)
    if name == "smooth_multi":
        config = PolicyConfig(d=env.d, horizon=horizon, arm_count=env.n_arms, **params)
        return run_multi_arm(env, config, seed, checkpoints)
    if name == "binned_ucb":
        return baselines.run_binned_ucb(env, horizon, seed, checkpoints, **params)
    if name == "uniform":
        return baselines.run_uniform(env, horizon, seed, checkpoints, **params)
    if name == "oracle":
        return baselines.run_oracle(env, horizon, seed, checkpoints, **params)
    raise ConfigError("policies", f"unknown policy {name!r}, expected one of {_POLICY_NAMES}")


# ---------------------------------------------------------------------------
# Experiment driver


def _is_int(value) -> bool:
    """An int that is not a bool (JSON ``true`` loads as one)."""
    return isinstance(value, int) and not isinstance(value, bool)


# An elimination run's peak memory is a fixed part (the interpreter and
# the package), a part per lattice cube (the per-cube tables of the
# screen, the estimates and the active sets), of which the `(n_cubes,
# n_arms)` float and bool tables grow with the arm count, and a part per
# step of the horizon (an epoch's contexts, actions, rewards and outcomes).
# The terms were fitted, each rounded up, to the peak RSS of fresh
# `smoothbandit run` processes (sinusoid, bump grid and equal-means 2-, 3-
# and 5-arm instances at d = 1 up to 2^22 steps, d = 2 up to 2^16, d = 3
# up to 2^14 with 3,796,416 cubes), so that the estimate is at or above
# every one of them: the equal-means runs at d = 3, 2^12 (729,000 cubes)
# peaked 15.6 MiB higher for each arm, 22.4 bytes a cube.  At two arms the
# per-cube part, 265 bytes, stays above the 216 that the d = 3, 2^14 peak
# needs, so a two-arm config is refused exactly where it was with one
# per-cube term for up to five arms.  A run estimated above the budget,
# half of the 8 GB machine that measured it, is refused before any run
# starts.
_FIXED_BYTES = 50 * 2**20
_BYTES_PER_CUBE = 219
_BYTES_PER_CUBE_ARM = 23
_BYTES_PER_STEP = 78
_MEMORY_BUDGET = 4 * 2**30


def _cube_bytes(n_arms: int) -> int:
    """Estimated bytes a lattice cube of an elimination run over ``n_arms`` arms."""
    return _BYTES_PER_CUBE + n_arms * _BYTES_PER_CUBE_ARM


def _estimated_bytes(cubes: int, horizon: int, n_arms: int) -> int:
    """Estimated peak memory of an elimination run with this lattice, horizon and arm count."""
    return _FIXED_BYTES + cubes * _cube_bytes(n_arms) + horizon * _BYTES_PER_STEP


def _check_lattice_memory(cfg: dict, horizons: list, d: int, n_arms: int) -> None:
    """Reject a config with an elimination run that would not fit the memory budget.

    The run's cube count is ``build_lattice``'s for the instance's
    dimension ``d``, the horizon and the policy's ``beta``; ``n_arms`` is
    the instance's arm count.
    """
    for i, p in enumerate(cfg["policies"]):
        if p["name"] not in ("smooth", "smooth_multi"):
            continue
        for T in horizons:
            cubes = build_lattice(T, p["params"]["beta"], d).n_cubes
            estimate = _estimated_bytes(cubes, T, n_arms)
            if estimate > _MEMORY_BUDGET:
                raise ConfigError(
                    f"policies[{i}]",
                    f"horizon {T} at d = {d} needs a lattice of {cubes:,} cubes, an estimated "
                    f"{estimate / 2**30:.1f} GiB ({_FIXED_BYTES // 2**20} MiB, {_cube_bytes(n_arms)} bytes "
                    f"a cube at {n_arms} arms and {_BYTES_PER_STEP} bytes a step), over the "
                    f"{_MEMORY_BUDGET / 2**30:.0f} GiB memory budget",
                )


def validate_experiment_config(cfg: dict) -> dict:
    """The config with its defaults set, checked against the instance it builds.

    Raises ``ConfigError`` naming the first field in error; the instance
    block is checked first, as every policy is checked against its instance.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    out = dict(cfg)
    if "instance" not in cfg:
        raise ConfigError("instance", "missing")
    env = build_instance(cfg["instance"])
    if "threads" in cfg:
        raise ConfigError("threads", "not supported: runs execute serially in one process; remove the key")
    policies = cfg.get("policies")
    if not isinstance(policies, list) or not policies:
        raise ConfigError("policies", "must be a non-empty list")
    labels = []
    for i, p in enumerate(policies):
        if not isinstance(p, dict) or "name" not in p:
            raise ConfigError(f"policies[{i}]", "must be a mapping with a 'name'")
        if p["name"] not in _POLICY_NAMES:
            raise ConfigError(f"policies[{i}].name", f"unknown policy {p['name']!r}")
        params = p.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"policies[{i}].params", "must be a mapping")
        validate_policy_params(i, p["name"], dict(params), env)
        label = p.get("label", p["name"])
        if not isinstance(label, str):
            raise ConfigError(f"policies[{i}].label", "must be a string")
        if any(c in label for c in "/\\\0"):  # it names the run's state files
            raise ConfigError(f"policies[{i}].label", f"must not contain '/', '\\' or NUL, got {label!r}")
        labels.append(label)
    if len(set(labels)) != len(labels):
        raise ConfigError("policies", f"labels must be unique, got {labels}; set 'label' to disambiguate")
    horizons = cfg.get("horizons")
    if not isinstance(horizons, list) or not horizons or not all(_is_int(T) and T >= 3 for T in horizons):
        raise ConfigError("horizons", "must be a non-empty list of integers >= 3")
    if len(set(horizons)) != len(horizons):
        raise ConfigError("horizons", f"must not repeat a horizon, got {horizons}")
    reps = cfg.get("reps", 1)
    if not _is_int(reps) or reps < 1:
        raise ConfigError("reps", "must be a positive integer")
    base_seed = cfg.get("base_seed", 0)
    if not _is_int(base_seed):
        raise ConfigError("base_seed", "must be an integer")
    checkpoints = cfg.get("checkpoints", 8)
    if _is_int(checkpoints):
        if checkpoints < 1:
            raise ConfigError("checkpoints", f"a checkpoint count must be >= 1, got {checkpoints}")
    elif isinstance(checkpoints, list):
        shortest = min(horizons)
        bad = [t for t in checkpoints if not (_is_int(t) and 1 <= t <= shortest)]
        if bad:
            raise ConfigError(
                "checkpoints", f"times must be integers in [1, {shortest}] (the smallest horizon), got {bad[0]!r}"
            )
    else:
        raise ConfigError("checkpoints", "must be an integer count or a list of times")
    if not isinstance(cfg.get("save_states", False), bool):
        raise ConfigError("save_states", "must be true or false")
    out_dir = cfg.get("out_dir", ".")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("out_dir", f"must be a non-empty string, got {out_dir!r}")
    _check_lattice_memory(cfg, horizons, env.d, env.n_arms)
    out.setdefault("reps", reps)
    out.setdefault("base_seed", base_seed)
    out.setdefault("checkpoints", checkpoints)
    return out


# glibc's heap policy for a grid run: the highest values its own adaptive
# thresholds climb to, a 32 MiB mmap threshold and a trim threshold of twice
# that.  The chunked loops free MB-sized temporaries in bursts; with the
# adaptive thresholds glibc returns them to the kernel (by trimming the heap
# top or unmapping them) and the next burst faults the same pages in again,
# about 1,600-10,000 minor faults a pass on the benchmark grids.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 * 2**20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


@functools.cache
def _keep_freed_heap() -> None:
    """Keep freed blocks under 32 MiB in the process heap, once per process.

    Sets glibc's ``M_MMAP_THRESHOLD`` to 32 MiB and ``M_TRIM_THRESHOLD`` to
    64 MiB through ``mallopt``, so that every NumPy temporary below 32 MiB is
    served again from the heap, while larger arrays (at ``d = 3``, the
    screen's lattice tables) still come from ``mmap`` and go back to the
    kernel when freed.
    Does nothing unless the C library is glibc and has ``mallopt``.  It is
    process-wide, so it runs at the first grid run, not at import.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if not libc or not libc.startswith("glibc"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def run_experiment(cfg: dict, quiet: bool = False):
    """Execute the full grid; return (rows, summary, results).

    Runs execute one after another, in job order (policy, then horizon,
    then rep), except that a binned-UCB policy's runs execute together as
    one batch (``baselines.run_binned_ucb_batch``), each with the results
    of the run alone.  ``rows`` is the list of CSV tuples (one per
    checkpoint per run) in deterministic order; ``summary`` is a
    JSON-ready dict with per-group means and standard errors plus rate-fit
    inputs; ``results`` maps each (label, T, rep) to its ``RunResult``, in
    job order.  The first call in a process sets glibc's heap thresholds
    (``_keep_freed_heap``).
    """
    _keep_freed_heap()
    cfg = validate_experiment_config(cfg)
    env = build_instance(cfg["instance"])
    # each policy's runs, in job order: (label, name, params, [(T, rep, seed), ...])
    plan = []
    for pol in cfg["policies"]:
        label = pol.get("label", pol["name"])
        runs = [
            (T, rep, derive_seed(cfg["base_seed"], label, T, rep))
            for T in cfg["horizons"]
            for rep in range(cfg["reps"])
        ]
        plan.append((label, pol["name"], dict(pol.get("params", {})), runs))

    started = time.perf_counter()
    results: dict[tuple, RunResult] = {}
    for label, name, params, runs in plan:
        if name == "binned_ucb":
            results.update(_run_binned_ucb_group(label, params, env, runs, cfg["checkpoints"]))
            continue
        for T, rep, seed in runs:
            try:
                results[(label, T, rep)] = run_policy(name, params, env, T, seed, cfg["checkpoints"])
            except Exception as exc:
                raise _run_failed(label, T, rep, seed, exc) from exc
    if not quiet:
        log.info("executed %d runs in %.1fs", len(results), time.perf_counter() - started)

    rows = []
    for label, _, _, runs in plan:
        for T, rep, seed in runs:
            run = results[(label, T, rep)]
            for t, reg, inf in zip(run.checkpoint_times, run.cum_regret, run.cum_inferior):
                rows.append((label, env.name, T, rep, seed, int(t), float(reg), int(inf)))

    groups: dict[tuple, list[RunResult]] = {}
    for (label, T, rep), run in results.items():
        groups.setdefault((label, T), []).append(run)
    summary_groups = []
    for (label, T) in sorted(groups, key=lambda k: (k[0], k[1])):
        finals = np.asarray([r.final_regret for r in groups[(label, T)]], dtype=float)
        inferior = np.asarray([r.inferior_count for r in groups[(label, T)]], dtype=float)
        n = len(finals)
        summary_groups.append(
            {
                "policy": label,
                "T": T,
                "reps": n,
                "mean_final_regret": float(finals.mean()),
                "se_final_regret": float(finals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
                "mean_inferior": float(inferior.mean()),
                "se_inferior": float(inferior.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
            }
        )
    summary = {
        "instance": {
            "name": env.name,
            "d": env.d,
            "arms": list(env.arms),
            "beta": env.meta.beta,
            # JSON has no infinity: a hard margin (alpha = inf) is written as null
            "alpha": env.meta.alpha if math.isfinite(env.meta.alpha) else None,
        },
        "config": {k: cfg[k] for k in ("horizons", "reps", "base_seed", "checkpoints")},
        "policies": [p.get("label", p["name"]) for p in cfg["policies"]],
        "groups": summary_groups,
    }
    return rows, summary, results


def _run_failed(label: str, T: int, rep: int, seed: int, exc: Exception) -> RuntimeError:
    return RuntimeError(f"run failed at policy={label} T={T} rep={rep} seed={seed}: {exc}")


def _run_binned_ucb_group(label: str, params: dict, env: Instance, runs: list, checkpoints) -> dict:
    """A binned-UCB policy's runs as one batch, keyed like ``run_experiment``'s results."""
    try:
        batch = baselines.run_binned_ucb_batch(env, [(T, seed) for T, _, seed in runs], checkpoints, **params)
    except baselines.RunError as exc:
        T, rep, seed = runs[exc.index]
        raise _run_failed(label, T, rep, seed, exc) from exc
    except Exception as exc:
        raise RuntimeError(f"run failed at policy={label} (batch of {len(runs)} runs): {exc}") from exc
    return {(label, T, rep): run for (T, rep, _), run in zip(runs, batch)}


def write_csv(rows, path: str) -> None:
    # instance names may contain commas; let the csv module quote them
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for label, instance, T, rep, seed, t, reg, inf in rows:
            writer.writerow([label, instance, T, rep, seed, t, repr(reg), inf])


def write_summary(summary: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def save_state_reports(results: dict, out_dir: str) -> list[str]:
    """Write the rep-0 state report of each (policy, horizon) group."""
    paths = []
    for (label, T, rep), run in sorted(results.items()):
        if rep != 0 or not run.epochs:
            continue
        path = os.path.join(out_dir, f"state_{label}_T{T}.json")
        with open(path, "w") as fh:
            json.dump(run.to_report(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


def summary_rate_check(summary: dict, policy: str, band: tuple[float, float] | None = None):
    """Rate fit for one policy from a summary dict, with a pass/fail band.

    The default band is the theoretical exponent -0.15 / +0.25, a wide
    allowance for polylogarithmic factors at small horizons.
    """
    groups = [g for g in summary["groups"] if g["policy"] == policy]
    if not groups:
        raise ValueError(f"policy {policy!r} not present in the summary")
    for g in groups:
        if g["reps"] < 10:
            raise ValueError(f"horizon {g['T']} has {g['reps']} repetitions, need >= 10")
    regrets = {g["T"]: [g["mean_final_regret"]] for g in groups}
    fit = fit_rate(regrets, min_reps=1)
    inst = summary["instance"]
    alpha = math.inf if inst["alpha"] is None else inst["alpha"]
    exponent = theoretical_exponent(inst["beta"], min(alpha, 1e6), inst["d"])
    if band is None:
        band = (exponent - 0.15, exponent + 0.25)
    passed = band[0] <= fit.slope <= band[1]
    return fit, exponent, band, passed

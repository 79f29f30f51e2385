"""Run-level result containers shared by the policy engines and the harness."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class EpochDiagnostics:
    """Bookkeeping for one epoch of an elimination run."""

    epoch: int
    start: int
    length: int
    tolerance: float
    explore_cubes: int
    exploit_cubes: dict
    screened_cubes: dict
    anomalies: int
    degenerate_fits: int
    min_eig: float | None
    sample_counts: dict
    bandwidths: dict
    fail_safe_arms: list
    active_cubes: dict | None = None  # cubes where each arm may still be pulled

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "start": self.start,
            "length": self.length,
            "tolerance": self.tolerance,
            "explore_cubes": self.explore_cubes,
            "exploit_cubes": {str(k): v for k, v in self.exploit_cubes.items()},
            "screened_cubes": {str(k): v for k, v in self.screened_cubes.items()},
            "anomalies": self.anomalies,
            "degenerate_fits": self.degenerate_fits,
            "min_eig": self.min_eig,
            "sample_counts": {str(k): v for k, v in self.sample_counts.items()},
            "bandwidths": {str(k): v for k, v in self.bandwidths.items()},
            "fail_safe_arms": [str(a) for a in self.fail_safe_arms],
            "active_cubes": None
            if self.active_cubes is None
            else {str(k): v for k, v in self.active_cubes.items()},
        }


@dataclass
class RunResult:
    """Trajectory summary of one simulated run.

    ``cum_regret`` and ``cum_inferior`` are sampled at ``checkpoint_times``
    (the horizon is always the last checkpoint).  ``wall_time`` is excluded
    from equality comparisons.
    """

    policy: str
    instance: str
    seed: int
    horizon: int
    checkpoint_times: np.ndarray
    cum_regret: np.ndarray
    cum_inferior: np.ndarray
    inferior_count: int
    wall_time: float = 0.0
    epochs: list = field(default_factory=list)
    final_labels: np.ndarray | None = None
    actions: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_steps(
        cls, policy: str, instance: str, seed: int, regret, inferior, checkpoints, started: float, **fields
    ) -> "RunResult":
        """The record of a run from its per-step regret and inferior-arm flags.

        Cumulates both over the steps (the flags as int64),
        samples them at the normalized ``checkpoints`` and stamps the wall
        time since ``started`` (a ``time.perf_counter()`` reading).
        ``fields`` sets the remaining attributes.
        """
        horizon = len(regret)
        cum_regret = np.cumsum(regret)
        cum_inferior = np.cumsum(inferior, dtype=np.int64)
        ts = normalize_checkpoints(checkpoints, horizon)
        return cls(
            policy=policy,
            instance=instance,
            seed=int(seed),
            horizon=horizon,
            checkpoint_times=ts,
            cum_regret=cum_regret[ts - 1],
            cum_inferior=cum_inferior[ts - 1],
            inferior_count=int(cum_inferior[-1]),
            wall_time=time.perf_counter() - started,
            **fields,
        )

    @property
    def final_regret(self) -> float:
        return float(self.cum_regret[-1])

    def equals(self, other: "RunResult") -> bool:
        """Bitwise equality of everything except wall time."""
        if not isinstance(other, RunResult):
            return False
        if (self.policy, self.instance, self.seed, self.horizon, self.inferior_count) != (
            other.policy,
            other.instance,
            other.seed,
            other.horizon,
            other.inferior_count,
        ):
            return False
        for a, b in (
            (self.checkpoint_times, other.checkpoint_times),
            (self.cum_regret, other.cum_regret),
            (self.cum_inferior, other.cum_inferior),
            (self.final_labels, other.final_labels),
            (self.actions, other.actions),
        ):
            if (a is None) != (b is None):
                return False
            if a is not None and not np.array_equal(a, b):
                return False
        if self.meta != other.meta:
            return False
        return [e.to_dict() for e in self.epochs] == [e.to_dict() for e in other.epochs]

    def to_report(self) -> dict:
        """JSON-ready summary of the run, including per-epoch diagnostics."""
        report = {
            "policy": self.policy,
            "instance": self.instance,
            "seed": self.seed,
            "horizon": self.horizon,
            "final_regret": self.final_regret,
            "inferior_count": self.inferior_count,
            "checkpoints": [
                {"t": int(t), "cum_regret": float(r), "cum_inferior": int(i)}
                for t, r, i in zip(self.checkpoint_times, self.cum_regret, self.cum_inferior)
            ],
            "epochs": [e.to_dict() for e in self.epochs],
            "meta": self.meta,
        }
        if self.final_labels is not None:
            report["final_labels"] = [int(v) for v in self.final_labels]
        return report


def normalize_checkpoints(checkpoints, horizon: int) -> np.ndarray:
    """Sorted unique checkpoint times in [1, horizon], horizon included."""
    if checkpoints is None:
        ts = [horizon]
    elif isinstance(checkpoints, int):
        if checkpoints < 1:
            raise ValueError("checkpoint count must be >= 1")
        ts = np.unique(np.geomspace(1, horizon, num=checkpoints).astype(np.int64)).tolist()
    else:
        ts = [int(t) for t in checkpoints]
    ts = sorted(set(ts) | {horizon})
    if ts[0] < 1 or ts[-1] > horizon:
        raise ValueError(f"checkpoints must lie in [1, {horizon}]")
    return np.asarray(ts, dtype=np.int64)

"""Run-level result containers shared by the policy engines and the harness."""

from __future__ import annotations

import dataclasses
import numbers
from collections.abc import Iterable
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
    regret: float | None = None  # regret of the epoch's own steps
    inferior: int | None = None  # inferior pulls among them

    def to_dict(self) -> dict:
        """Every field by name, arms written as strings: dict keys and ``fail_safe_arms``."""
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = {str(k): v for k, v in value.items()}
            elif f.name == "fail_safe_arms":
                value = [str(a) for a in value]
            out[f.name] = value
        return out


@dataclass
class RunResult:
    """Trajectory summary of one simulated run.

    ``cum_regret`` and ``cum_inferior`` are sampled at ``checkpoint_times``
    (the horizon is always the last checkpoint).  ``wall_time`` is the
    run's elapsed seconds.  The runs of a binned-UCB batch, and those of
    an elimination policy's lockstep stack, execute together, so each gets
    the batch's or stack's elapsed time split in proportion to its steps,
    and the wall times of a pass's runs still add up to the pass.
    ``wall_time`` is excluded from equality comparisons and from every
    deterministic output.
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
    def from_tally(
        cls, policy: str, instance: str, seed: int, tally: "CheckpointTally", wall_time: float, **fields
    ) -> "RunResult":
        """The record of a run whose steps were all fed to ``tally``."""
        return cls(
            policy=policy,
            instance=instance,
            seed=int(seed),
            horizon=tally.steps,
            checkpoint_times=tally.times,
            cum_regret=tally.cum_regret,
            cum_inferior=tally.cum_inferior,
            inferior_count=tally.inferior_count,
            wall_time=wall_time,
            **fields,
        )

    @property
    def final_regret(self) -> float:
        return float(self.cum_regret[-1])

    def equals(self, other: "RunResult") -> bool:
        """Bitwise equality of everything except wall time: the same report and actions."""
        if not isinstance(other, RunResult) or self.to_report() != other.to_report():
            return False
        if self.actions is None or other.actions is None:
            return self.actions is other.actions
        return np.array_equal(self.actions, other.actions)

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


class RunError(RuntimeError):
    """A run of a batch or lockstep stack failed; ``index`` is its place in it."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class CheckpointTally:
    """A run's cumulative regret and inferior count, fed in consecutive blocks of steps.

    Only the values at ``times`` (normalized checkpoint times) are kept, so
    no array of the horizon's length is held.  A block's regret is
    cumulated by ``np.cumsum`` with the running total prepended;
    ``add.accumulate`` adds in sequence, so the values are those of one
    ``np.cumsum`` over the whole horizon, bit for bit.
    """

    def __init__(self, times: np.ndarray):
        self.times = times
        self.cum_regret = np.zeros(len(times))
        self.cum_inferior = np.zeros(len(times), dtype=np.int64)
        self.steps = 0
        self.inferior_count = 0
        self.regret = 0.0  # with inferior_count, the running totals of the steps fed

    def add(self, regret: np.ndarray, inferior: np.ndarray) -> None:
        """Feed the next block's per-step regret and inferior-arm flags."""
        if self.steps:
            cum = np.cumsum(np.concatenate(([self.regret], regret)))[1:]
        else:
            cum = np.cumsum(regret)
        cum_inferior = self.inferior_count + np.cumsum(inferior, dtype=np.int64)
        # checkpoint times within this block's steps, as offsets into it
        lo, hi = np.searchsorted(self.times, [self.steps + 1, self.steps + len(cum) + 1])
        at = self.times[lo:hi] - self.steps - 1
        self.cum_regret[lo:hi] = cum[at]
        self.cum_inferior[lo:hi] = cum_inferior[at]
        self.steps += len(cum)
        self.regret = cum[-1]
        self.inferior_count = int(cum_inferior[-1])


def normalize_checkpoints(checkpoints, horizon: int) -> np.ndarray:
    """Sorted unique checkpoint times in [1, horizon], horizon included, from None,
    a count or an iterable of times; all integers, not bools."""
    if checkpoints is None:
        ts = [horizon]
    elif isinstance(checkpoints, numbers.Integral) and not isinstance(checkpoints, bool):
        if checkpoints < 1:
            raise ValueError(f"checkpoint count must be >= 1, got {checkpoints!r}")
        ts = np.geomspace(1, horizon, num=checkpoints).astype(np.int64).tolist()
    else:
        ts = list(checkpoints) if isinstance(checkpoints, Iterable) else [checkpoints]
        if not all(isinstance(t, numbers.Integral) and not isinstance(t, bool) for t in ts):
            raise ValueError(f"checkpoints must be a count or a list of integer times, got {checkpoints!r}")
    ts = sorted(set(ts) | {horizon})
    if ts[0] < 1 or ts[-1] > horizon:
        raise ValueError(f"checkpoints must lie in [1, {horizon}]")
    return np.asarray(ts, dtype=np.int64)

"""Outside-in tracing of one experiment pass.

The program is not instrumented.  Instead, for the length of a traced pass,
the module attributes that the run loops look up at call time are replaced
by wrappers that record a span (name, start, end, parent) and bump counters.
Spans stay in memory; the caller writes them out when the pass is over.

Span names start with their layer (``geometry.``, ``localpoly.``, ...).  A
layer's time is the self time of its spans: a span's duration minus the
durations of its direct children, so the layer times of a pass add up to
the pass's traced wall time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import time
from collections import Counter

import numpy as np


class Tracer:
    """In-memory span recorder with counters, for one single-threaded pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recording a span per call; ``on_return(args, kwargs, out)``."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return traced

    def self_times(self) -> Counter:
        """Self time summed per span name."""
        out: Counter = Counter()
        for name, start, end, _ in self.spans:
            out[name] += end - start
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def to_json(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p} for n, s, e, p in self.spans
        ]


def _in_ball_offsets(d: int, resolution: int) -> int:
    """Midpoints of a resolution^d grid over [-1, 1]^d inside the unit ball."""
    axis = (2.0 * np.arange(resolution) + 1.0) / resolution - 1.0
    sq = sum(g * g for g in np.meshgrid(*([axis] * d), indexing="ij"))
    return int(np.count_nonzero(sq <= 1.0))


@contextlib.contextmanager
def traced(tracer: Tracer, sb):
    """Patch the program's call-time lookups for the ``with`` block.

    ``sb`` is the imported ``smoothbandit`` package.  Every patched
    attribute is restored on exit, also when the pass raises.
    """
    harness, policy, baselines, environments = sb.harness, sb.policy, sb.baselines, sb.environments
    counts = tracer.counts
    screen_sig = inspect.signature(policy.batch_weak_regularity)

    def on_screen(args, kwargs, ok):
        bound = screen_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        n, d = np.atleast_2d(bound.arguments["centers"]).shape
        counts["geometry.centers_screened"] += n
        counts["geometry.quad_points"] += n * _in_ball_offsets(d, bound.arguments["resolution"])
        counts["geometry.flagged"] += int(np.count_nonzero(~ok))

    def on_sample(args, kwargs, out):
        counts["environments.steps"] += len(out)

    def on_run(args, kwargs, out):
        counts["harness.runs"] += 1

    def on_ucb(args, kwargs, out):
        counts["baselines.ucb_steps"] += out.horizon

    design = policy.scaled_design

    def counted_design(x, points, h, basis):
        counts["localpoly.fits"] += 1
        counts["localpoly.rows"] += len(points)
        return design(x, points, h, basis)

    build_instance = harness.build_instance

    def traced_build(block):
        env = build_instance(block)
        sample = tracer.wrap("environments.sample", env.sample_contexts, on_sample)
        return dataclasses.replace(env, sample_contexts=sample)

    patches = [
        (harness, "run_experiment", tracer.wrap("harness.run_experiment", harness.run_experiment)),
        (harness, "run_policy", tracer.wrap("harness.run_policy", harness.run_policy, on_run)),
        (harness, "write_csv", tracer.wrap("harness.emit", harness.write_csv)),
        (harness, "write_summary", tracer.wrap("harness.emit", harness.write_summary)),
        (harness, "build_instance", traced_build),
        (harness, "run_two_arm", tracer.wrap("policy.run", harness.run_two_arm)),
        (harness, "run_multi_arm", tracer.wrap("policy.run", harness.run_multi_arm)),
        (policy, "_static_epoch", tracer.wrap("policy.simulate", policy._static_epoch)),
        (policy, "update_regions", tracer.wrap("policy.update", policy.update_regions)),
        (policy, "update_active_sets", tracer.wrap("policy.update", policy.update_active_sets)),
        (policy, "batch_weak_regularity",
         tracer.wrap("geometry.screen", policy.batch_weak_regularity, on_screen)),
        (policy, "estimate_cate_at_centers",
         tracer.wrap("localpoly.estimate", policy.estimate_cate_at_centers)),
        (policy, "estimate_means_at_centers",
         tracer.wrap("localpoly.estimate", policy.estimate_means_at_centers)),
        (policy, "scaled_design", counted_design),
        (baselines, "run_binned_ucb", tracer.wrap("baselines.ucb", baselines.run_binned_ucb, on_ucb)),
        (baselines, "run_uniform", tracer.wrap("baselines.fixed", baselines.run_uniform)),
        (baselines, "run_oracle", tracer.wrap("baselines.fixed", baselines.run_oracle)),
        (environments.Instance, "means_matrix",
         tracer.wrap("environments.means", environments.Instance.means_matrix)),
        (environments.Instance, "sample_rewards",
         tracer.wrap("environments.rewards", environments.Instance.sample_rewards)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, results: dict, smooth_labels: set) -> tuple[dict, dict]:
    """(times, counts) of one traced pass, keyed by per-layer metric name.

    ``results`` is the run map that ``run_experiment`` returned; the epoch
    count and the degenerate-fit count come from its run records.
    """
    self_s = tracer.self_times()
    c = tracer.counts
    smooth_runs = [r for (label, _, _), r in results.items() if label in smooth_labels]
    degenerate = sum(e.degenerate_fits for r in smooth_runs for e in r.epochs)
    times = {
        "geometry.screen_s": self_s["geometry.screen"],
        "localpoly.estimate_s": self_s["localpoly.estimate"],
        "policy.simulate_s": self_s["policy.simulate"],
        "policy.update_s": self_s["policy.update"],
        "policy.self_s": self_s["policy.run"],
        "environments.sample_s": self_s["environments.sample"]
        + self_s["environments.means"]
        + self_s["environments.rewards"],
        "baselines.ucb_s": self_s["baselines.ucb"],
        "baselines.fixed_s": self_s["baselines.fixed"],
        "harness.dispatch_s": self_s["harness.run_experiment"] + self_s["harness.run_policy"],
        "harness.emit_s": self_s["harness.emit"],
    }
    times["localpoly.fits_per_s"] = _ratio(c["localpoly.fits"], times["localpoly.estimate_s"])
    times["baselines.ucb_steps_per_s"] = _ratio(c["baselines.ucb_steps"], times["baselines.ucb_s"])
    counts = {
        "geometry.centers_screened": c["geometry.centers_screened"],
        "geometry.quad_points": c["geometry.quad_points"],
        "geometry.flag_ratio": _ratio(c["geometry.flagged"], c["geometry.centers_screened"]),
        "localpoly.fits": c["localpoly.fits"],
        "localpoly.rows": c["localpoly.rows"],
        "localpoly.degenerate_ratio": _ratio(degenerate, c["localpoly.fits"]),
        "policy.epochs": sum(r.meta["epochs"] for r in smooth_runs),
        "environments.steps": c["environments.steps"],
        "harness.runs": c["harness.runs"],
    }
    return times, counts

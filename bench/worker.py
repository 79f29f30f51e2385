"""One fresh interpreter of the benchmark: set-up, then passes over a grid.

Usage: python3 bench/worker.py MODE WORKLOAD SEED SECONDS OUT_DIR

MODE is ``setup`` (import, validate and build only), ``run`` (untraced
passes, at least two, while SECONDS allow another) or ``trace`` (an
untraced pass and two traced passes, then untraced/traced pairs while
SECONDS allow).  Each pass goes through ``harness.run_experiment`` ->
``write_csv`` / ``write_summary``, the calls ``smoothbandit run`` makes, and
writes into OUT_DIR/pass-<i>/.  Set-up and untraced passes run under the
host-speed probe of ``hostspeed.py``; their times are reported both as
measured (``*_raw``) and in reference seconds.  The findings go to
OUT_DIR/worker.json, which ``bench/run.py`` reads.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import hostspeed
import workloads


def _setup(workload: str, seed: int):
    """Import the program, validate the config and build the instance."""
    with hostspeed.Sampler(("py",)) as probe:  # NumPy is not imported yet
        started = time.perf_counter()
        import smoothbandit
        from smoothbandit import harness

        cfg = harness.validate_experiment_config(workloads.config(workload, seed))
        harness.build_instance(cfg["instance"])
        raw = time.perf_counter() - started - probe.spent
    return smoothbandit, cfg, {"setup_s": raw * probe.scale(), "setup_s_raw": raw}


def _one_pass(sb, cfg: dict, out_dir: str, traced: bool) -> dict:
    """One pass over the grid, outputs written; with spans when ``traced``."""
    import spans  # not at the top: the timed set-up must pay for importing numpy

    harness = sb.harness
    os.makedirs(out_dir)
    record = {"dir": out_dir, "traced": traced, "error": None}
    tracer = spans.Tracer() if traced else None
    # traced passes are not probed: the probes would land in the spans' self times
    probe = hostspeed.Sampler() if not traced else None
    try:
        with spans.traced(tracer, sb) if traced else probe:
            started = time.perf_counter()
            rows, summary, results = harness.run_experiment(cfg, quiet=True)
            harness.write_csv(rows, os.path.join(out_dir, "results.csv"))
            harness.write_summary(summary, os.path.join(out_dir, "summary.json"))
            gross = time.perf_counter() - started
            spent = probe.spent if probe else 0.0
        record["wall_s_raw"] = gross - spent
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:  # a failing run fails the pass; run.py reports it
        record["error"] = traceback.format_exc()
        return record
    smooth = workloads.smooth_labels(cfg)
    if probe is not None:
        record["wall_s"] = record["wall_s_raw"] * probe.scale()
        record["smooth_s"] = record["smooth_s_raw"] = 0.0
        # The runs of a pass execute one after another in ``results`` order,
        # so each run's interval is rebuilt from the wall times before it;
        # each run is scaled by the probes within its own interval.
        end = started
        for (label, _, _), r in results.items():
            end += r.wall_time
            if label in smooth:
                raw = r.wall_time - probe.spent_between(end - r.wall_time, end)
                record["smooth_s_raw"] += raw
                record["smooth_s"] += raw * probe.scale(end - r.wall_time, end)
    if traced:
        record["times"], record["counts"] = spans.layer_metrics(tracer, results, smooth)
        with open(os.path.join(out_dir, "spans.json"), "w") as fh:
            json.dump(tracer.to_json(), fh)
    return record


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds, out_dir = argv
    seed, seconds = int(seed), float(seconds)
    sb, cfg, setup = _setup(workload, seed)
    report = {**setup, "program": sb.__file__, "passes": []}
    if mode != "setup":
        started = time.perf_counter()
        plan = [False, False] if mode == "run" else [False, True, True]
        while plan:
            traced = plan.pop(0)
            path = os.path.join(out_dir, f"pass-{len(report['passes'])}")
            pass_started = time.perf_counter()
            report["passes"].append(_one_pass(sb, cfg, path, traced))
            took = time.perf_counter() - pass_started
            # another pass only if it would end about within SECONDS
            if not plan and time.perf_counter() - started + took / 2 < seconds:
                plan = [False] if mode == "run" else [False, True]
    with open(os.path.join(out_dir, "worker.json"), "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

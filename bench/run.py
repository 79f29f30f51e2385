"""smoothbandit benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload grid_d1 --seed 7 --seconds 30 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end metrics:
``setup_s`` (median over fresh interpreters of import + config validation +
instance build), ``wall_s`` (median pass over the grid, outputs written),
``smooth_s`` (median over passes of the ``RunResult.wall_time`` summed over
the pass's elimination-policy runs) and ``peak_rss_mb`` (``ru_maxrss`` of the fresh
process that ran the passes, read after its first pass).  The three times
are in reference seconds (``bench/hostspeed.py``); the times as measured
are printed beside them.  ``fail_frac`` is printed with them and is the
``failed / attempted`` of the result line.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``bench/spans.py``, plus the tracing overhead, in
seconds as measured.

Every pass is checked: invariants on every seed, byte identity with
``bench/reference`` on the reference seed, and byte identity between all
passes of the run.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-reference`` rewrites ``bench/reference/<workload>`` from one pass
on the reference seed, for a change that moves the outputs on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 3  # fresh interpreters per run, the workload's own included
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "smooth_s": "s", "peak_rss_mb": "MB"}


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _worker(mode: str, workload: str, seed: int, seconds: float, out_dir: str, started: float) -> dict:
    os.makedirs(out_dir)
    env = dict(os.environ, PYTHONPATH=SRC)
    remaining = DEADLINE_S - (time.perf_counter() - started)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), mode, workload, str(seed), str(seconds), out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {mode} worker for {workload} did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"error: {mode} worker for {workload} exited with code {proc.returncode}")
    with open(os.path.join(out_dir, "worker.json")) as fh:
        report = json.load(fh)
    if not os.path.abspath(report["program"]).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported smoothbandit from {report['program']}, not from {SRC}")
    return report


def _check_passes(passes: list, workload: str, cfg: dict) -> tuple[int, int, list]:
    """(attempted, failed, messages) over all passes of one run."""
    jobs = workloads.job_count(cfg)
    reference = check.load_reference(workload) if cfg["base_seed"] == workloads.REFERENCE_SEED else None
    first = None
    attempted = failed = 0
    messages = []
    for i, p in enumerate(passes):
        attempted += jobs
        if p["error"]:
            failed += jobs
            messages.append(f"pass {i}: {p['error'].strip().splitlines()[-1]}")
            continue
        outputs = check.read_outputs(p["dir"])
        bad, msgs = check.invariants(outputs, cfg)
        if reference is not None:
            b, m = check.same_outputs(outputs, reference, cfg, f"bench/reference/{workload}")
            bad, msgs = bad | b, msgs + m
        if first is None:
            first = (i, outputs)
        else:
            b, m = check.same_outputs(outputs, first[1], cfg, f"pass {first[0]}")
            bad, msgs = bad | b, msgs + m
        failed += len(bad)
        messages += [f"pass {i}{' (traced)' if p['traced'] else ''}: {m}" for m in msgs]
    return attempted, failed, messages


def _end_to_end(report: dict, setups: list, suffix: str = "") -> dict:
    """The end-to-end metrics; with ``suffix="_raw"``, the times as measured."""
    ok = [p for p in report["passes"] if not p["error"]]
    if not ok:
        return {}
    return {
        "setup_s": statistics.median(s["setup_s" + suffix] for s in setups),
        "wall_s": statistics.median(p["wall_s" + suffix] for p in ok),
        "smooth_s": statistics.median(p["smooth_s" + suffix] for p in ok),
        # after the first pass, which is all one `smoothbandit run` process does
        "peak_rss_mb": ok[0]["peak_rss_mb"],
    }


def _per_layer(report: dict, messages: list) -> dict:
    traced = [p for p in report["passes"] if p["traced"] and not p["error"]]
    plain = [p for p in report["passes"] if not p["traced"] and not p["error"]]
    if not traced or not plain:
        return {}
    counts = traced[0]["counts"]
    for p in traced[1:]:
        if p["counts"] != counts:
            diff = {k: (counts[k], p["counts"][k]) for k in counts if counts[k] != p["counts"][k]}
            messages.append(f"counts differ between repeated traced passes of one seed: {diff}")
    metrics = {k: statistics.median(p["times"][k] for p in traced) for k in traced[0]["times"]}
    metrics.update(counts)
    metrics["trace.overhead_s"] = statistics.median(p["wall_s_raw"] for p in traced) - statistics.median(
        p["wall_s_raw"] for p in plain
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "smoothbandit", "__init__.py")):
        print(f"error: no program source at {SRC}/smoothbandit; run from a checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    cfg = workloads.config(args.workload, args.seed)
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    try:
        if args.record_reference:
            return _record_reference(args.workload, run_dir, started)
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                rep = _worker("setup", args.workload, args.seed, 0, os.path.join(run_dir, f"setup-{i}"), started)
                setups.append(rep)
        mode = "trace" if args.trace else "run"
        report = _worker(mode, args.workload, args.seed, args.seconds, os.path.join(run_dir, mode), started)
        setups.append(report)
        attempted, failed, messages = _check_passes(report["passes"], args.workload, cfg)
        metrics = _per_layer(report, messages) if args.trace else _end_to_end(report, setups)
        measured = {} if args.trace else _end_to_end(report, setups, "_raw")
        traced = [p for p in report["passes"] if p["traced"] and not p["error"]]
        if traced:
            shutil.copyfile(
                os.path.join(traced[-1]["dir"], "spans.json"),
                os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"),
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for m in messages:
        print(f"FAIL {args.workload}: {m}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(report['passes'])}  trace {args.trace}")
    for name, value in metrics.items():
        unit = END_TO_END.get(name) or _layer_unit(name)
        line = f"  {name:<28s} {value:>14{'d' if isinstance(value, int) else '.6g'}} {unit}"
        if unit == "s" and name in measured:
            line += f"  ({measured[name]:.6g} s measured)"
        print(line)
    print(f"  {'fail_frac':<28s} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} runs)")
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END.get(name) or _layer_unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _record_reference(workload: str, run_dir: str, started: float) -> int:
    cfg = workloads.config(workload, workloads.REFERENCE_SEED)
    report = _worker("run", workload, workloads.REFERENCE_SEED, 0, os.path.join(run_dir, "run"), started)
    p = report["passes"][0]
    if p["error"]:
        print(p["error"], file=sys.stderr)
        return 1
    outputs = check.read_outputs(p["dir"])
    bad, messages = check.invariants(outputs, cfg)
    if bad:
        print("\n".join(messages), file=sys.stderr)
        return 1
    target = check.reference_path(workload)
    os.makedirs(target, exist_ok=True)
    for name, data in outputs.items():
        with open(os.path.join(target, name), "wb") as fh:
            fh.write(data)
    print(f"recorded {target} from seed {workloads.REFERENCE_SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

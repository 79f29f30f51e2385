"""Command-line entry points.

Subcommands:
  run <config.json>      execute the experiment grid, write CSV + summary
  verify <config.json>   Monte-Carlo validators for the configured instance
  rate <summary.json>    fit the regret exponent and compare to theory
  inspect <state.json>   per-epoch region summary of a saved run state

Exit codes: 0 success, 1 runtime or check failure, 2 usage/config errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import numbers
import os
import sys

import numpy as np

from . import environments, harness

log = logging.getLogger("smoothbandit")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smoothbandit", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to the JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_run.add_argument("--out-dir", default=None, help="output directory (default from config)")
    p_run.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_verify = sub.add_parser("verify", help="run instance assumption validators")
    p_verify.add_argument("config", help="path to a JSON config with an 'instance' block")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=200_000)
    p_verify.add_argument("--regularity", action="store_true", help="also spot-check region regularity")
    p_verify.add_argument("--quiet", action="store_true")

    p_rate = sub.add_parser("rate", help="fit the regret growth exponent from a summary")
    p_rate.add_argument("summary", help="path to a summary.json produced by `run`")
    p_rate.add_argument("--policy", default="smooth")
    p_rate.add_argument("--band", default=None, help="acceptance band lo,hi (default theory -0.15/+0.25)")
    p_rate.add_argument("--quiet", action="store_true")

    p_inspect = sub.add_parser("inspect", help="summarize a saved run state report")
    p_inspect.add_argument("state", help="path to a state_*.json report")
    p_inspect.add_argument("--quiet", action="store_true")
    return parser


def _load_json(path: str, what: str) -> dict:
    if not os.path.exists(path):
        raise harness.ConfigError(what, f"file not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise harness.ConfigError(what, f"invalid JSON in {path}: {exc}") from exc


def _is_number(value) -> bool:
    """A real number that is not a bool (JSON ``true`` loads as one)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _cmd_run(args) -> int:
    cfg = _load_json(args.config, "config")
    if args.seed is not None and isinstance(cfg, dict):
        cfg["base_seed"] = args.seed
    cfg = harness.validate_experiment_config(cfg)
    out_dir = args.out_dir or cfg.get("out_dir", ".")
    try:
        rows, summary, results = harness.run_experiment(cfg, quiet=args.quiet)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # made only once every run has succeeded, so that a failed run leaves
    # nothing behind
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "results.csv")
    summary_path = os.path.join(out_dir, "summary.json")
    harness.write_csv(rows, csv_path)
    harness.write_summary(summary, summary_path)
    extra = harness.save_state_reports(results, out_dir) if cfg.get("save_states") else []
    if not args.quiet:
        for g in summary["groups"]:
            print(
                f"{g['policy']:>12s}  T={g['T']:>7d}  reps={g['reps']:>3d}  "
                f"final regret {g['mean_final_regret']:.2f} +- {g['se_final_regret']:.2f}"
            )
        print(f"wrote {csv_path}, {summary_path}" + (f", {len(extra)} state reports" if extra else ""))
    return 0


def _cmd_verify(args) -> int:
    # zero samples would pass every validator vacuously
    if args.samples < 1:
        raise harness.ConfigError("--samples", f"must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise harness.ConfigError("--seed", f"must be non-negative, got {args.seed}")
    cfg = _load_json(args.config, "config")
    if not isinstance(cfg, dict):
        raise harness.ConfigError("<root>", "config must be a JSON object")
    if "instance" not in cfg:
        raise harness.ConfigError("instance", "missing")
    vcfg = cfg.get("verify", {})
    if not isinstance(vcfg, dict):
        raise harness.ConfigError("verify", "must be a mapping")
    for key in ("alpha", "gamma", "beta", "L"):
        if key in vcfg and not _is_number(vcfg[key]):
            raise harness.ConfigError(f"verify.{key}", f"must be a number, got {vcfg[key]!r}")
    t_grid = vcfg.get("t_grid", [0.01, 0.05, 0.1, 0.2, 0.4])
    if not (isinstance(t_grid, list) and all(_is_number(t) and t > 0 for t in t_grid)):
        raise harness.ConfigError("verify.t_grid", "must be a list of positive numbers")
    if not t_grid:
        raise harness.ConfigError("verify.t_grid", "must not be empty: an empty grid checks nothing")
    env = harness.build_instance(cfg["instance"])
    rng = np.random.default_rng(args.seed)
    reports = []
    meta = env.meta
    alpha = vcfg.get("alpha", meta.alpha)
    gamma = vcfg.get("gamma", meta.gamma)
    if np.isfinite(alpha):
        reports.append(
            environments.verify_margin(env, alpha, gamma, t_grid, max(args.samples, 10_000), rng)
        )
    if env.means_deriv is not None:
        reports.append(
            environments.verify_holder(
                env, vcfg.get("beta", meta.beta), vcfg.get("L", meta.L),
                n_pairs=min(args.samples, 20_000), rng=rng,
            )
        )
    if isinstance(env, environments.LowerBoundInstance):
        reports.append(environments.verify_density(env, max(args.samples, 100_000), rng))
    if args.regularity:
        reports.append(environments.verify_regularity(env, rng=rng))
    ok = True
    for rep in reports:
        ok &= rep.passed
        if not args.quiet:
            print(rep.summary())
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_rate(args) -> int:
    summary = _load_json(args.summary, "summary")
    band = None
    if args.band:
        try:
            lo, hi = (float(v) for v in args.band.split(","))
        except ValueError:
            raise harness.ConfigError("--band", "expected two comma-separated numbers")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise harness.ConfigError(
                "--band", f"expected two finite numbers lo,hi with lo <= hi, got {args.band!r}"
            )
        band = (lo, hi)
    try:
        fit, exponent, band, passed = harness.summary_rate_check(summary, args.policy, band)
    except ValueError as exc:
        raise harness.ConfigError("summary", str(exc))
    if not args.quiet:
        for T, m in zip(fit.horizons, fit.mean_regrets):
            print(f"  T={T:>7d}  mean final regret {m:.2f}")
    print(
        f"policy={args.policy} slope={fit.slope:.4f} R2={fit.r_squared:.4f} "
        f"theory={exponent:.4f} band=[{band[0]:.3f}, {band[1]:.3f}] "
        + ("PASS" if passed else "FAIL")
    )
    return 0 if passed else 1


# Fields of a state report's epoch that ``inspect`` prints, and their JSON types.
_EPOCH_FIELDS = {
    "epoch": int, "start": int, "length": int, "tolerance": (int, float),
    "explore_cubes": int, "exploit_cubes": dict, "screened_cubes": dict, "anomalies": int,
}


def _check_state_report(report) -> None:
    """Raise ``ConfigError`` naming the first field ``inspect`` reads that has the wrong shape."""
    if not isinstance(report, dict):
        raise harness.ConfigError("state", "must be a JSON object")
    if not _is_number(report.get("final_regret")):
        raise harness.ConfigError("state.final_regret", "missing or not a number")
    epochs = report.get("epochs", [])
    if not isinstance(epochs, list):
        raise harness.ConfigError("state.epochs", "must be a list")
    for i, e in enumerate(epochs):
        if not isinstance(e, dict):
            raise harness.ConfigError(f"state.epochs[{i}]", "must be a mapping")
        for key, kind in _EPOCH_FIELDS.items():
            if not isinstance(e.get(key), kind):
                raise harness.ConfigError(f"state.epochs[{i}].{key}", "missing or of the wrong type")


def _cmd_inspect(args) -> int:
    report = _load_json(args.state, "state")
    _check_state_report(report)
    print(f"policy={report.get('policy')} instance={report.get('instance')} T={report.get('horizon')}")
    print(f"final regret {report.get('final_regret'):.3f}, inferior pulls {report.get('inferior_count')}")
    header = f"{'epoch':>5s} {'start':>8s} {'length':>8s} {'tol':>8s} {'explore':>8s} {'exploit':>16s} {'screened':>12s} {'anom':>5s}"
    print(header)
    for e in report.get("epochs", []):
        exploit = ",".join(f"{k}:{v}" for k, v in sorted(e["exploit_cubes"].items()))
        screened = ",".join(f"{k}:{v}" for k, v in sorted(e["screened_cubes"].items())) or "-"
        print(
            f"{e['epoch']:>5d} {e['start']:>8d} {e['length']:>8d} {e['tolerance']:>8.4f} "
            f"{e['explore_cubes']:>8d} {exploit:>16s} {screened:>12s} {e['anomalies']:>5d}"
        )
    return 0


def cli(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if not getattr(args, "quiet", False):
        logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "rate":
            return _cmd_rate(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parser.print_usage(sys.stderr)
    return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()

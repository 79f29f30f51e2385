"""A small seeded experiment grid, the regret-rate fit, and the file outputs.

The harness runs replicated simulations across policies and horizons with
stably derived seeds, then fits log mean-final-regret against log horizon.
For the sinusoidal instance (margin exponent 1, smoothness 2, dimension 1)
the theoretical growth exponent is (2 + 1 - 2) / 5 = 0.2.

This is a scaled-down version (fewer repetitions, shorter horizons) of the
acceptance configuration; expect a couple of minutes.  The equivalent CLI
invocation is shown at the end.
"""

import json
import tempfile
from pathlib import Path

from smoothbandit.harness import (
    run_experiment,
    summary_rate_check,
    theoretical_exponent,
    write_csv,
    write_summary,
)

config = {
    "instance": {
        "family": "sinusoidal",
        "params": {"d": 1, "frequency": 1.0, "amplitude": 0.4, "beta": 2.0},
    },
    "policies": [
        {"name": "smooth", "params": {"beta": 2.0, "c_epoch": 8.0, "p": 0.5}},
        {"name": "binned_ucb"},
        {"name": "uniform"},
    ],
    "horizons": [4096, 8192, 16384, 32768],
    "reps": 10,
    "base_seed": 2024,
    "checkpoints": 6,
}

rows, summary, results = run_experiment(config)

print(f"{'policy':>12} {'T':>7} {'mean regret':>12} {'se':>8}")
for g in summary["groups"]:
    print(f"{g['policy']:>12} {g['T']:>7} {g['mean_final_regret']:>12.1f} {g['se_final_regret']:>8.1f}")

exponent = theoretical_exponent(2.0, 1.0, 1)
fit, _, band, passed = summary_rate_check(summary, "smooth")
print(f"\ntheoretical exponent: {exponent:.2f}")
print(f"fitted slope:         {fit.slope:.3f} (R^2 {fit.r_squared:.3f})")
print(f"acceptance band:      [{band[0]:.2f}, {band[1]:.2f}] -> {'PASS' if passed else 'FAIL'}")

out_dir = Path(tempfile.mkdtemp(prefix="smoothbandit_demo_"))
write_csv(rows, out_dir / "results.csv")
write_summary(summary, out_dir / "summary.json")
(out_dir / "config.json").write_text(json.dumps(config, indent=2))
print(f"\nwrote {out_dir}/results.csv and summary.json")
print("CLI equivalent:")
print(f"  smoothbandit run {out_dir}/config.json --out-dir {out_dir}")
print(f"  smoothbandit rate {out_dir}/summary.json --policy smooth")

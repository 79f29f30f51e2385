"""The benchmark's workloads: experiment configs built from a seed.

Each workload is the JSON config a user would hand to ``smoothbandit run``.
The benchmark seed becomes the config's ``base_seed`` and nothing else, so
the program sees only the generated config.  Why each workload exists, and
which layers it exercises or bypasses, is written down in ``bench/README.md``.
"""

from __future__ import annotations

import copy

# Seed whose outputs are compared byte for byte with ``bench/reference``.
REFERENCE_SEED = 2024

_SMOOTH = {"beta": 2.0, "c_epoch": 8.0, "p": 0.5}


def _sinusoidal(d: int) -> dict:
    return {
        "family": "sinusoidal",
        "params": {"d": d, "frequency": 1.0, "amplitude": 0.4, "beta": 2.0},
    }


_WORKLOADS = {
    # The README grid: d = 1 estimation and the binned-UCB step loop.
    "grid_d1": {
        "instance": _sinusoidal(1),
        "policies": [
            {"name": "smooth", "params": _SMOOTH},
            {"name": "binned_ucb"},
            {"name": "uniform"},
            {"name": "oracle"},
        ],
        "horizons": [4096, 8192, 16384, 32768, 65536],
        "reps": 2,
        "checkpoints": 8,
    },
    # d = 2 two-arm runs: screening and kd-tree estimation, no baselines.
    # One horizon, so that a run of the benchmark holds several passes.
    "smooth_d2": {
        "instance": _sinusoidal(2),
        "policies": [{"name": "smooth", "params": _SMOOTH}],
        "horizons": [2048],
        "reps": 1,
        "checkpoints": 8,
    },
    # Bump-grid hard instance: holey support, multi-arm engine.
    "hard_d2": {
        "instance": {
            "family": "lower_bound",
            "params": {"T": 100000, "beta": 2.0, "alpha": 0.5, "d": 2, "seed": 3},
        },
        "policies": [{"name": "smooth_multi", "params": _SMOOTH}],
        "horizons": [2048],
        "reps": 1,
        "checkpoints": 8,
    },
}

NAMES = tuple(_WORKLOADS)


def config(workload: str, seed: int) -> dict:
    """The experiment config of ``workload`` with ``base_seed = seed``."""
    cfg = copy.deepcopy(_WORKLOADS[workload])
    cfg["base_seed"] = int(seed)
    return cfg


def job_count(cfg: dict) -> int:
    """Runs in one pass over the config's grid."""
    return len(cfg["policies"]) * len(cfg["horizons"]) * cfg["reps"]


def smooth_labels(cfg: dict) -> set:
    """Labels of the elimination-policy runs, whose wall times make ``smooth_s``."""
    return {
        p.get("label", p["name"]) for p in cfg["policies"] if p["name"] in ("smooth", "smooth_multi")
    }

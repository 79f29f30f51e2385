"""Contextual bandits with smooth reward functions.

A cube-lattice elimination policy driven by local polynomial regression,
synthetic environments (including a bump-grid hard-instance family),
reference baselines, and a seeded Monte-Carlo harness that measures
regret growth against the theoretical exponent.
"""

from .baselines import run_binned_ucb, run_oracle, run_uniform
from .environments import (
    Instance,
    InstanceMeta,
    LowerBoundInstance,
    bump_u,
    cate,
    make_constant_multi_arm,
    make_lower_bound_instance,
    make_smooth_instance,
    oracle_arm,
    verify_density,
    verify_holder,
    verify_margin,
    verify_regularity,
)
from .geometry import (
    GridLattice,
    RegionMask,
    assign_cube,
    ball_region_fraction,
    build_lattice,
    is_weakly_regular,
    support_cube_mask,
    unit_ball_volume,
)
from .harness import (
    RateFit,
    derive_seed,
    fit_rate,
    run_experiment,
    theoretical_exponent,
)
from .localpoly import (
    LocalPolyFit,
    MultiIndexBasis,
    enumerate_basis,
    gram_matrix,
    local_poly_estimate,
    min_eigenvalue,
)
from .policy import (
    EpochSchedule,
    MultiArmState,
    PolicyConfig,
    epoch_count_bound,
    make_schedule,
    run_multi_arm,
    run_two_arm,
)
from .results import RunResult

__version__ = "0.1.0"

__all__ = [
    "EpochSchedule",
    "GridLattice",
    "Instance",
    "InstanceMeta",
    "LocalPolyFit",
    "LowerBoundInstance",
    "MultiArmState",
    "MultiIndexBasis",
    "PolicyConfig",
    "RateFit",
    "RegionMask",
    "RunResult",
    "assign_cube",
    "ball_region_fraction",
    "build_lattice",
    "bump_u",
    "cate",
    "derive_seed",
    "enumerate_basis",
    "epoch_count_bound",
    "fit_rate",
    "gram_matrix",
    "is_weakly_regular",
    "local_poly_estimate",
    "make_constant_multi_arm",
    "make_lower_bound_instance",
    "make_schedule",
    "make_smooth_instance",
    "min_eigenvalue",
    "oracle_arm",
    "run_binned_ucb",
    "run_experiment",
    "run_multi_arm",
    "run_oracle",
    "run_two_arm",
    "run_uniform",
    "support_cube_mask",
    "theoretical_exponent",
    "unit_ball_volume",
    "verify_density",
    "verify_holder",
    "verify_margin",
    "verify_regularity",
]

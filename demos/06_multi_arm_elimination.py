"""Multi-arm elimination with per-cube active arm sets.

With more than two arms, moving a cube to "exploit arm a" is no longer the
complement of eliminating one arm.  Each cube instead carries the set of
arms still considered plausible there; arms leave a cube's set when some
estimable competitor beats them by more than the epoch tolerance (or when
their reachable sample region turns irregular), and a cube starts
exploiting once a single arm survives.  At exactly two arms this is the
engine behind ``run_two_arm``, which only relabels the final cube states as
explore / exploit regions, so both pull the same arms under a shared seed.
"""

import numpy as np

from smoothbandit import (
    PolicyConfig,
    make_constant_multi_arm,
    make_smooth_instance,
    run_multi_arm,
    run_two_arm,
)

# --- three arms with context-independent means --------------------------------
env = make_constant_multi_arm((0.2, 0.5, 0.8), d=1, beta=2.0)
config = PolicyConfig(beta=2.0, d=1, horizon=10_000, c_epoch=2.0, p=0.5, arm_count=3)
result = run_multi_arm(env, config, seed=5)

print(f"means {env.meta.extras['means']}, {result.meta['epochs']} epochs, "
      f"{result.epochs[0].explore_cubes} cubes")
print(f"{'epoch':>5} {'steps':>6} {'tol':>7} {'arm0 active':>11} "
      f"{'arm1 active':>11} {'arm2 active':>11} {'decided':>8}")
for e in result.epochs:
    decided = sum(e.exploit_cubes.values())
    print(f"{e.epoch:>5} {e.length:>6} {e.tolerance:>7.3f} {e.active_cubes[0]:>11} "
          f"{e.active_cubes[1]:>11} {e.active_cubes[2]:>11} {decided:>8}")
print(f"final regret: {result.final_regret:.1f} "
      f"(uniform play would average {(0.8 - np.mean((0.2, 0.5, 0.8))) * config.horizon:.0f})")

# the gap structure shows in when each arm disappears: the 0.2 arm loses to
# the 0.8 arm once the tolerance drops below their 0.6 gap, the 0.5 arm
# only once it drops below 0.3

# --- at two arms run_two_arm is this engine ------------------------------------
env2 = make_smooth_instance("sinusoidal", d=1, frequency=1.0, amplitude=0.4, beta=2.0)
cfg2 = PolicyConfig(beta=2.0, d=1, horizon=2000, arm_count=2)
two = run_two_arm(env2, cfg2, seed=3, record_actions=True)
multi = run_multi_arm(env2, cfg2, seed=3, record_actions=True)
print("\ntwo-arm vs multi-arm on the same seed:")
print("  identical pull sequences:", np.array_equal(two.actions, multi.actions))
print("  identical regret paths:  ", np.array_equal(two.cum_regret, multi.cum_regret))

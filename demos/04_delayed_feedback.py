"""
Delayed output feedback and the guaranteed gain budget
======================================================

Feeding a port-Hamiltonian plant's own output back after a transport delay,
u = -F y(t - tau) + v, produces a delay system with coupling Z = G F G^T.
Before picking F it is worth knowing how large it may get: beta =
1 / ||V1^T G||^2 guarantees that any ||F|| <= beta admits a constructed
memory weight.  The budget is tight -- at the boundary the feasible family
collapses to a single point.
"""

import numpy as np

from phdelay import (
    StandardPHSystem,
    check_feedback_conditions,
    close_delayed_feedback,
    construct_theta,
    feedback_gain_bound,
)

plant = StandardPHSystem(H=[[1.0]], J=[[0.0]], R=[[2.0]], G=[[1.0]])

conditions = check_feedback_conditions(plant.R, plant.G)
print(f"kernel diagnostics: output_kernel_trivial={conditions.output_kernel_trivial}"
      f" kernel_r_in_kernel_gt={conditions.kernel_r_in_kernel_gt}")

beta = feedback_gain_bound(plant.R, plant.G)
print(f"guaranteed gain budget beta = {beta}")
print()

print("  gain   coupling s   alpha interval")
for gain in (0.5, 1.0, 1.9, 2.0, 2.1):
    closed = close_delayed_feedback(plant, [[gain]], tau=1.0)
    out = construct_theta(closed.R, closed.Z)
    if out.success:
        span = f"[{out.interval.lo:.4f}, {out.interval.hi:.4f}]"
    else:
        span = "(construction declined)"
    print(f"  {gain:4.2f}    {out.interval.sigma:.4f}      {span}")
print()

# at exactly beta the interval is the single point alpha = 1/2; past it the
# sufficient condition gives up (which for the scalar plant is also the
# truth: a0 = 2 < |a1| = 2.1 admits no weight at all)
print("the budget is exact for this plant, not merely sufficient")

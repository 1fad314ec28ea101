"""Cross-check the hull test against the determinant sign-change route.

For codimension-one systems with a global frame there is a second,
independent road to the same verdict, the paper's own: the determinant
of the drift against the frame must change sign on every leaf. The
verdict is decided by the hull test; here the determinant route runs on
the very leaves the verdict walked, each grid point from the seed the
verdict gives it, and the two are compared point by point.

This also shows why the simulation oracle is kept separate from the
certificate. On this system x3 moves only at rate sin(x1), so random
trajectories fill that axis slowly, and runs started near the window
boundary plateau well below full coverage at any affordable horizon.
A low coverage number there says the oracle ran out of patience, not
that the certificate is wrong.
"""

from dataclasses import replace

import numpy as np

from geoctrl.criterion import _prepare, criterion_value, global_verdict, sign_change_on_leaf
from geoctrl.flows import StepControl, inflate_window, sample_leaves
from geoctrl.reach import coverage, simulate_reach
from geoctrl.system import load_spec

spec = load_spec("systems/saddle3d.sys")
verdict = global_verdict(spec)

# the family is two fields of rank two: a global frame of the control span
family, _ = _prepare(spec, None, None, None)
points = [p.base for p in verdict.points]
seeds = [
    int(c.generate_state(1, np.uint64)[0])
    for c in np.random.SeedSequence(spec.seed).spawn(len(points))
]
leaves = sample_leaves(
    family,
    points,
    spec.leaf_budget,
    spec.walk_duration(),
    seeds,
    StepControl(window=inflate_window(spec.window)),
)
drift = spec.drifts[0]
det_route = [
    sign_change_on_leaf(leaf, lambda y: criterion_value(drift, family.fields, y))
    for leaf in leaves
]

print("saddle3d:", verdict.status)
agree = [d.condition_holds == p.condition_holds for d, p in zip(det_route, verdict.points)]
print("grid points:", len(agree))
print("hull route and determinant route agree at every point:", all(agree))

# the honest oracle picture: fine from the center, starved at the rim
center = simulate_reach(spec, (0.0, 0.0, 0.0), T=20.0, n_traj=500, seed=0)
print("\nforward coverage from the center at T=20:",
      round(coverage(center, cells_per_axis=8), 3))

backward = replace(spec, drifts=(spec.drifts[0].negate(),))
rim = simulate_reach(backward, (-1.9, -1.9, -1.9), T=20.0, n_traj=500, seed=0)
print("reverse-time coverage from a corner at T=20:",
      round(coverage(rim, cells_per_axis=8), 3))
print("(the slow x3 axis starves the corner run; the certificate stands on"
      " the two agreeing routes above)")

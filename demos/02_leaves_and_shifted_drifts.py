"""Walk a leaf of the control distribution and shift the drift back.

The controllability test never integrates the controlled system
directly. It walks the driftless system (flows of the control fields).
Each walk carries its variational frame, the derivative of the walk so
far, so the drift at a visited point shifts back to the base by one
solve against the visit's frame. The shifted vectors are what the hull
test sees.
"""

import numpy as np

from geoctrl.flows import sample_leaf
from geoctrl.lie import generate_bracket_basis
from geoctrl.fields import VectorField

N3 = ("x1", "x2", "x3")

g = VectorField.parse(("0", "0", "2 + sin(x3)"), N3)
drift = VectorField.parse(("2 + cos(x3)", "sin(x3)", "0"), N3)
fam = generate_bracket_basis([g])

base = np.array([0.0, 0.0, 0.0])
leaf = sample_leaf(fam, base, budget=12, max_duration=1.5, rng_seed=0)

print("leaf through the origin (steering only moves x3, at a varying speed):")
for pt, frame in zip(leaf.points[:6], leaf.frames[:6]):
    # the frame stretches x3 by the speed ratio and leaves x1, x2 alone
    print("  visited", np.round(pt, 3), " frame diagonal", np.round(np.diag(frame), 3))

# one column stack per walk, deepest visit first; None marks a walk
# whose frame is non-finite or too ill-conditioned to solve against
walks = leaf.shifted_drifts([drift])
shifted = np.array([drift(base)] + [col for W in walks if W is not None for col in W.T])
print("\ndrift at the base, then shifted back walk by walk (deepest visit first):")
for row in shifted[:6]:
    print("  ", np.round(row, 3))

# the walks and their frames leave (x1, x2) alone, and the drift has no
# x3 component, so the shifted drifts trace the circle
# (2 + cos, sin): all of them point into x1 > 0
xs = shifted[:, 0]
print("\nx1-components of all shifted drifts: min", round(float(xs.min()), 3))
print("every transported drift pushes forward; no convex combination stalls")

"""Walk a leaf of the control distribution and transport the drift back.

The controllability test never integrates the controlled system
directly. It walks the driftless system (flows of the control fields),
then carries the drift vector from each visited point back to the base
with the variational equation. The collected vectors are what the hull
test sees.
"""

import numpy as np

from geoctrl.flows import StepControl, sample_leaf, transport_walks
from geoctrl.lie import generate_bracket_basis
from geoctrl.fields import VectorField

N3 = ("x1", "x2", "x3")

g = VectorField.parse(("0", "0", "1"), N3)
drift = VectorField.parse(("2 + cos(x3)", "sin(x3)", "0"), N3)
fam = generate_bracket_basis([g])

base = np.array([0.0, 0.0, 0.0])
leaf = sample_leaf(fam, base, budget=12, max_duration=1.5, rng_seed=0)

print("leaf through the origin (steering only moves x3):")
for pt, _word in leaf.visits[:6]:
    print("  visited", np.round(pt, 3))

# one column stack per walk, deepest visit first; None marks a walk
# whose transport failed (nothing fails without a window)
walks = transport_walks(leaf.walks(), fam.generators, [drift], StepControl())
shifted = np.array([drift(base)] + [col for W in walks if W is not None for col in W.T])
print("\ndrift at the base, then shifted back walk by walk (deepest visit first):")
for row in shifted[:6]:
    print("  ", np.round(row, 3))

# heading translation leaves (x1, x2) alone, so the transported drifts
# trace the circle (2 + cos, sin): all of them point into x1 > 0
xs = shifted[:, 0]
print("\nx1-components of all shifted drifts: min", round(float(xs.min()), 3))
print("every transported drift pushes forward; no convex combination stalls")

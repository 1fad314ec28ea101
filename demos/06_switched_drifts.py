"""Drift families: certify a system whose drift can be switched.

A spec file may list several drift lines. The condition then collects
the transported vectors of every family member; a verdict means no
switching signal can trap the state. With the pair {f, -f} the shifted
sets are symmetric, so certification is immediate. A single drift is the
one-element family: `switched_condition` is the one entry for the
condition at a point, whatever the number of drifts.
"""

from geoctrl.criterion import global_verdict, switched_condition
from geoctrl.system import load_spec, loads_spec

switched = load_spec("systems/switched_shear.sys")
print("drifts in the family:",
      [d.component_strings() for d in switched.drifts])
verdict = global_verdict(switched)
print("switched shear:", verdict.status,
      "(%d of %d points certified)" % (
          sum(p.condition_holds for p in verdict.points), len(verdict.points)))

single = loads_spec(
    """
    name = shear
    vars = x1, x2
    drift = x2, 0
    control = 0, 1
    window = -2:2, -2:2
    """,
    "shear",
)
for spec in (single, switched):
    v = switched_condition(spec, (1.0, -1.0), seed=4)
    print("\n%d drift(s) at (1, -1):" % len(spec.drifts), "holds:", v.condition_holds,
          "| samples:", v.samples_used, "| witness:", v.witness["kind"])

"""The paper's codimension-1 route, run on the leaves a verdict walked.

`global_verdict` and `switched_condition` decide by the hull test alone.
Where the bracket family is n - 1 fields of rank n - 1, a global frame
of the control span, the paper reads the same condition off the sign of
the determinant of the drift against that frame on the leaf.
`det_route` walks the leaves of the given points again, each from its
own seed with the spec's budget, duration and step control, as the
verdict walks them, and runs `sign_change_on_leaf` with
`criterion_value` on each. `assert_routes_agree` holds a grid verdict
to it point by point.
"""

from __future__ import annotations

from geoctrl import criterion
from geoctrl.criterion import criterion_value, sign_change_on_leaf
from geoctrl.flows import _spawned_states, sample_leaves


def det_route(spec, points, seeds, leaf_budget=None):
    """The determinant route's `PointVerdict` at each point, from its seed."""
    family, regularity = criterion._prepare(spec, None, None, None)
    assert len(spec.drifts) == 1
    assert regularity.rank == len(family.fields) == spec.dim - 1, "no global frame"
    leaves = sample_leaves(
        family,
        points,
        leaf_budget or spec.leaf_budget,
        spec.walk_duration(),
        seeds,
        criterion._step_control(spec),
    )
    f = spec.drifts[0]
    return [
        sign_change_on_leaf(leaf, lambda y: criterion_value(f, family.fields, y))
        for leaf in leaves
    ]


def assert_routes_agree(spec, verdict, seed=None, leaf_budget=None):
    """Every point of `global_verdict(spec, seed=seed, leaf_budget=...)` is
    free of error, and the determinant route on its leaf agrees with it."""
    points = verdict.points
    assert points and all(p.error is None for p in points)
    seeds = _spawned_states(spec.seed if seed is None else seed, len(points))[:, 0].tolist()
    routes = det_route(spec, [p.base for p in points], seeds, leaf_budget)
    assert [d.condition_holds for d in routes] == [p.condition_holds for p in points]

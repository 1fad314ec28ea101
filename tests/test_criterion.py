"""Determinant criterion, quotient convex-position test, and the
supporting-distribution verifier."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoctrl import criterion
from geoctrl.criterion import (
    NO_LEAF_EVIDENCE,
    STATUS_CONTROLLABLE,
    STATUS_INCONCLUSIVE,
    STATUS_NOT_REGULAR,
    STATUS_UNCONTROLLABLE,
    criterion_value,
    global_verdict,
    interior_convex_test,
    quotient_projection,
    sign_change_on_leaf,
    switched_condition,
    verify_supporting_distribution,
)
from geoctrl.expr import EvalDomainError
from geoctrl.fields import VectorField
from geoctrl.flows import (
    MAX_FRAME_COND,
    LeafSample,
    Segment,
    fields_equal,
    sample_leaf,
    sample_leaves,
)
from geoctrl.lie import NotRegularError, generate_bracket_basis, matrix_rank
from geoctrl.report import run_pipeline
from geoctrl.system import SystemSpec, load_spec, loads_spec

from det_route import assert_routes_agree, det_route

SYS_DIR = Path(__file__).resolve().parents[1] / "systems"

N2 = ("x1", "x2")
N3 = ("x1", "x2", "x3")
PI = float(np.pi)


def planar_shear() -> SystemSpec:
    return SystemSpec(
        name="shear",
        var_names=N2,
        drifts=(VectorField.parse(["x2", "0"], N2),),
        controls=(VectorField.parse(["0", "1"], N2),),
        window=((-2.0, 2.0), (-2.0, 2.0)),
        assume_not_dense=True,
    )


def planar_forward() -> SystemSpec:
    return SystemSpec(
        name="forward",
        var_names=N2,
        drifts=(VectorField.parse(["1 + x2^2", "0"], N2),),
        controls=(VectorField.parse(["0", "1"], N2),),
        window=((-2.0, 2.0), (-2.0, 2.0)),
        assume_not_dense=True,
    )


def unicycle(offset: float = 0.0, rotate: float = 0.0) -> SystemSpec:
    """Unit-speed car, optional forward drift offset.

    `rotate` applies a rotation of the x1-x2 plane to the whole system;
    the square window is preserved for multiples of pi/2.
    """
    ox = float(offset * np.cos(rotate))
    oy = float(offset * np.sin(rotate))
    phase = f" + {rotate!r}" if rotate else ""
    f1 = f"cos(x3{phase})" if offset == 0 else f"{ox!r} + cos(x3{phase})"
    f2 = f"sin(x3{phase})" if offset == 0 else f"{oy!r} + sin(x3{phase})"
    return SystemSpec(
        name="unicycle",
        var_names=N3,
        drifts=(VectorField.parse([f1, f2, "0"], N3),),
        controls=(VectorField.parse(["0", "0", "1"], N3),),
        window=((-2.0, 2.0), (-2.0, 2.0), (-PI, PI)),
        assume_not_dense=True,
    )


# --- criterion_value -------------------------------------------------------


def test_criterion_value_planar_is_x2():
    f = VectorField.parse(["x2", "0"], N2)
    g = VectorField.parse(["0", "1"], N2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        # hand 2x2 determinant as the oracle
        expected = f(x)[0] * g(x)[1] - f(x)[1] * g(x)[0]
        assert np.isclose(criterion_value(f, [g], x), expected, atol=1e-12)
        assert np.isclose(criterion_value(f, [g], x), x[1], atol=1e-12)


def test_criterion_value_saddle_is_sin_x1():
    f = VectorField.parse(["0", "0", "sin(x1)"], N3)
    g1 = VectorField.parse(["1", "0", "0"], N3)
    g2 = VectorField.parse(["0", "1", "0"], N3)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=3)
        assert np.isclose(criterion_value(f, [g1, g2], x), np.sin(x[0]), atol=1e-12)


def test_criterion_value_repeated_column_vanishes():
    g = VectorField.parse(["0", "1"], N2)
    assert criterion_value(g, [g], [0.3, 0.8]) == 0.0


def test_criterion_value_wrong_field_count():
    f = VectorField.parse(["x2", "0"], N2)
    with pytest.raises(ValueError):
        criterion_value(f, [], [0.0, 0.0])


def test_criterion_value_alternating_and_homogeneous():
    f = VectorField.parse(["0", "0", "sin(x1)"], N3)
    g1 = VectorField.parse(["1", "0", "x2"], N3)
    g2 = VectorField.parse(["0", "1", "x1"], N3)
    x = np.array([0.7, -0.4, 0.2])
    c = criterion_value(f, [g1, g2], x)
    swapped = criterion_value(f, [g2, g1], x)
    assert np.isclose(swapped, -c, atol=1e-12)
    f3 = VectorField.parse(["0", "0", "3*sin(x1)"], N3)
    assert np.isclose(criterion_value(f3, [g1, g2], x), 3 * c, atol=1e-12)
    fneg = f.negate()
    assert np.isclose(criterion_value(fneg, [g1, g2], x), -c, atol=1e-12)


# --- sign_change_on_leaf ---------------------------------------------------


def _fake_leaf(base, visit_points):
    visits = tuple(
        (np.asarray(p, dtype=float), (Segment(0, 1, 0.1),)) for p in visit_points
    )
    return LeafSample(base=np.asarray(base, dtype=float), visits=visits, discarded=0)


def test_sign_change_detects_pair():
    leaf = _fake_leaf([0.1, 0.0], [[0.5, 0.0], [-0.3, 0.0]])
    v = sign_change_on_leaf(leaf, lambda p: p[0])
    assert v.condition_holds
    assert v.witness["kind"] == "sign_change"
    assert np.isclose(v.witness["value_pos"], 0.5)
    assert np.isclose(v.witness["value_neg"], -0.3)


def test_sign_change_ignores_values_inside_eps_band():
    leaf = _fake_leaf([0.5, 0.0], [[0.2, 0.0], [1e-12, 0.0]])
    v = sign_change_on_leaf(leaf, lambda p: p[0], eps_sign=1e-9)
    assert not v.condition_holds
    assert v.witness["kind"] == "no_sign_change"


def test_sign_change_verdict_invariant_under_scaling():
    leaf = _fake_leaf([0.1, 0.0], [[0.5, 0.0], [-0.3, 0.0], [0.0, 0.9]])
    base = sign_change_on_leaf(leaf, lambda p: p[0])
    doubled = sign_change_on_leaf(leaf, lambda p: 2.0 * p[0])
    flipped = sign_change_on_leaf(leaf, lambda p: -p[0])
    assert base.condition_holds == doubled.condition_holds == flipped.condition_holds


def test_sign_change_stops_at_the_first_point_that_decides():
    leaf = _fake_leaf([0.1, 0.0], [[0.5, 0.0], [-0.3, 0.0], [-0.9, 0.0], [2.0, 0.0]])
    seen = []

    def C(p):
        seen.append(float(p[0]))
        if p[0] == -0.9:
            raise AssertionError("evaluated past the deciding point")
        return p[0]

    v = sign_change_on_leaf(leaf, C)
    assert v.condition_holds and seen == [0.1, 0.5, -0.3] and v.samples_used == 3
    assert (v.witness["value_pos"], v.witness["value_neg"]) == (0.5, -0.3)


def test_sign_change_treats_nan_as_max_and_min_do():
    nan = float("nan")
    first = lambda p: p[0]  # noqa: E731
    # a nan at the base is the pick of both max and min: no sign change
    at_base = sign_change_on_leaf(_fake_leaf([nan, 0.0], [[0.5, 0.0], [-0.3, 0.0]]), first)
    assert not at_base.condition_holds and at_base.samples_used == 3
    assert math.isnan(at_base.witness["value_min"]) and math.isnan(at_base.witness["value_max"])
    # a later nan is passed over
    later = sign_change_on_leaf(_fake_leaf([0.1, 0.0], [[nan, 0.0], [-0.3, 0.0]]), first)
    assert later.condition_holds and later.witness["value_pos"] == 0.1


def test_sign_change_on_real_shear_leaf():
    g = VectorField.parse(["0", "1"], N2)
    fam = generate_bracket_basis([g])
    f = VectorField.parse(["x2", "0"], N2)
    leaf = sample_leaf(fam, [0.0, 0.0], budget=16, max_duration=1.0, rng_seed=0)
    v = sign_change_on_leaf(leaf, lambda p: criterion_value(f, [g], p))
    assert v.condition_holds


# --- quotient_projection ---------------------------------------------------


def test_quotient_of_vertical_span_is_first_coordinate():
    Q = quotient_projection([[0.0, 1.0]])
    assert Q.shape == (1, 2)
    assert np.allclose(Q, [[1.0, 0.0]], atol=1e-12)


def test_quotient_of_e3_span_in_r3():
    Q = quotient_projection([[0.0, 0.0, 1.0]])
    assert Q.shape == (2, 3)
    assert np.allclose(Q @ np.array([0.0, 0.0, 1.0]), 0.0, atol=1e-12)
    assert np.allclose(Q @ Q.T, np.eye(2), atol=1e-12)
    for v in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        assert np.isclose(np.linalg.norm(Q @ v), 1.0, atol=1e-12)


def test_quotient_full_rank_is_empty():
    Q = quotient_projection(np.eye(3))
    assert Q.shape == (0, 3)


def test_quotient_rank_mismatch_raises():
    with pytest.raises(NotRegularError):
        quotient_projection([[0.0, 1.0]], expected_rank=2)


def test_quotient_deterministic_frame():
    M = np.array([[1.0, 0.5], [0.2, -0.3], [0.1, 0.9]])
    a = quotient_projection(M)
    b = quotient_projection(M)
    assert np.array_equal(a, b)


def test_a_stack_of_frames_is_each_matrix_alone():
    # one batched SVD gives each point the frame and the rank it gets alone
    rng = np.random.default_rng(8)
    M = rng.standard_normal((60, 3, 2))
    M[::4, :, 1] = 2.0 * M[::4, :, 0]  # rank 1
    M[::7] = 0.0  # rank 0
    frames = quotient_projection(M)
    assert len(frames) == 60
    for A, Q in zip(M, frames):
        alone = quotient_projection(A)
        assert Q.shape == alone.shape and Q.tobytes() == alone.tobytes()
    assert [len(Q) for Q in frames[:8]] == [3, 1, 1, 1, 2, 1, 1, 3]
    assert matrix_rank(M).tolist() == [matrix_rank(A) for A in M]


def test_a_stack_refuses_its_first_contradicting_rank():
    M = np.array([[[0.0], [1.0]], [[0.0], [0.0]], [[1.0], [1.0]]])
    with pytest.raises(NotRegularError, match="span rank 0 at this point contradicts the audited rank 1"):
        quotient_projection(M, expected_rank=1)


def test_grid_frames_errors_and_ranks_come_from_one_stack():
    # the control (0, x1) has rank 0 on the x1 = 0 line: a point there is
    # an errored verdict with the message the one-point projection raises
    spec = loads_spec(
        "vars = x1, x2\ndrift = 1, 0\ncontrol = 0, x1\nwindow = -1:1, -1:1\nleaf_budget = 4\n"
    )
    family = generate_bracket_basis(spec.controls)
    pts = np.array([[0.5, 0.0], [0.0, 0.3], [-0.5, 0.2]])
    verdicts = criterion._point_verdicts(
        spec, family, 1, pts, [0, 1, 2], 4, criterion._step_control(spec)
    )
    with pytest.raises(NotRegularError) as alone:
        quotient_projection(family.evaluate_matrix(pts[1]), expected_rank=1)
    assert [v.error for v in verdicts] == [None, str(alone.value), None]
    for v, x in zip(verdicts, pts):
        want = quotient_projection(family.evaluate_matrix(x))
        assert v.quotient_frame.tobytes() == (want.tobytes() if v.error is None else b"")


# --- interior_convex_test --------------------------------------------------


def test_interior_k1_examples():
    inside, wit = interior_convex_test(np.array([[0.5], [-0.3]]), margin=1e-6)
    assert inside and wit == {"kind": "interior", "value_pos": 0.5, "value_neg": -0.3}
    inside, wit = interior_convex_test(np.array([[0.5], [0.2]]), margin=1e-6)
    assert not inside and wit == {"kind": "separating", "covector": [1.0]}
    inside, wit = interior_convex_test(np.array([[-0.5], [1e-7]]), margin=1e-6)
    assert not inside and wit == {"kind": "separating", "covector": [-1.0]}


def test_interior_k2_eighth_roots():
    ang = np.arange(8) * (2 * PI / 8)
    P = np.column_stack([np.cos(ang), np.sin(ang)])
    inside, wit = interior_convex_test(P)
    assert inside and wit["kind"] == "interior" and set(wit) == {"kind", "max_angular_gap"}
    assert wit["max_angular_gap"] == pytest.approx(PI / 4, abs=1e-12)
    # one root fewer leaves a gap of pi/2, four fewer in a row one of 5pi/4
    inside, wit = interior_convex_test(P[1:])
    assert inside and wit["max_angular_gap"] == pytest.approx(PI / 2, abs=1e-12)
    inside, wit = interior_convex_test(P[4:])
    assert not inside and wit["kind"] == "separating"


def test_interior_k2_shifted_circle_witness():
    ang = np.arange(8) * (2 * PI / 8)
    P = np.column_stack([2 + np.cos(ang), np.sin(ang)])
    inside, wit = interior_convex_test(P)
    assert not inside and set(wit) == {"kind", "covector"} and wit["kind"] == "separating"
    d = np.array(wit["covector"])
    assert np.allclose(d, [1.0, 0.0], atol=1e-9)
    assert np.all(P @ d >= -1e-7)


def test_interior_empty_raises():
    with pytest.raises(ValueError):
        interior_convex_test(np.zeros((0, 2)))


def test_interior_k2_matches_brute_force():
    # exactness against a dense direction scan; near-ties are excluded
    # because a finite scan cannot resolve them
    angles = np.linspace(0, 2 * PI, 10_000, endpoint=False)
    D = np.column_stack([np.cos(angles), np.sin(angles)])
    margin = 1e-7
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(1000):
        m = int(rng.integers(2, 10))
        P = rng.uniform(-1, 1, size=(m, 2))
        support = (P @ D.T).max(axis=0)
        brute = bool(support.min() > margin)
        ang = np.sort(np.arctan2(P[:, 1], P[:, 0]))
        gaps = np.diff(ang, append=ang[0] + 2 * PI)
        if abs(gaps.max() - PI) < 1e-3 or np.linalg.norm(P, axis=1).min() < 1e-3:
            continue
        inside, _ = interior_convex_test(P, margin)
        assert inside == brute, f"disagreement on {P!r}"
        checked += 1
    assert checked > 900


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 4))
def test_interior_monotone_under_extra_points(seed, k):
    rng = np.random.default_rng(seed)
    P = rng.uniform(-1, 1, size=(int(rng.integers(2, 8)), k))
    inside, _ = interior_convex_test(P)
    extra = rng.uniform(-1, 1, size=(3, k))
    grown, _ = interior_convex_test(np.vstack([P, extra]))
    if inside:
        assert grown


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 4))
def test_interior_certificate_reads_the_tested_points(seed, k):
    rng = np.random.default_rng(seed)
    margin = criterion.DEFAULT_MARGIN
    P = rng.uniform(-1, 1, size=(int(rng.integers(2, 12)), k))
    inside, wit = interior_convex_test(P, margin)
    if not inside:
        assert wit["kind"] == "separating" and np.all(P @ np.array(wit["covector"]) >= -margin)
        return
    assert wit["kind"] == "interior"
    if k == 1:
        assert wit == {"kind": "interior", "value_pos": P.max(), "value_neg": P.min()}
        assert wit["value_pos"] > margin and wit["value_neg"] < -margin
    elif k == 2:
        big = P[np.hypot(P[:, 0], P[:, 1]) > margin]
        ang = sorted(math.atan2(q[1], q[0]) for q in big)
        gaps = [b - a for a, b in zip(ang, ang[1:] + [ang[0] + 2 * PI])]
        assert set(wit) == {"kind", "max_angular_gap"}
        assert wit["max_angular_gap"] == pytest.approx(max(gaps), abs=1e-12)
        assert wit["max_angular_gap"] < PI
    else:
        support = (P @ criterion._direction_design(k).T).max(axis=0)
        assert wit == {
            "kind": "interior",
            "design_support_min": float(support.min()),
            "approximate": True,
        }
        assert wit["design_support_min"] > margin


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 4))
def test_interior_witness_is_valid_post_hoc(seed, k):
    rng = np.random.default_rng(seed)
    P = rng.uniform(0.05, 1, size=(int(rng.integers(2, 8)), k))  # first orthant
    inside, wit = interior_convex_test(P)
    assert not inside and wit["kind"] == "separating"
    d = np.array(wit["covector"])
    assert d.shape == (k,) and all(type(c) is float for c in wit["covector"])
    assert np.isclose(np.linalg.norm(d), 1.0, atol=1e-9)
    assert np.all(P @ d >= -1e-7)


def test_interior_k3_cross_polytope_and_halfspace():
    P = np.vstack([2 * np.eye(3), -2 * np.eye(3)])
    inside, wit = interior_convex_test(P)
    assert inside and wit["kind"] == "interior" and wit["approximate"] is True
    # the design holds the +-axes, whose support is 2, and unit directions,
    # whose support over the cross-polytope is 2 * max |d_i| >= 2 / sqrt(3)
    design = criterion._direction_design(3)
    assert wit["design_support_min"] == float((P @ design.T).max(axis=0).min())
    assert 2 / np.sqrt(3) - 1e-12 <= wit["design_support_min"] < 2.0
    shifted = P + np.array([5.0, 0.0, 0.0])
    inside, wit = interior_convex_test(shifted)
    assert not inside and wit["kind"] == "separating"
    assert np.all(shifted @ np.array(wit["covector"]) >= -1e-7)


# --- the condition at one point ---------------------------------------------


def test_condition_unicycle_origin_holds():
    v = switched_condition(unicycle(), [0.0, 0.0, 0.0], leaf_budget=24, seed=0)
    assert v.condition_holds
    assert v.witness["kind"] == "interior"
    assert v.witness["max_angular_gap"] < PI


def test_condition_offset_unicycle_fails_with_forward_witness():
    v = switched_condition(unicycle(offset=2.0), [0.0, 0.0, 0.0], leaf_budget=24, seed=0)
    assert not v.condition_holds
    assert v.witness["kind"] == "separating"
    d = np.array(v.witness["covector"])
    ambient = v.quotient_frame.T @ d
    assert abs(ambient[0]) > 0.95 and abs(ambient[2]) < 1e-9
    # the covector blames the unremovable forward drift component
    f = VectorField.parse(["2 + cos(x3)", "sin(x3)", "0"], N3)
    for s in np.linspace(-PI, PI, 17):
        proj = v.quotient_frame @ f(np.array([0.0, 0.0, s]))
        assert proj @ d >= -1e-7


def test_condition_shear_origin_holds_and_det_route_agrees():
    v = switched_condition(planar_shear(), [0.0, 0.0], leaf_budget=16, seed=0)
    assert v.condition_holds and v.error is None
    (d,) = det_route(planar_shear(), [[0.0, 0.0]], [0], leaf_budget=16)
    assert d.condition_holds


def test_switched_pair_certifies_where_single_drift_fails():
    f = VectorField.parse(["1 + x2^2", "0"], N2)
    base = planar_forward()
    single = switched_condition(base, [0.0, 0.0], leaf_budget=16, seed=2)
    assert not single.condition_holds
    switched = SystemSpec(
        name="sw",
        var_names=N2,
        drifts=(f, f.negate()),
        controls=(VectorField.parse(["0", "1"], N2),),
        window=((-2.0, 2.0), (-2.0, 2.0)),
    )
    v = switched_condition(switched, [0.0, 0.0], leaf_budget=16, seed=2)
    assert v.condition_holds


def test_rotational_equivariance_of_condition():
    # rotating the plane by pi/2 maps the system onto itself up to a
    # heading shift; booleans must match at mapped points under one seed
    p = np.array([0.5, 0.3, 0.2])
    R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    a = switched_condition(unicycle(), p, leaf_budget=16, seed=7)
    b = switched_condition(unicycle(rotate=PI / 2), R @ p, leaf_budget=16, seed=7)
    assert a.condition_holds == b.condition_holds
    ao = switched_condition(unicycle(offset=2.0), p, leaf_budget=16, seed=7)
    bo = switched_condition(unicycle(offset=2.0, rotate=PI / 2), R @ p, leaf_budget=16, seed=7)
    assert ao.condition_holds == bo.condition_holds is False


def test_separating_witness_rotates_with_the_system():
    turn = 0.4
    v = switched_condition(unicycle(offset=2.0, rotate=turn), [0.0, 0.0, 0.0], leaf_budget=32, seed=0)
    assert not v.condition_holds
    ambient = v.quotient_frame.T @ np.array(v.witness["covector"])
    expected = np.array([np.cos(turn), np.sin(turn), 0.0])
    assert np.allclose(ambient, expected, atol=0.05) or np.allclose(
        ambient, -expected, atol=0.05
    )


# --- global_verdict --------------------------------------------------------


def test_global_verdict_shear_controllable():
    out = global_verdict(planar_shear(), grid_per_axis=5, leaf_budget=24)
    assert out.status == STATUS_CONTROLLABLE
    assert all(p.condition_holds for p in out.points)
    assert_routes_agree(planar_shear(), out, leaf_budget=24)
    assert out.assumptions["leaves_not_dense_asserted"] is True


def test_global_verdict_forward_uncontrollable():
    out = global_verdict(planar_forward(), grid_per_axis=4, leaf_budget=16)
    assert out.status == STATUS_UNCONTROLLABLE
    assert all(not p.condition_holds for p in out.points)
    failing = out.points[0]
    assert failing.witness["kind"] == "separating"


@pytest.mark.parametrize(("name", "grid"), [("planar_shear", 3), ("saddle3d", 2)])
def test_the_verdict_does_not_run_the_determinant_route(name, grid, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the determinant route ran")

    monkeypatch.setattr(criterion, "sign_change_on_leaf", refuse)
    monkeypatch.setattr(criterion, "criterion_value", refuse)
    out = global_verdict(load_spec(SYS_DIR / f"{name}.sys"), grid_per_axis=grid)
    assert out.status == STATUS_CONTROLLABLE
    assert all(p.condition_holds and p.error is None for p in out.points)


def test_global_verdict_not_regular_short_circuits():
    sys_ = SystemSpec(
        name="sing",
        var_names=N2,
        drifts=(VectorField.parse(["1", "0"], N2),),
        controls=(
            VectorField.parse(["1", "0"], N2),
            VectorField.parse(["0", "x1"], N2),
        ),
        window=((-2.0, 2.0), (-2.0, 2.0)),
    )
    out = global_verdict(sys_, grid_per_axis=5)
    assert out.status == STATUS_NOT_REGULAR
    assert out.points == ()


def test_global_verdict_deterministic():
    a = global_verdict(planar_shear(), grid_per_axis=3, leaf_budget=8, seed=1)
    b = global_verdict(planar_shear(), grid_per_axis=3, leaf_budget=8, seed=1)
    assert a.status == b.status
    for pa, pb in zip(a.points, b.points):
        assert pa.condition_holds == pb.condition_holds
        assert pa.samples_used == pb.samples_used
        assert pa.witness == pb.witness


# the controllable shear, sped up: every walk segment leaves the small window
FAST_SHEAR = """\
name = fast_shear
vars = x1, x2
drift = x2, 0
control = 0, 1000
window = -0.001:0.001, -0.001:0.001
assume_not_dense = true
grid = 2
leaf_budget = 8
"""


def test_no_leaf_evidence_is_an_error_not_a_witness():
    spec = loads_spec(FAST_SHEAR)
    out = global_verdict(spec)
    assert out.status == STATUS_INCONCLUSIVE
    assert len(out.points) == 4
    for p in out.points:
        assert p.error == NO_LEAF_EVIDENCE
        assert not p.condition_holds
        assert p.witness is None
        assert p.samples_used == 1
    report = run_pipeline(spec, "check")
    assert report.payload["verdict"]["status"] == STATUS_INCONCLUSIVE
    assert report.payload["witnesses"] == []
    assert report.payload["oracle"]["status"] == "UNTESTED"


def test_points_without_leaf_evidence_defer_to_proper_failures(monkeypatch):
    # no walk from the left column (x1 = -2, kept along the leaf) shifts
    shifted = LeafSample.shifted_drifts

    def lose_left_column(leaf, drifts):
        for W in shifted(leaf, drifts):
            yield None if leaf.base[0] == -2.0 else W

    monkeypatch.setattr(LeafSample, "shifted_drifts", lose_left_column)
    out = global_verdict(planar_forward(), grid_per_axis=3, leaf_budget=6)
    assert out.status == STATUS_UNCONTROLLABLE
    for p in out.points:
        if p.base[0] == -2.0:
            assert p.error == NO_LEAF_EVIDENCE and p.witness is None
        else:
            assert p.error is None and p.witness["kind"] == "separating"
    monkeypatch.setattr(LeafSample, "shifted_drifts", lambda leaf, drifts: [None] * len(leaf.walks()))
    out = global_verdict(planar_forward(), grid_per_axis=3, leaf_budget=6)
    assert out.status == STATUS_INCONCLUSIVE
    assert all(p.error == NO_LEAF_EVIDENCE for p in out.points)


def _contracting(rate: int) -> SystemSpec:
    # along +g, x1 decays at `rate`, so a walk's frame reaches condition
    # number about exp(rate * t) after net time t along g
    return loads_spec(
        f"vars = x1, x2\ndrift = 1, 0\ncontrol = -{rate}*x1, 1\n"
        "window = -2:2, -2:2\nleaf_budget = 6\n"
    )


def test_an_ill_conditioned_frame_fails_its_walk():
    x = [1.0, 0.0]
    spec = _contracting(100)
    v = switched_condition(spec, x, seed=0)
    assert v.error == NO_LEAF_EVIDENCE and v.samples_used == 1
    # the walks were made; each fails at a visit whose frame is past the bound
    family, _ = criterion._prepare(spec, None, None, None)
    leaf = sample_leaf(family, x, 6, spec.walk_duration(), 0, criterion._step_control(spec))
    walks = leaf.walks()
    assert len(walks) == 6
    start = 0
    for walk in walks:
        frames = leaf.frames[start : start + len(walk)]
        start += len(walk)
        assert max(np.linalg.cond(F) for F in frames) > MAX_FRAME_COND
    assert list(leaf.shifted_drifts(spec.drifts)) == [None] * 6
    # a gentle contraction keeps its frames, and the point its evidence
    gentle = switched_condition(_contracting(1), x, seed=0)
    assert gentle.error is None and gentle.samples_used > 1


# --- verify_supporting_distribution ---------------------------------------


def test_verifier_accepts_constant_candidate():
    rep = verify_supporting_distribution(
        unicycle(offset=2.0), [VectorField.parse(["0", "1", "0"], N3)]
    )
    assert rep.accepted
    assert all(rep.clauses.values())
    assert rep.failed_clause is None
    assert "not globally controllable" in rep.conclusion
    assert rep.details["one_sided_worst_margin"] >= 1.0 - 1e-6


def test_verifier_rejects_non_invariant_candidate_at_clause_b():
    rep = verify_supporting_distribution(
        unicycle(offset=2.0), [VectorField.parse(["0", "x3", "0"], N3)]
    )
    assert not rep.accepted
    assert rep.failed_clause == "control_invariance"
    assert "rejected" in rep.conclusion


def test_verifier_rejects_candidate_inside_control_span():
    rep = verify_supporting_distribution(
        unicycle(offset=2.0), [VectorField.parse(["0", "0", "1"], N3)]
    )
    assert not rep.accepted
    assert rep.failed_clause == "complement_rank"


def test_verifier_rejects_drift_inside_lie_closure():
    # S = (1,0,0) is G-invariant and transverse, but Lie(S) absorbs a
    # drift pointing along x1
    sys_ = SystemSpec(
        name="axis",
        var_names=N3,
        drifts=(VectorField.parse(["1", "0", "0"], N3),),
        controls=(VectorField.parse(["0", "0", "1"], N3),),
        window=((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)),
    )
    rep = verify_supporting_distribution(sys_, [VectorField.parse(["1", "0", "0"], N3)])
    assert not rep.accepted
    assert rep.failed_clause in ("one_sided_drift", "drift_outside_closure")


def test_verifier_wrong_candidate_count():
    with pytest.raises(ValueError):
        verify_supporting_distribution(
            unicycle(offset=2.0),
            [
                VectorField.parse(["0", "1", "0"], N3),
                VectorField.parse(["1", "0", "0"], N3),
            ],
        )


def test_verifier_needs_codimension_two():
    with pytest.raises(ValueError):
        verify_supporting_distribution(
            planar_forward(), [VectorField.parse(["1", "0"], N2)]
        )


# --- leaf walks as lanes -----------------------------------------------------


def _one_leaf_at_a_time(family, points, budget, max_duration, seeds, step=None):
    return [
        leaf
        for p, seed in zip(points, seeds)
        for leaf in sample_leaves(family, [p], budget, max_duration, [seed], step)
    ]


def _point_fields(gv):
    return [
        (
            p.base.tobytes(),
            p.condition_holds,
            p.witness,
            p.samples_used,
            p.quotient_frame.tobytes(),
            p.error,
        )
        for p in gv.points
    ]


@pytest.mark.parametrize("name", ["planar_shear", "planar_forward", "saddle3d", "unicycle_offset"])
def test_global_verdict_does_not_depend_on_the_walk_pool(name, monkeypatch):
    spec = load_spec(SYS_DIR / f"{name}.sys")
    pooled = global_verdict(spec, grid_per_axis=2)
    monkeypatch.setattr(criterion, "sample_leaves", _one_leaf_at_a_time)
    alone = global_verdict(spec, grid_per_axis=2)
    assert pooled.status == alone.status
    assert _point_fields(pooled) == _point_fields(alone)
    if name != "unicycle_offset":  # codimension 1, with a global frame
        assert_routes_agree(spec, pooled)


def test_verifier_does_not_depend_on_the_walk_pool(monkeypatch):
    spec = load_spec(SYS_DIR / "unicycle_offset.sys")
    S = VectorField.parse(["0", "1", "0"], spec.var_names)
    pooled = verify_supporting_distribution(spec, [S], grid_per_axis=3)
    monkeypatch.setattr(criterion, "sample_leaves", _one_leaf_at_a_time)
    alone = verify_supporting_distribution(spec, [S], grid_per_axis=3)
    assert pooled.accepted
    assert pooled == alone


# --- the bisected fold ---------------------------------------------------------


def _sequential_verdict(x, Q, leaf, drifts, margin):
    """The fold that `_leaf_verdict` bisects, kept here as its reference:
    walks fold in walk order, one hull test each, until the hull is
    inside, and the witness is the certificate of the last hull test."""
    collected = np.array([Q @ f(x) for f in drifts])
    inside, witness = interior_convex_test(collected, margin)
    folded = 0
    for moved in () if inside else leaf.shifted_drifts(drifts):
        if moved is None:
            continue
        folded += 1
        collected = np.vstack([collected, (Q @ moved).T])
        inside, witness = interior_convex_test(collected, margin)
        if inside:
            break
    if not inside and not folded:
        return criterion.PointVerdict(
            base=x,
            condition_holds=False,
            witness=None,
            samples_used=len(collected),
            quotient_frame=Q,
            error=NO_LEAF_EVIDENCE,
        )
    return criterion.PointVerdict(
        base=x,
        condition_holds=inside,
        witness=witness,
        samples_used=len(collected),
        quotient_frame=Q,
    )


class _Stacks:
    """A leaf stand-in whose walks shift to the given column stacks."""

    def __init__(self, stacks):
        self.stacks = stacks

    def shifted_drifts(self, drifts):
        yield from self.stacks


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bisected_fold_equals_the_sequential_fold_on_random_sets(k):
    names = tuple(f"x{i + 1}" for i in range(k))
    Q = np.eye(k)
    x = np.zeros(k)
    closed_late = opened = empty = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        # a bias keeps some hulls open and makes others close late
        bias = rng.uniform(0.0, 2.5) * rng.standard_normal(k)
        stacks = [
            None
            if rng.random() < 0.15
            else rng.standard_normal((k, int(rng.integers(1, 4)))) + bias[:, None]
            for _ in range(int(rng.integers(0, 14)))
        ]
        drift = VectorField.constant(bias + 0.3 * rng.standard_normal(k), names)
        leaf = _Stacks(stacks)
        args = (x, Q, leaf, [drift], criterion.DEFAULT_MARGIN)
        got = criterion._leaf_verdict(*args)
        want = _sequential_verdict(*args)
        assert fields_equal(got, want), seed
        first = next((s.shape[1] for s in stacks if s is not None), 0)
        closed_late += bool(want.condition_holds and want.samples_used > 1 + first)
        opened += bool(want.error is None and not want.condition_holds)
        empty += want.error == NO_LEAF_EVIDENCE
    assert closed_late > 10 and opened > 10 and empty > 5


@pytest.mark.parametrize("name", sorted(p.stem for p in SYS_DIR.glob("*.sys")))
def test_bisected_fold_equals_the_sequential_fold_on_bundled_systems(name, monkeypatch):
    spec = load_spec(SYS_DIR / f"{name}.sys")
    for seed in (0, 3, 7):
        got = global_verdict(spec, grid_per_axis=3, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(criterion, "_leaf_verdict", _sequential_verdict)
            want = global_verdict(spec, grid_per_axis=3, seed=seed)
        assert got.status == want.status
        assert len(got.points) == len(want.points) == 3**spec.dim
        for p, q in zip(got.points, want.points):
            assert fields_equal(p, q)


# the quotient of control (0, 1) reads the drift's first component, x2;
# its second component ln(1 - x1) is undefined at x1 >= 1
_LN_DRIFT = VectorField.parse(["x2", "ln(1 - x1)"], N2)


def _one_visit_walks(*points):
    seg = Segment(0, 1, 0.5)
    return LeafSample(
        base=np.zeros(2), visits=tuple((np.array(p), (seg,)) for p in points), discarded=0
    )


def test_a_drift_undefined_past_the_closing_walk_does_not_raise():
    # walks 1 and 2 close the hull (x2 = 1 and -1); walk 3 is undefined
    leaf = _one_visit_walks([0.5, 1.0], [0.5, -1.0], [2.0, 0.5])
    with pytest.raises(EvalDomainError):
        list(leaf.shifted_drifts([_LN_DRIFT]))
    args = (leaf.base, np.array([[1.0, 0.0]]), leaf, [_LN_DRIFT], 1e-7)
    got = criterion._leaf_verdict(*args)
    assert got.condition_holds and got.samples_used == 3
    assert fields_equal(got, _sequential_verdict(*args))


def test_a_drift_undefined_before_the_closing_walk_raises_as_the_fold_did():
    leaf = _one_visit_walks([0.5, 1.0], [2.0, -1.0], [0.5, -1.0])
    args = (leaf.base, np.array([[1.0, 0.0]]), leaf, [_LN_DRIFT], 1e-7)
    with pytest.raises(EvalDomainError) as want:
        _sequential_verdict(*args)
    with pytest.raises(EvalDomainError) as got:
        criterion._leaf_verdict(*args)
    assert str(got.value) == str(want.value) == "ln of nonpositive value -1.0"

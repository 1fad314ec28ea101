"""Vector fields: Jacobians, Lie brackets, compiled kernels."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from geoctrl.expr import EvalDomainError, _emit, evaluate, to_string
from geoctrl.fields import VectorField, evaluate_fields, jacobian, lie_bracket
from geoctrl.system import load_spec

N2 = ("x1", "x2")
N3 = ("x1", "x2", "x3")


def _grid(J, names, p):
    return np.array([[evaluate(e, p) for e in row] for row in J])


def test_jacobian_shear():
    V = VectorField.parse(["x2", "0"], N2)
    J = jacobian(V)
    assert _grid(J, N2, (0.3, -1.2)).tolist() == [[0.0, 1.0], [0.0, 0.0]]


def test_jacobian_heading_field():
    V = VectorField.parse(["cos(x3)", "sin(x3)", "0"], N3)
    J = jacobian(V)
    th = 0.85
    got = _grid(J, N3, (0.0, 0.0, th))
    want = np.array(
        [[0, 0, -np.sin(th)], [0, 0, np.cos(th)], [0, 0, 0]], dtype=float
    )
    assert np.allclose(got, want, atol=1e-15)


def test_jacobian_constant_field():
    V = VectorField.constant([2.0, -1.0, 0.5], N3)
    J = jacobian(V)
    assert not np.any(_grid(J, N3, (1.0, 2.0, 3.0)))


def test_bracket_constant_fields_commute():
    X = VectorField.constant([1, 0, 0], N3)
    Y = VectorField.constant([0, 1, 0], N3)
    B = lie_bracket(X, Y)
    assert all(to_string(c) == "0" for c in B.components)


def test_bracket_heisenberg():
    X = VectorField.parse(["1", "0", "-x2/2"], N3)
    Y = VectorField.parse(["0", "1", "x1/2"], N3)
    B = lie_bracket(X, Y)
    p = np.array([0.4, -2.1, 0.9])
    assert np.allclose(B(p), [0.0, 0.0, 1.0], atol=1e-15)


def test_bracket_heading_rotation():
    X = VectorField.parse(["0", "0", "1"], N3)
    Y = VectorField.parse(["cos(x3)", "sin(x3)", "0"], N3)
    B = lie_bracket(X, Y)
    th = -0.6
    p = np.array([1.0, 1.0, th])
    assert np.allclose(B(p), [-np.sin(th), np.cos(th), 0.0], atol=1e-15)


def test_bracket_antisymmetry():
    rng = np.random.default_rng(0)
    X = VectorField.parse(["x2*x3", "sin(x1)", "x1^2"], N3)
    Y = VectorField.parse(["cos(x2)", "x3", "x1*x2"], N3)
    AB = lie_bracket(X, Y)
    BA = lie_bracket(Y, X)
    for _ in range(20):
        p = rng.uniform(-1, 1, size=3)
        assert np.allclose(AB(p), -BA(p), atol=1e-12)


def test_bracket_jacobi_identity():
    rng = np.random.default_rng(1)
    X = VectorField.parse(["x2", "-x1", "x3^2"], N3)
    Y = VectorField.parse(["sin(x3)", "x1*x2", "1"], N3)
    Z = VectorField.parse(["x3", "cos(x1)", "x2"], N3)
    s1 = lie_bracket(lie_bracket(X, Y), Z)
    s2 = lie_bracket(lie_bracket(Y, Z), X)
    s3 = lie_bracket(lie_bracket(Z, X), Y)
    for _ in range(50):
        p = rng.uniform(-1, 1, size=3)
        total = s1(p) + s2(p) + s3(p)
        assert np.max(np.abs(total)) <= 1e-9


def test_compiled_field_matches_pointwise():
    V = VectorField.parse(["sin(x1)*x2", "x1^2 - x2"], N2)
    fn = V.compiled()
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(40, 2))
    batch = fn(pts)
    assert batch.shape == (40, 2)
    for i in range(40):
        assert np.allclose(batch[i], V(pts[i]), atol=1e-14)


def test_compiled_jacobian_matches_symbolic():
    V = VectorField.parse(["x2*x3", "sin(x1)", "x1^2"], N3)
    J = jacobian(V)
    fn = V.compiled_jacobian()
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(10, 3))
    batch = fn(pts)
    assert batch.shape == (10, 3, 3)
    for k in range(10):
        assert np.allclose(batch[k], _grid(J, N3, pts[k]), atol=1e-14)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        VectorField.parse(["x1", "x2", "0"], N2)
    X = VectorField.parse(["1", "0"], N2)
    Y = VectorField.parse(["1", "0", "0"], N3)
    with pytest.raises(ValueError):
        lie_bracket(X, Y)


def test_negate():
    V = VectorField.parse(["1 + x2^2", "0"], N2)
    W = V.negate()
    p = np.array([0.5, 2.0])
    assert np.allclose(W(p), -V(p), atol=1e-15)


# fused kernels against one _emit lambda per component: bit for bit, since
# the reports hash every float the integrators produce
FUSED_CASES = [
    (["2", "-1", "0.5"], N3),
    (["0", "0", "1"], N3),
    (["x2", "0"], N2),
    (["0", "1"], N2),
    (["2 + cos(x3)", "sin(x3)", "0"], N3),
    (["sin(x1)*x2 + cos(x2)^2", "exp(x1/2)*tanh(x2)"], N2),
    (["x1^3 - 2*x1*x2 + x2^2", "sqrt(x1^2 + x2^2 + 1)"], N2),
    (["ln(x1^2 + 1) + tan(x2/2)", "1/(x1^2 + 2)"], N2),
    (["x2*x3", "sin(x1)", "x1^2"], N3),
]
SHAPES = [(), (7,), (2, 3)]


def _per_component(exprs, X):
    cols = []
    for e in exprs:
        fn = eval(f"lambda X, np=np: {_emit(e)}")
        cols.append(np.broadcast_to(np.asarray(fn(X), dtype=float), X.shape[:-1]))
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("sources,names", FUSED_CASES)
@pytest.mark.parametrize("lead", SHAPES)
def test_fused_field_kernel_is_bit_identical(sources, names, lead):
    V = VectorField.parse(sources, names)
    X = np.random.default_rng(11).uniform(-1.5, 1.5, size=lead + (V.dim,))
    got = V.compiled()(X)
    assert got.shape == X.shape
    assert np.array_equal(got, _per_component(V.components, X))


@pytest.mark.parametrize("sources,names", FUSED_CASES)
@pytest.mark.parametrize("lead", SHAPES)
def test_fused_jacobian_kernel_is_bit_identical(sources, names, lead):
    V = VectorField.parse(sources, names)
    n = V.dim
    X = np.random.default_rng(12).uniform(-1.5, 1.5, size=lead + (n,))
    got = V.compiled_jacobian()(X)
    assert got.shape == lead + (n, n)
    flat = [e for row in jacobian(V) for e in row]
    want = _per_component(flat, X).reshape(lead + (n, n))
    assert np.array_equal(got, want)



# the lane stepper evaluates an (L, n) batch where the scalar stepper
# evaluates each point alone; its endpoints equal the scalar ones only if
# every row of a batched kernel call equals the call on that row's point
def _row_cases():
    cases = []
    for path in sorted((Path(__file__).resolve().parents[1] / "systems").glob("*.sys")):
        spec = load_spec(str(path))
        for k, F in enumerate(spec.drifts + spec.controls):
            cases.append(pytest.param(F, spec.window, id=f"{spec.name}-{k}"))
    frac = VectorField.parse(["(x1^2 + 1)^0.37", "sqrt(x1^2 + x2^2 + 1)^1.5"], N2)
    cases.append(pytest.param(frac, ((-2.0, 2.0), (-2.0, 2.0)), id="fractional-power"))
    return cases


@pytest.mark.parametrize("field,window", _row_cases())
def test_kernel_rows_equal_pointwise_calls(field, window):
    lo, hi = np.array(window).T
    Y = lo + (hi - lo) * np.random.default_rng(13).random((64, field.dim))
    kernel = field.compiled()
    batch = kernel(Y)
    for i in range(len(Y)):
        assert batch[i].tobytes() == kernel(Y[i]).tobytes()


# every field value comes from the fused kernel: a point, a row of a stack
# and the kernel's own row are one value, bit for bit
@pytest.mark.parametrize(
    "sources",
    [["tanh(x1)", "tanh(x2*x1)"], ["exp(x1)", "exp(x2 - x1)"], ["x1^3", "x2^3 - x1"]],
    ids=["tanh", "exp", "cube"],
)
def test_a_point_a_stack_row_and_the_kernel_row_are_one_value(sources):
    V = VectorField.parse(sources, N2)
    P = np.random.default_rng(21).uniform(-3.0, 3.0, size=(2000, 2))
    stack = V(P)
    kernel = V.compiled()(P)
    assert stack.shape == kernel.shape == (2000, 2)
    assert stack.tobytes() == kernel.tobytes()
    for i in range(len(P)):
        assert V(P[i]).tobytes() == stack[i].tobytes()


def test_a_stack_of_fields_is_each_field_at_each_point():
    fields = [VectorField.parse(["x1*x2", "tanh(x1)"], N2), VectorField.parse(["1", "x2^3"], N2)]
    P = np.random.default_rng(22).uniform(-2.0, 2.0, size=(50, 2))
    M = evaluate_fields(fields, P)
    assert M.shape == (50, 2, 2)
    for i, p in enumerate(P):
        assert evaluate_fields(fields, p).tobytes() == M[i].tobytes()
        for j, F in enumerate(fields):
            assert F(p).tobytes() == M[i, :, j].tobytes()


def test_a_finite_kernel_value_is_not_refused():
    # 1/x1 is inf at x1 = 0 and exp(0 - inf) is 0: the kernel's value
    # stands, though the tree refuses the point
    V = VectorField.parse(["exp(0 - 1/x1)", "1"], N2)
    p = np.array([0.0, 0.5])
    with pytest.raises(EvalDomainError):
        evaluate(V.components[0], p)
    assert V(p).tolist() == [0.0, 1.0]
    assert V(np.array([[1.0, 0.0], [0.0, 0.5]]))[1].tolist() == [0.0, 1.0]


def test_non_finite_rows_are_evaluated_again_point_by_point():
    # at (1, -1) sqrt(x2) is undefined, at (-1, 1) ln(x1 + 0.5): a loop
    # over the points meets sqrt first, a loop over the fields ln
    fields = [VectorField.parse(["ln(x1 + 0.5)", "0"], N2), VectorField.parse(["0", "sqrt(x2)"], N2)]
    P = np.array([[0.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(EvalDomainError) as loop:
        [[evaluate(c, p) for F in fields for c in F.components] for p in P]
    with pytest.raises(EvalDomainError) as got:
        evaluate_fields(fields, P)
    assert str(got.value) == str(loop.value) == "sqrt of negative value -1.0"
    with pytest.raises(EvalDomainError, match="ln of nonpositive value -0.5"):
        fields[0](P)
    # an overflow the tree does not refuse keeps the tree's value
    big = VectorField.parse(["x1*1e300*1e300", "x2"], N2)
    assert big(np.array([[2.0, 1.0]])).tolist() == [[math.inf, 1.0]]


def test_points_of_the_wrong_dimension_are_refused():
    V = VectorField.parse(["x1", "x2"], N2)
    for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            V(bad)

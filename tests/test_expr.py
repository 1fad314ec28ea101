"""Parser, evaluator, derivative, and simplifier behavior."""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoctrl.expr import (
    ArityError,
    Binary,
    Const,
    EvalDomainError,
    ExprSyntaxError,
    Unary,
    UnknownIdentifierError,
    Var,
    compile_exprs,
    differentiate,
    evaluate,
    parse_expression,
    simplify,
    to_string,
)
from geoctrl import expr as ex

NAMES2 = ("x1", "x2")
NAMES3 = ("x1", "x2", "x3")


def test_parse_variable():
    assert parse_expression("x2", NAMES2) == Var(1)


def test_parse_structure():
    e = parse_expression("1 + x2^2", NAMES2)
    assert e == Binary("add", Const(1.0), Binary("pow", Var(1), Const(2.0)))


def test_parse_unclosed_paren():
    with pytest.raises(ExprSyntaxError):
        parse_expression("cos(x3)*x1 - sin(", NAMES3)


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as err:
        parse_expression("x1 + y", NAMES2)
    assert err.value.col == 6


def test_parse_arity_mismatch():
    with pytest.raises(ArityError):
        parse_expression("sin(x1, x2)", NAMES2)
    with pytest.raises(ArityError):
        parse_expression("cos()", NAMES2)


def test_parse_variable_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expression("x1^x2", NAMES2)


def test_evaluate_basic():
    assert evaluate(parse_expression("x2", NAMES2), (3.0, -0.5)) == -0.5
    assert evaluate(parse_expression("1 + x2^2", NAMES2), (0.0, 2.0)) == 5.0


def test_evaluate_domain_errors():
    with pytest.raises(EvalDomainError):
        evaluate(parse_expression("ln(x1)", NAMES2), (-1.0, 0.0))
    with pytest.raises(EvalDomainError):
        evaluate(parse_expression("1/x1", NAMES2), (0.0, 0.0))
    with pytest.raises(EvalDomainError):
        evaluate(parse_expression("sqrt(x1)", NAMES2), (-4.0, 0.0))


def test_a_literal_too_large_for_a_float_is_refused():
    for src in ("1e999", "x1 + 2e400", "x1^1e999", "x1^-1e999"):
        with pytest.raises(ExprSyntaxError, match="too large for a float"):
            parse_expression(src, NAMES2)
    assert parse_expression("1e308", NAMES2) == Const(1e308)


UNDEFINED_EVERYWHERE = [
    "1/0", "0/0", "x1/0", "x1/(2 - 2)", "x2 + ln(0)", "sqrt(-1)*x1", "(-1)^0.5",
    "0^-1", "exp(1000) - x1", "sin(x1 + 1/0)",
]
DEFINED_SOMEWHERE = ["1/x1", "x1/(x2 - x2 + 1)", "ln(x1)", "2/4", "sqrt(x1 - 1)", "x1^-1"]


@pytest.mark.parametrize("src", UNDEFINED_EVERYWHERE)
def test_constant_parts_undefined_everywhere_are_domain_errors(src):
    e = parse_expression(src, NAMES2)
    with pytest.raises(EvalDomainError):
        ex.check_constant_parts(e)
    for p in np.random.default_rng(0).uniform(-2.0, 2.0, size=(20, 2)):
        with pytest.raises(EvalDomainError):
            evaluate(e, p)


@pytest.mark.parametrize("src", DEFINED_SOMEWHERE)
def test_constant_parts_that_are_defined_pass(src):
    ex.check_constant_parts(parse_expression(src, NAMES2))


def test_kernels_divide_constants_as_numpy_does():
    exprs = [parse_expression(src, NAMES2) for src in ("1/0", "0/0", "-1/0", "x1/0")]
    fn = compile_exprs(exprs + [Const(math.inf), Const(math.nan)])
    with np.errstate(all="ignore"):
        one = fn(np.array([0.5, 1.0]))
        batch = fn(np.array([[0.5, 1.0], [-0.5, 1.0]]))
    assert one[0] == math.inf and math.isnan(one[1]) and one[2] == -math.inf
    assert one[3] == math.inf and one[4] == math.inf and math.isnan(one[5])
    assert batch[1, 3] == -math.inf and np.array_equal(batch[0], one, equal_nan=True)
    # a division with a variable on either side is emitted as before
    assert ex._emit(parse_expression("x1/2 + 3/x2", NAMES2)) == (
        "((X[..., 0] / 2.0) + (3.0 / X[..., 1]))"
    )


def test_unary_minus_binds_tighter_than_binary():
    # -x1^2 is -(x1^2), not (-x1)^2
    assert evaluate(parse_expression("-x1^2", NAMES2), (2.0, 0.0)) == -4.0
    assert evaluate(parse_expression("(-x1)^2", NAMES2), (2.0, 0.0)) == 4.0


def test_derivative_structural_power_rule():
    # chain rule emits the decremented power verbatim; simplify cleans it up
    e = parse_expression("x2^2", NAMES2)
    d = differentiate(e, 1)
    assert to_string(d, NAMES2) == "2*x2^1"
    assert to_string(simplify(d), NAMES2) == "2*x2"


def test_derivative_product_and_constant():
    d = differentiate(parse_expression("sin(x1)*x2", NAMES2), 0)
    assert to_string(simplify(d), NAMES2) == "cos(x1)*x2"
    d0 = differentiate(parse_expression("x2", NAMES2), 0)
    assert to_string(d0, NAMES2) == "0"


def test_simplify_examples():
    assert to_string(simplify(parse_expression("0*x1 + x2", NAMES2)), NAMES2) == "x2"
    assert to_string(simplify(parse_expression("x1 - x1", NAMES2)), NAMES2) == "0"
    assert to_string(simplify(parse_expression("2*x1^1", NAMES2)), NAMES2) == "2*x1"


def test_negated_exponent_roundtrip():
    e = differentiate(parse_expression("sqrt(x1)", NAMES2), 0)
    s = to_string(simplify(e), NAMES2)
    back = parse_expression(s, NAMES2)
    p = (2.3, 0.0)
    assert math.isclose(evaluate(back, p), 0.5 / math.sqrt(2.3), rel_tol=1e-12)


# -- property tests ---------------------------------------------------------

_consts = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(ex.const)
_vars = st.integers(min_value=0, max_value=2).map(ex.var)
_leaves = _consts | _vars


def _extend(children):
    unary = st.sampled_from([ex.neg, ex.sin, ex.cos, ex.tanh, ex.exp]).flatmap(
        lambda f: children.map(f)
    )
    binary = st.sampled_from([ex.add, ex.sub, ex.mul]).flatmap(
        lambda f: st.tuples(children, children).map(lambda ab: f(*ab))
    )
    powed = st.tuples(children, st.integers(min_value=0, max_value=3)).map(
        lambda ec: ex.pow_(ec[0], Const(float(ec[1])))
    )
    return unary | binary | powed


_total_exprs = st.recursive(_leaves, _extend, max_leaves=12)


def _extend_full(children):
    unary = st.sampled_from(
        [ex.neg, ex.sin, ex.cos, ex.tan, ex.exp, ex.ln, ex.sqrt, ex.tanh]
    ).flatmap(lambda f: children.map(f))
    binary = st.sampled_from([ex.add, ex.sub, ex.mul, ex.div]).flatmap(
        lambda f: st.tuples(children, children).map(lambda ab: f(*ab))
    )
    powed = st.tuples(
        children, st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
    ).map(lambda ec: ex.pow_(ec[0], Const(ec[1])))
    return unary | binary | powed


_any_exprs = st.recursive(_leaves, _extend_full, max_leaves=12)


@given(_any_exprs)
@settings(max_examples=200)
def test_print_parse_roundtrip(e):
    s = to_string(e, NAMES3)
    assert parse_expression(s, NAMES3) == e


@given(_total_exprs, st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=100)
def test_simplify_preserves_value(e, seed):
    rng = np.random.default_rng(seed)
    s = simplify(e)
    for _ in range(8):
        p = rng.uniform(-1.0, 1.0, size=3)
        a = evaluate(e, p)
        b = evaluate(s, p)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


@given(_total_exprs)
@settings(max_examples=100)
def test_compiled_matches_interpreter(e):
    rng = np.random.default_rng(7)
    fn = compile_exprs([e, Const(2.5)])
    pts = rng.uniform(-1.0, 1.0, size=(5, 3))
    batch = fn(pts)
    assert batch.shape == (5, 2)
    assert np.all(batch[:, 1] == 2.5)
    for i in range(5):
        v = evaluate(e, pts[i])
        single = fn(pts[i])
        assert single.shape == (2,)
        assert abs(batch[i, 0] - v) <= 1e-12 * max(1.0, abs(v))
        assert abs(single[0] - v) <= 1e-12 * max(1.0, abs(v))


SMOOTH_SOURCES = [
    "sin(x1)*x2 + cos(x2)^2",
    "exp(x1/2)*tanh(x2)",
    "x1^3 - 2*x1*x2 + x2^2",
    "sqrt(x1^2 + x2^2 + 1)",
    "ln(x1^2 + 1) + tan(x2/2)",
    "1/(x1^2 + 2)",
]


@pytest.mark.parametrize("src", SMOOTH_SOURCES)
def test_derivative_matches_finite_differences(src):
    e = parse_expression(src, NAMES2)
    rng = np.random.default_rng(42)
    h = 1e-5
    for j in range(2):
        d = differentiate(e, j)
        for _ in range(100):
            p = rng.uniform(-1.0, 1.0, size=2)
            sym = evaluate(d, p)
            hi = p.copy()
            lo = p.copy()
            hi[j] += h
            lo[j] -= h
            fd = (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)
            assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))


def test_simplify_never_loses_domain_guards():
    # ln(0) must not constant-fold into a crash or a bogus value
    e = parse_expression("ln(x1 - x1 + 1)", NAMES2)
    s = simplify(e)
    assert evaluate(s, (5.0, 1.0)) == 0.0


def test_readme_function_list_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"powers, and `([^`]+)`", readme).group(1).split()
    assert set(listed) == ex.FUNC_NAMES
    for name in listed:
        parse_expression(f"{name}(x1)", NAMES2)

"""Symbolic scalar expressions over a fixed tuple of state variables.

Expressions are immutable trees built from real constants, variable
references (by index), a closed set of unary functions and the usual
binary arithmetic. The closed grammar keeps differentiation total: every
node has an exact symbolic derivative.

Grammar accepted by :func:`parse_expression` (EBNF)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | base ("^" number)?
    base   := number | ident | func "(" expr ")" | "(" expr ")"
    func   := "sin"|"cos"|"tan"|"exp"|"ln"|"sqrt"|"tanh"
    ident  := declared variable name
    number := decimal literal with optional exponent

Exponents must be numeric literals (an optional leading ``-`` is
allowed); ``x^y`` with a variable exponent is rejected so that branch
cuts never enter the picture.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "ParseError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "ArityError",
    "EvalDomainError",
    "parse_expression",
    "evaluate",
    "differentiate",
    "simplify",
    "to_string",
    "compile_exprs",
    "const",
    "var",
]

UNARY_OPS = ("neg", "sin", "cos", "tan", "exp", "ln", "sqrt", "tanh")
BINARY_OPS = ("add", "sub", "mul", "div", "pow")

FUNC_NAMES = {"sin", "cos", "tan", "exp", "ln", "sqrt", "tanh"}


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Unary:
    op: str
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Const, Var, Unary, Binary]


class ParseError(ValueError):
    """Base class for expression-source errors; carries line/column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ExprSyntaxError(ParseError):
    pass


class UnknownIdentifierError(ParseError):
    pass


class ArityError(ParseError):
    pass


class EvalDomainError(ArithmeticError):
    """Raised when an expression hits a point outside its real domain."""


# ---------------------------------------------------------------------------
# Smart constructors. These fold the trivial 0/1 identities at build time so
# that derivative trees stay compact; anything beyond that is simplify()'s
# job. pow(e, 1) is deliberately NOT folded here.
# ---------------------------------------------------------------------------


def const(v: float) -> Const:
    return Const(float(v))


def var(i: int) -> Var:
    if i < 0:
        raise ValueError("variable index must be nonnegative")
    return Var(i)


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def _folds(a: Expr, b: Expr, op: Callable[[float, float], float]) -> Const | None:
    """Fold two constants, unless the result is inf or nan: the grammar has
    no literal for those, so a folded tree would not print and parse back."""
    if isinstance(a, Const) and isinstance(b, Const):
        v = op(a.value, b.value)
        if math.isfinite(v):
            return Const(v)
    return None


def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    return Unary("neg", e)


def add(a: Expr, b: Expr) -> Expr:
    folded = _folds(a, b, operator.add)
    if folded is not None:
        return folded
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("add", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    folded = _folds(a, b, operator.sub)
    if folded is not None:
        return folded
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Binary("sub", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    folded = _folds(a, b, operator.mul)
    if folded is not None:
        return folded
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("mul", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if not _is_const(b, 0.0):
        folded = _folds(a, b, operator.truediv)
        if folded is not None:
            return folded
    if _is_const(b, 1.0):
        return a
    return Binary("div", a, b)


def pow_(a: Expr, b: Expr) -> Expr:
    if not isinstance(b, Const):
        raise ValueError("exponent must be a constant expression")
    return Binary("pow", a, b)


def _unary(op: str) -> Callable[[Expr], Expr]:
    def build(e: Expr) -> Expr:
        return Unary(op, e)

    return build


sin = _unary("sin")
cos = _unary("cos")
tan = _unary("tan")
exp = _unary("exp")
ln = _unary("ln")
sqrt = _unary("sqrt")
tanh = _unary("tanh")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<ws>\s+)"
)


@dataclass
class _Token:
    kind: str  # number | ident | op | end
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], var_names: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.var_index = {name: i for i, name in enumerate(var_names)}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(
                f"expected {text!r}, found {tok.text!r}" if tok.kind != "end" else f"expected {text!r}, found end of input",
                tok.line,
                tok.col,
            )
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return neg(self.factor())
        e = self.base()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            sign = 1.0
            num = self.peek()
            if num.kind == "op" and num.text == "-":
                # signed literal exponents keep printing/parsing inverse
                sign = -1.0
                self.advance()
                num = self.peek()
            if num.kind != "number":
                raise ExprSyntaxError(
                    "exponent must be a numeric literal", num.line, num.col
                )
            self.advance()
            e = pow_(e, Const(sign * _literal(num)))
        return e

    def base(self) -> Expr:
        tok = self.advance()
        if tok.kind == "number":
            return Const(_literal(tok))
        if tok.kind == "ident":
            if tok.text in FUNC_NAMES:
                self.expect_op("(")
                nxt = self.peek()
                if nxt.kind == "op" and nxt.text == ")":
                    raise ArityError(
                        f"{tok.text} takes exactly one argument", nxt.line, nxt.col
                    )
                arg = self.expr()
                nxt = self.peek()
                if nxt.kind == "op" and nxt.text == ",":
                    raise ArityError(
                        f"{tok.text} takes exactly one argument", nxt.line, nxt.col
                    )
                self.expect_op(")")
                return Unary(tok.text, arg)
            if tok.text in self.var_index:
                return Var(self.var_index[tok.text])
            raise UnknownIdentifierError(
                f"unknown identifier {tok.text!r}", tok.line, tok.col
            )
        if tok.kind == "op" and tok.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if tok.kind == "end":
            raise ExprSyntaxError("unexpected end of input", tok.line, tok.col)
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def _literal(tok: _Token) -> float:
    """A number token's value; one too large for a float (1e999) is refused,
    since the grammar has no literal for inf and no tree holds one."""
    value = float(tok.text)
    if not math.isfinite(value):
        raise ExprSyntaxError(
            f"numeric literal {tok.text!r} is too large for a float", tok.line, tok.col
        )
    return value


def parse_expression(src: str, var_names: Sequence[str]) -> Expr:
    """Parse an expression source string over the declared variable names."""
    return _Parser(_tokenize(src), var_names).parse()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, p: Sequence[float]) -> float:
    """Evaluate an expression at a point, with real-domain checking.

    Raises EvalDomainError for ln of a nonpositive value, division by
    zero, sqrt of a negative, fractional powers of negatives, and
    overflow.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(p[e.index])
    if isinstance(e, Unary):
        v = evaluate(e.arg, p)
        try:
            if e.op == "neg":
                return -v
            if e.op == "sin":
                return math.sin(v)
            if e.op == "cos":
                return math.cos(v)
            if e.op == "tan":
                return math.tan(v)
            if e.op == "exp":
                return math.exp(v)
            if e.op == "ln":
                if v <= 0.0:
                    raise EvalDomainError(f"ln of nonpositive value {v}")
                return math.log(v)
            if e.op == "sqrt":
                if v < 0.0:
                    raise EvalDomainError(f"sqrt of negative value {v}")
                return math.sqrt(v)
            if e.op == "tanh":
                return math.tanh(v)
        except OverflowError as exc:
            raise EvalDomainError(f"overflow in {e.op}({v})") from exc
        raise ValueError(f"unknown unary op {e.op!r}")
    if isinstance(e, Binary):
        a = evaluate(e.left, p)
        b = evaluate(e.right, p)
        try:
            if e.op == "add":
                return a + b
            if e.op == "sub":
                return a - b
            if e.op == "mul":
                return a * b
            if e.op == "div":
                if b == 0.0:
                    raise EvalDomainError("division by zero")
                return a / b
            if e.op == "pow":
                if a < 0.0 and b != round(b):
                    raise EvalDomainError(
                        f"fractional power of negative base {a}"
                    )
                if a == 0.0 and b < 0.0:
                    raise EvalDomainError("zero raised to a negative power")
                return a ** b
        except OverflowError as exc:
            raise EvalDomainError(f"overflow in {e.op}") from exc
        raise ValueError(f"unknown binary op {e.op!r}")
    raise TypeError(f"not an expression node: {e!r}")


def _has_var(e: Expr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, Unary):
        return _has_var(e.arg)
    if isinstance(e, Binary):
        return _has_var(e.left) or _has_var(e.right)
    return False


def _reads(e: Expr) -> frozenset[int]:
    """The indices of the variables e reads, syntactically: 0*x1 reads x1."""
    if isinstance(e, Var):
        return frozenset((e.index,))
    if isinstance(e, Unary):
        return _reads(e.arg)
    if isinstance(e, Binary):
        return _reads(e.left) | _reads(e.right)
    return frozenset()


def check_constant_parts(e: Expr) -> None:
    """Raise EvalDomainError where e is undefined whatever the point: a
    part without variables that `evaluate` refuses (1/0, ln(0), sqrt(-1),
    an overflow in exp), or a division by a part without variables that
    is zero (x1/0). `evaluate` refuses e at every point then, while the
    compiled kernel, which follows numpy, gives inf or nan."""
    if not _has_var(e):
        evaluate(e, ())
    elif isinstance(e, Unary):
        check_constant_parts(e.arg)
    elif isinstance(e, Binary):
        check_constant_parts(e.left)
        check_constant_parts(e.right)
        if e.op == "div" and not _has_var(e.right) and evaluate(e.right, ()) == 0.0:
            raise EvalDomainError("division by zero")


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def differentiate(e: Expr, var_index: int) -> Expr:
    """Exact symbolic partial derivative with respect to one variable."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.index == var_index else 0.0)
    if isinstance(e, Unary):
        du = differentiate(e.arg, var_index)
        u = e.arg
        if e.op == "neg":
            return neg(du)
        if e.op == "sin":
            return mul(cos(u), du)
        if e.op == "cos":
            return neg(mul(sin(u), du))
        if e.op == "tan":
            return div(du, pow_(cos(u), Const(2.0)))
        if e.op == "exp":
            return mul(exp(u), du)
        if e.op == "ln":
            return div(du, u)
        if e.op == "sqrt":
            return div(du, mul(Const(2.0), sqrt(u)))
        if e.op == "tanh":
            return mul(sub(Const(1.0), pow_(tanh(u), Const(2.0))), du)
        raise ValueError(f"unknown unary op {e.op!r}")
    if isinstance(e, Binary):
        da = differentiate(e.left, var_index)
        db = differentiate(e.right, var_index)
        a, b = e.left, e.right
        if e.op == "add":
            return add(da, db)
        if e.op == "sub":
            return sub(da, db)
        if e.op == "mul":
            return add(mul(da, b), mul(a, db))
        if e.op == "div":
            return div(sub(mul(da, b), mul(a, db)), pow_(b, Const(2.0)))
        if e.op == "pow":
            c = e.right
            assert isinstance(c, Const)
            if c.value == 0.0:
                return Const(0.0)
            return mul(mul(c, pow_(a, Const(c.value - 1.0))), da)
        raise ValueError(f"unknown binary op {e.op!r}")
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Simplification: constant folding, 0/1 identities, like-term cancellation.
# No trig rewriting; equality of expressions stays numerical, not structural.
# ---------------------------------------------------------------------------

def _simplify_once(e: Expr) -> Expr:
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Unary):
        a = _simplify_once(e.arg)
        if isinstance(a, Const):
            # a constant folds to its value wherever `evaluate` gives one
            try:
                return Const(evaluate(Unary(e.op, a), ()))
            except EvalDomainError:
                pass
        if e.op == "neg":
            if isinstance(a, Unary) and a.op == "neg":
                return a.arg
            return neg(a)
        return Unary(e.op, a)
    if isinstance(e, Binary):
        a = _simplify_once(e.left)
        b = _simplify_once(e.right)
        if e.op == "add":
            if isinstance(b, Unary) and b.op == "neg" and b.arg == a:
                return Const(0.0)
            if isinstance(a, Unary) and a.op == "neg" and a.arg == b:
                return Const(0.0)
            return add(a, b)
        if e.op == "sub":
            if a == b:
                return Const(0.0)
            return sub(a, b)
        if e.op == "mul":
            if _is_const(a, -1.0):
                return neg(b)
            if _is_const(b, -1.0):
                return neg(a)
            return mul(a, b)
        if e.op == "div":
            if _is_const(a, 0.0) and not _is_const(b, 0.0):
                return Const(0.0) if isinstance(b, Const) else Binary("div", a, b)
            return div(a, b)
        if e.op == "pow":
            assert isinstance(b, Const)
            if b.value == 1.0:
                return a
            if b.value == 0.0:
                return Const(1.0)
            if isinstance(a, Const):
                try:
                    return Const(evaluate(Binary("pow", a, b), ()))
                except EvalDomainError:
                    pass
            return pow_(a, b)
        raise ValueError(f"unknown binary op {e.op!r}")
    raise TypeError(f"not an expression node: {e!r}")


def simplify(e: Expr) -> Expr:
    """Conservative simplification; preserves the value wherever defined."""
    prev = e
    for _ in range(4):
        nxt = _simplify_once(prev)
        if nxt == prev:
            return nxt
        prev = nxt
    return prev


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 2, "pow": 4}


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _prec(e: Expr) -> int:
    if isinstance(e, Const):
        return 2 if e.value < 0 else 5
    if isinstance(e, Var):
        return 5
    if isinstance(e, Unary):
        return _PREC["neg"] if e.op == "neg" else 5
    return _PREC[e.op]


def to_string(e: Expr, var_names: Sequence[str] | None = None) -> str:
    """Render an expression; parse_expression inverts this exactly."""

    def name(i: int) -> str:
        if var_names is not None:
            return var_names[i]
        return f"x{i + 1}"

    def wrap(child: Expr, min_prec: int) -> str:
        s = render(child)
        if _prec(child) < min_prec:
            return f"({s})"
        return s

    def render(node: Expr) -> str:
        if isinstance(node, Const):
            return _fmt_number(node.value)
        if isinstance(node, Var):
            return name(node.index)
        if isinstance(node, Unary):
            if node.op == "neg":
                return "-" + wrap(node.arg, 3)
            return f"{node.op}({render(node.arg)})"
        if isinstance(node, Binary):
            if node.op == "add":
                return f"{wrap(node.left, 1)} + {wrap(node.right, 2)}"
            if node.op == "sub":
                return f"{wrap(node.left, 1)} - {wrap(node.right, 2)}"
            if node.op == "mul":
                return f"{wrap(node.left, 2)}*{wrap(node.right, 3)}"
            if node.op == "div":
                return f"{wrap(node.left, 2)}/{wrap(node.right, 5)}"
            if node.op == "pow":
                assert isinstance(node.right, Const)
                return f"{wrap(node.left, 5)}^{_fmt_number(node.right.value)}"
        raise TypeError(f"not an expression node: {node!r}")

    return render(e)


# ---------------------------------------------------------------------------
# Compilation to vectorized numpy callables (the hot path for integrators)
# ---------------------------------------------------------------------------

_NP_UNARY = {
    "neg": "(-{a})",
    "sin": "np.sin({a})",
    "cos": "np.cos({a})",
    "tan": "np.tan({a})",
    "exp": "np.exp({a})",
    "ln": "np.log({a})",
    "sqrt": "np.sqrt({a})",
    "tanh": "np.tanh({a})",
}


def _emit(e: Expr) -> str:
    if isinstance(e, Const):
        v = e.value
        return repr(v) if math.isfinite(v) else f"float('{v!r}')"
    if isinstance(e, Var):
        return f"X[..., {e.index}]"
    if isinstance(e, Unary):
        return _NP_UNARY[e.op].format(a=_emit(e.arg))
    if isinstance(e, Binary):
        a, b = _emit(e.left), _emit(e.right)
        if e.op == "add":
            return f"({a} + {b})"
        if e.op == "sub":
            return f"({a} - {b})"
        if e.op == "mul":
            return f"({a} * {b})"
        if e.op == "div":
            if not (_has_var(e.left) or _has_var(e.right)):
                # Python floats on both sides: numpy's division gives inf
                # or nan where Python's raises ZeroDivisionError
                return f"np.divide({a}, {b})"
            return f"({a} / {b})"
        if e.op == "pow":
            return f"np.power({a}, {b})"
    raise TypeError(f"not an expression node: {e!r}")


def compile_exprs(exprs: Sequence[Expr]) -> Callable[[np.ndarray], np.ndarray]:
    """Compile to one kernel mapping points (..., n) to values (..., len(exprs)).

    All expressions share one generated function. Numpy semantics: domain
    violations yield nan/inf, not exceptions. The kernel enters no
    np.errstate; callers own it around their integration loop.
    """
    body = "".join(f"{_emit(e)}, " for e in exprs)
    fn = eval(f"lambda X, np=np: ({body})")  # noqa: S307 - closed codegen, no user code

    def kernel(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        values = fn(X)
        if X.ndim == 1:  # one point: packing scalars is the integrators' hot path
            return np.array(values, dtype=float)
        out = np.empty(X.shape[:-1] + (len(values),))
        for i, v in enumerate(values):
            out[..., i] = v
        return out

    return kernel

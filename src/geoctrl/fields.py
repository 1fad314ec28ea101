"""Vector fields with symbolic components and compiled numeric kernels.

A VectorField is a tuple of expressions, one per state coordinate. The
symbolic side supports exact Jacobians and Lie brackets; the numeric
side compiles once to one vectorized numpy function per field and one
per Jacobian, shared by every integrator; callers own np.errstate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .expr import (
    Expr,
    Const,
    compile_exprs,
    differentiate,
    evaluate,
    parse_expression,
    simplify,
    to_string,
)

__all__ = ["Point", "VectorField", "evaluate_fields", "jacobian", "lie_bracket"]

# points are plain float arrays of shape (n,); batches stack them as (N, n)
Point = np.ndarray


def evaluate_fields(fields: Sequence["VectorField"], points: Sequence[float]) -> np.ndarray:
    """The fields' values at a point (n,) or over a stack of points (N, n).

    Column j holds fields[j]: the shape is (n, len(fields)) or
    (N, n, len(fields)), each value from its field's fused kernel. Where
    a field's kernel value at a point is not finite, `expr.evaluate`
    evaluates that field there again, points in order and the fields in
    order within a point, as a loop over the points would: a field
    undefined there raises `EvalDomainError`, and otherwise (an overflow
    to inf) the tree's values stand. A singularity the kernel maps to a
    finite value (exp(0 - 1/x1) at x1 = 0) is not refused.
    """
    n = fields[0].dim
    P = np.asarray(points, dtype=float)
    if P.ndim not in (1, 2) or P.shape[-1] != n:
        raise ValueError(f"expected points of dimension {n}, got shape {P.shape}")
    with np.errstate(all="ignore"):
        values = np.stack([F.compiled()(P) for F in fields], axis=-1)
    rows = values.reshape(-1, n, len(fields))  # a view: the redo writes through
    pts = P.reshape(-1, n)
    for i, j in np.argwhere(~np.isfinite(rows).all(axis=1)).tolist():
        rows[i, :, j] = [evaluate(c, pts[i]) for c in fields[j].components]
    return values


@dataclass(frozen=True)
class VectorField:
    """A smooth vector field on R^n given componentwise by expressions."""

    components: tuple[Expr, ...]
    var_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.components) != len(self.var_names):
            raise ValueError(
                f"{len(self.components)} components for {len(self.var_names)} variables"
            )

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def is_constant(self) -> bool:
        """Every component is a `Const`: the compiled kernel ignores its input."""
        return all(isinstance(c, Const) for c in self.components)

    @staticmethod
    def parse(sources: Sequence[str], var_names: Sequence[str]) -> "VectorField":
        names = tuple(var_names)
        comps = tuple(parse_expression(src, names) for src in sources)
        return VectorField(comps, names)

    @staticmethod
    def constant(values: Sequence[float], var_names: Sequence[str]) -> "VectorField":
        return VectorField(tuple(Const(float(v)) for v in values), tuple(var_names))

    def __call__(self, p: Sequence[float]) -> np.ndarray:
        """The field at a point (n,) or over a stack (N, n): `evaluate_fields`."""
        return evaluate_fields((self,), p)[..., 0]

    def component_strings(self) -> tuple[str, ...]:
        return tuple(to_string(c, self.var_names) for c in self.components)

    def __str__(self) -> str:
        return "(" + ", ".join(self.component_strings()) + ")"

    def negate(self) -> "VectorField":
        cached = self.__dict__.get("_negated")
        if cached is None:
            from .expr import neg

            cached = VectorField(
                tuple(simplify(neg(c)) for c in self.components), self.var_names
            )
            object.__setattr__(self, "_negated", cached)
        return cached

    # compiled kernels (one expr.compile_exprs function each, no errstate)
    # are cached on first use in object.__setattr__-installed slots
    def compiled(self) -> Callable[[np.ndarray], np.ndarray]:
        """Callable mapping (..., n) arrays of points to (..., n) vectors."""
        cached = self.__dict__.get("_compiled")
        if cached is None:
            cached = compile_exprs(self.components)
            object.__setattr__(self, "_compiled", cached)
        return cached

    def compiled_jacobian(self) -> Callable[[np.ndarray], np.ndarray]:
        """Callable mapping (..., n) points to (..., n, n) Jacobians."""
        cached = self.__dict__.get("_compiled_jac")
        if cached is None:
            flat = compile_exprs([e for row in jacobian(self) for e in row])
            shape = (self.dim, self.dim)

            def call(X: np.ndarray) -> np.ndarray:
                out = flat(X)
                return out.reshape(out.shape[:-1] + shape)

            object.__setattr__(self, "_compiled_jac", call)
            cached = call
        return cached


def jacobian(V: VectorField) -> list[list[Expr]]:
    """Matrix of partial derivatives, J[i][j] = d V^i / d x_j."""
    n = V.dim
    return [
        [simplify(differentiate(V.components[i], j)) for j in range(n)]
        for i in range(n)
    ]


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Lie bracket [X, Y] = (DY) X - (DX) Y, componentwise symbolic."""
    if X.var_names != Y.var_names:
        raise ValueError("vector fields live on different variable tuples")
    from .expr import add, mul, sub

    n = X.dim
    JX = jacobian(X)
    JY = jacobian(Y)
    comps = []
    for i in range(n):
        acc: Expr = Const(0.0)
        for j in range(n):
            acc = add(acc, sub(mul(JY[i][j], X.components[j]), mul(JX[i][j], Y.components[j])))
        comps.append(simplify(acc))
    return VectorField(tuple(comps), X.var_names)

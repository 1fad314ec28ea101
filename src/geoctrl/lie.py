"""Control Lie algebra generation and regularity auditing.

Builds Lie{g_i} by leveled bracketing, keeping a bracket only when it
raises the numerical rank of the evaluated family somewhere on a probe
set. Regularity (constant pointwise rank over the window) is audited on
a grid; a finite grid can falsify constancy but never certify it, so
reports phrase the positive case as "no violation found on grid".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fields import VectorField, evaluate_fields, lie_bracket

__all__ = [
    "BracketFamily",
    "RegularityReport",
    "NotRegularError",
    "DEFAULT_RANK_TOL",
    "DEFAULT_DEPTH_CAP",
    "generate_bracket_basis",
    "matrix_rank",
    "audit_regularity",
    "codimension",
    "window_grid",
]

# relative rank tolerance: singular values below tol * sigma_max count as zero
DEFAULT_RANK_TOL = 1e-8
DEFAULT_DEPTH_CAP = 4


class NotRegularError(RuntimeError):
    """A criterion required constant rank but the audit found variation."""


@dataclass(frozen=True)
class BracketFamily:
    """Generators plus the retained brackets spanning Lie{g_i} pointwise.

    Each entry of `generated` is (field, depth, word); words name
    brackets over generator indices, e.g. "[g1, [g1, g2]]". Generators
    themselves appear at depth 1.
    """

    generators: tuple[VectorField, ...]
    generated: tuple[tuple[VectorField, int, str], ...]

    @property
    def fields(self) -> tuple[VectorField, ...]:
        return tuple(f for f, _, _ in self.generated)

    @property
    def dim(self) -> int:
        return self.generators[0].dim

    def evaluate_matrix(self, p: Sequence[float]) -> np.ndarray:
        """Columns are the family fields evaluated at p; shape (n, len), or
        (N, n, len) over a stack of points (N, n)."""
        return evaluate_fields(self.fields, p)


@dataclass(frozen=True)
class RegularityReport:
    grid_points: np.ndarray  # (N, n)
    ranks: np.ndarray  # (N,) ints
    constant_rank: bool
    rank: int | None  # modal rank; the common rank when constant
    codim: int | None  # n - rank when constant
    singular_points: np.ndarray  # points whose rank differs from the mode
    note: str


def matrix_rank(M: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int | np.ndarray:
    """Rank as the count of singular values above tol * sigma_max.

    A stack (..., n, m) of matrices takes one batched SVD and gives an
    int array of their ranks.
    """
    s = np.linalg.svd(M, compute_uv=False)
    ranks = _svd_rank(s, tol)
    return int(ranks) if np.ndim(M) == 2 else ranks


def _svd_rank(s: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """The ranks that singular values (..., k), largest first, give: the
    count above tol * sigma_max, 0 where sigma_max is 0 or k is 0."""
    return np.sum(s > tol * s[..., :1], axis=-1)


def _word(idx_or_pair) -> str:
    if isinstance(idx_or_pair, int):
        return f"g{idx_or_pair + 1}"
    a, b = idx_or_pair
    return f"[{_word(a)}, {_word(b)}]"


def generate_bracket_basis(
    generators: Sequence[VectorField],
    depth_cap: int = DEFAULT_DEPTH_CAP,
    probe_points: Sequence[Sequence[float]] | None = None,
    tol: float = DEFAULT_RANK_TOL,
) -> BracketFamily:
    """Level-by-level bracket closure with rank-based retention.

    Depth d+1 candidates are brackets of depth-d entries against every
    retained entry. A candidate joins the family iff it increases the
    evaluated rank at some probe point. Stops at depth_cap or after a
    sweep that retains nothing.

    Default probes are a seeded generic scatter, deliberately avoiding
    the origin and axis points: a bracket that only gains rank on a
    measure-zero set must not be retained, so that the later grid audit
    sees the rank drop instead of a family padded to constant rank.
    """
    if not generators:
        raise ValueError("empty generator list")
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    n = generators[0].dim
    if probe_points is None:
        rng = np.random.default_rng(0)
        probe_points = [rng.uniform(-1.0, 1.0, size=n) for _ in range(8)]
    probes = np.asarray(probe_points, dtype=float).reshape(len(probe_points), n)

    entries: list[tuple[VectorField, int, object]] = [
        (g, 1, i) for i, g in enumerate(generators)
    ]
    # the retained entries evaluated at every probe, (probes, n, entries),
    # and their rank at each probe
    cols = evaluate_fields(generators, probes)
    ranks = matrix_rank(cols, tol)

    newest = list(range(len(entries)))
    for depth in range(2, depth_cap + 1):
        if (ranks >= n).all():
            break
        added: list[int] = []
        pairs = [
            (i, j)
            for i in newest
            for j in range(len(entries))
            if i != j
        ]
        for i, j in pairs:
            cand = lie_bracket(entries[i][0], entries[j][0])
            grown = np.concatenate([cols, cand(probes)[..., None]], axis=-1)
            grown_ranks = matrix_rank(grown, tol)
            if not (grown_ranks > ranks).any():
                continue
            word = (entries[i][2], entries[j][2])
            entries.append((cand, depth, word))
            added.append(len(entries) - 1)
            cols, ranks = grown, grown_ranks
        if not added:
            break
        newest = added

    generated = tuple((f, d, _word(w)) for f, d, w in entries)
    return BracketFamily(tuple(generators), generated)


def window_grid(window: Sequence[tuple[float, float]], per_axis: int) -> np.ndarray:
    """Uniform grid over a box, returned as an (N, n) array of points."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in window]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def audit_regularity(
    family: BracketFamily,
    window: Sequence[tuple[float, float]],
    grid_per_axis: int = 7,
    tol: float = DEFAULT_RANK_TOL,
) -> RegularityReport:
    if grid_per_axis < 2:
        raise ValueError("grid_per_axis must be >= 2")
    pts = window_grid(window, grid_per_axis)
    ranks = matrix_rank(family.evaluate_matrix(pts), tol)
    values, counts = np.unique(ranks, return_counts=True)
    modal = int(values[np.argmax(counts)])
    constant = len(values) == 1
    singular = pts[ranks != modal]
    n = family.dim
    if constant:
        note = (
            f"no rank violation found on {grid_per_axis}^{n} grid; "
            f"treating rank {modal} as constant (grid check, not a proof)"
        )
    else:
        note = (
            f"rank varies over grid: modal {modal}, "
            f"{len(singular)} point(s) differ"
        )
    return RegularityReport(
        grid_points=pts,
        ranks=ranks,
        constant_rank=constant,
        rank=modal if constant else None,
        codim=(n - modal) if constant else None,
        singular_points=singular,
        note=note,
    )


def codimension(report: RegularityReport) -> int:
    if not report.constant_rank:
        raise NotRegularError(
            "rank is not constant on the audit grid; "
            "criterion analysis requires a regular control distribution"
        )
    assert report.codim is not None
    return report.codim

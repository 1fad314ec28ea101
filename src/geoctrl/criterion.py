"""Controllability conditions on the quotient by the control distribution.

The decision pipeline at a base point x:

1. Build the control Lie algebra family and its rank r; the quotient
   R^n / G|_x has dimension k = n - r.
2. Walk the leaf through x; each walk carries its variational frame,
   so the drift(s) at a visited point shift back to x by one solve
   against the visit's frame (`LeafSample.shifted_drifts`).
3. Project the shifted drifts to the quotient and ask whether 0
   lies in the interior of their convex hull. Since G|_x enters the
   hull as a full subspace, interiority in the quotient is equivalent
   to the full-space condition.

For codimension 1 with a global frame of the control span, the paper
reads the same question off the sign of the determinant of the drift
against the frame on the leaf (`criterion_value`, `sign_change_on_leaf`).
That route is public, and the tests hold it to the hull's verdict; the
verdict itself is decided by the hull alone.

Verdicts are graded honestly: exhausting a sampling budget without the
condition is evidence of non-controllability, never a proof; the
Monte-Carlo reachability oracle corroborates separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .expr import EvalDomainError
from .fields import VectorField, evaluate_fields, lie_bracket
from .flows import (  # noqa: F401 (sample_leaf: perfbench/tracing.py patches it here)
    LeafSample,
    StepControl,
    _spawned_states,
    inflate_window,
    sample_leaf,
    sample_leaves,
)
from .lie import (
    DEFAULT_RANK_TOL,
    BracketFamily,
    NotRegularError,
    RegularityReport,
    _svd_rank,
    audit_regularity,
    generate_bracket_basis,
    matrix_rank,
    window_grid,
)
from .system import SystemSpec

__all__ = [
    "PointVerdict",
    "GlobalVerdict",
    "SupportReport",
    "STATUS_CONTROLLABLE",
    "STATUS_UNCONTROLLABLE",
    "STATUS_INCONCLUSIVE",
    "STATUS_NOT_REGULAR",
    "DEFAULT_MARGIN",
    "DEFAULT_EPS_SIGN",
    "criterion_value",
    "sign_change_on_leaf",
    "quotient_projection",
    "interior_convex_test",
    "switched_condition",
    "global_verdict",
    "verify_supporting_distribution",
]

STATUS_CONTROLLABLE = "CONTROLLABLE_CERTIFIED"
STATUS_UNCONTROLLABLE = "UNCONTROLLABLE_EVIDENCE"
STATUS_INCONCLUSIVE = "INCONCLUSIVE"
STATUS_NOT_REGULAR = "NOT_REGULAR"

# the error of a point whose hull is open without one walk that shifted
# its drifts (every walk escaped, or its frame failed)
NO_LEAF_EVIDENCE = "no leaf evidence"

DEFAULT_MARGIN = 1e-7
DEFAULT_EPS_SIGN = 1e-9


@dataclass(frozen=True)
class PointVerdict:
    base: np.ndarray
    condition_holds: bool
    witness: dict | None
    samples_used: int
    quotient_frame: np.ndarray  # (k, n) orthonormal rows spanning the quotient
    error: str | None = None


@dataclass(frozen=True)
class GlobalVerdict:
    status: str
    points: tuple[PointVerdict, ...]
    assumptions: dict
    regularity: RegularityReport | None


def criterion_value(
    f: VectorField, gtilde: Sequence[VectorField], x: Sequence[float]
) -> float:
    """det(f(x), g1(x), ..., g_{n-1}(x)) for a codimension-1 global frame."""
    x = np.asarray(x, dtype=float)
    n = f.dim
    if len(gtilde) != n - 1:
        raise ValueError(f"need {n - 1} frame fields, got {len(gtilde)}")
    return float(np.linalg.det(evaluate_fields((f, *gtilde), x)))


def sign_change_on_leaf(
    leaf: LeafSample,
    C: Callable[[np.ndarray], float],
    eps_sign: float = DEFAULT_EPS_SIGN,
) -> PointVerdict:
    """Does the criterion evaluator change sign over the leaf sample?

    Values in [-eps_sign, eps_sign] are treated as zero and certify
    nothing. The base point participates alongside the visits. C runs on
    the base and then on the visit points (`leaf.points`) in order, and
    stops at the first point where the largest value so far is above
    eps_sign and the smallest below -eps_sign: the witness is that pair, and
    `samples_used` counts the points evaluated. The running extremes
    are picked as `max`/`min` pick them, so a nan at the base is both
    and no sign change is found, while a later nan is passed over.
    """
    used = 0
    holds = False
    for p in chain([leaf.base], leaf.points):
        v = float(C(p))
        if not used:
            y_pos = y_neg = p
            v_pos = v_neg = v
        elif v > v_pos:
            y_pos, v_pos = p, v
        elif v < v_neg:
            y_neg, v_neg = p, v
        used += 1
        if v_pos > eps_sign and v_neg < -eps_sign:
            holds = True
            break
    if holds:
        witness = {
            "kind": "sign_change",
            "y_pos": y_pos.tolist(),
            "y_neg": y_neg.tolist(),
            "value_pos": v_pos,
            "value_neg": v_neg,
        }
    else:
        witness = {
            "kind": "no_sign_change",
            "value_min": v_neg,
            "value_max": v_pos,
        }
    return PointVerdict(
        base=leaf.base,
        condition_holds=holds,
        witness=witness,
        samples_used=used,
        quotient_frame=np.zeros((0, len(leaf.base))),
    )


def quotient_projection(
    G_basis_at_x: np.ndarray | Sequence[Sequence[float]],
    tol: float = DEFAULT_RANK_TOL,
    expected_rank: int | None = None,
) -> np.ndarray | list[np.ndarray]:
    """Orthonormal rows spanning the complement of span(G|_x).

    Input is the evaluated family as a column matrix (n x N) or a list
    of n-vectors (stacked as columns). Returns Q of shape (k, n) with
    k = n - rank; the projection of v is Q @ v. A stack (P, n, N) of
    column matrices, one per point, takes one batched SVD and gives a
    list of P such frames, each with its own k. Each rank is read off
    the SVD that gives its frame. Rows are sign-normalized
    (largest-magnitude entry positive) so repeated runs produce
    identical frames. A rank other than `expected_rank` raises
    NotRegularError, at the first such matrix of a stack.
    """
    if isinstance(G_basis_at_x, np.ndarray):
        M = G_basis_at_x.astype(float)
        if M.ndim == 1:
            M = M[:, None]
    else:
        M = np.column_stack([np.asarray(v, dtype=float) for v in G_basis_at_x])
    n = M.shape[-2]
    U, s, _ = np.linalg.svd(M, full_matrices=True)
    ranks = np.atleast_1d(_svd_rank(s, tol)).tolist()
    if expected_rank is not None:
        for r in ranks:
            if r != expected_rank:
                raise NotRegularError(_rank_contradiction(r, expected_rank))
    rows = np.swapaxes(U, -1, -2).reshape(-1, n, n)  # left singular vectors as rows
    j = np.argmax(np.abs(rows), axis=-1)[..., None]
    rows = np.where(np.take_along_axis(rows, j, axis=-1) < 0, -rows, rows)
    frames = [R[r:] for R, r in zip(rows, ranks)]
    return frames[0] if M.ndim == 2 else frames


def _rank_contradiction(rank: int, expected_rank: int) -> str:
    return f"span rank {rank} at this point contradicts the audited rank {expected_rank}"


def interior_convex_test(
    points: np.ndarray | Sequence[Sequence[float]],
    margin: float = DEFAULT_MARGIN,
) -> tuple[bool, dict]:
    """Is 0 interior to the convex hull of a finite point set in R^k?

    k=1 and k=2 are exact (extremes; sorted angular gaps). k>=3 scans a
    deterministic unit-direction design of at least 2k^2 directions and
    may report false "inside", so its certificate says `approximate`.
    Returns (inside, witness), the witness being the certificate a
    `PointVerdict` carries, read off the numbers the test decided on:
    inside, the extremes `value_pos`/`value_neg` (k=1), the largest
    angular gap `max_angular_gap` (k=2) or the smallest support over
    the design `design_support_min` (k>=3); outside, a unit covector d
    with <d, p> >= -margin for every input point p.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if P.size == 0:
        raise ValueError("empty point list")
    k = P.shape[1]
    if k == 1:
        hi, lo = float(P[:, 0].max()), float(P[:, 0].min())
        if hi > margin and lo < -margin:
            return True, {"kind": "interior", "value_pos": hi, "value_neg": lo}
        return False, _separating([1.0] if lo >= -margin else [-1.0])
    if k == 2:
        norms = np.linalg.norm(P, axis=1)
        big = P[norms > margin]
        if len(big) == 0:
            return False, _separating([1.0, 0.0])
        ang = np.sort(np.arctan2(big[:, 1], big[:, 0]))
        gaps = np.diff(ang, append=ang[0] + 2 * np.pi)
        j = int(np.argmax(gaps))
        if gaps[j] < np.pi:
            return True, {"kind": "interior", "max_angular_gap": float(gaps[j])}
        # witness points at the middle of the occupied arc, i.e. opposite
        # the midpoint of the largest empty gap
        alpha = ang[j]
        beta = ang[j + 1] if j + 1 < len(ang) else ang[0] + 2 * np.pi
        mu = 0.5 * (alpha + beta) + np.pi
        return False, _separating([float(np.cos(mu)), float(np.sin(mu))])
    # k >= 3: finite direction design
    design = _direction_design(k)
    support = (P @ design.T).max(axis=0)
    bad = np.flatnonzero(support <= margin)
    if bad.size:
        # no point on the positive side of that direction, so its negation
        # has every point at inner product >= -margin
        return False, _separating((-design[bad[0]]).tolist())
    return True, {
        "kind": "interior",
        "design_support_min": float(support.min()),
        "approximate": True,
    }


def _separating(covector: list[float]) -> dict:
    return {"kind": "separating", "covector": covector}


def _direction_design(k: int) -> np.ndarray:
    """Deterministic unit directions: +-axes plus a fixed seeded scatter."""
    count = max(2 * k * k, 64)
    axes = np.vstack([np.eye(k), -np.eye(k)])
    rng = np.random.default_rng(12345)
    raw = rng.standard_normal((count - 2 * k, k))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return np.vstack([axes, raw])


# ---------------------------------------------------------------------------
# The shared per-point pipeline
# ---------------------------------------------------------------------------


def _leaf_verdict(
    x: np.ndarray,
    Q: np.ndarray,
    leaf: LeafSample,
    drifts: Sequence[VectorField],
    margin: float,
) -> PointVerdict:
    """One base point's hull test: its first prefix of walks whose hull is inside.

    The verdict is the one a fold of the walks in walk order, stopping
    at the first inside, reaches. The base drifts are tested alone;
    if they do not close the hull, every walk's shifted drifts are
    stacked and the full stack is tested once. Interiority is monotone
    in the point set, so a full stack that is not inside is where the
    fold ends too, and one that is inside is bisected over walk
    prefixes to the fold's first inside. A walk whose drifts raise
    `EvalDomainError` ends the stack: the error is raised where the
    walks before it leave the hull open, as the fold would reach it,
    and dropped where they close it. The witness is the certificate of
    the test that decided: the base test, the full-stack test or the
    bisection's last inside test.
    """
    blocks = [np.array([Q @ f(x) for f in drifts])]
    inside, witness = interior_convex_test(blocks[0], margin)
    error = None
    if not inside:
        try:
            for moved in leaf.shifted_drifts(drifts):
                if moved is not None:
                    blocks.append((Q @ moved).T)
        except EvalDomainError as exc:  # re-raised below where the fold would meet it
            error = exc
    folded = len(blocks) - 1  # walks whose shifted drifts are in the hull
    collected = blocks[0]
    if folded:
        stack = np.vstack(blocks)
        ends = np.cumsum([len(b) for b in blocks]).tolist()
        inside, witness = interior_convex_test(stack, margin)
        collected = stack
        if inside:
            lo, hi = 0, folded  # prefixes of lo walks are open, of hi walks inside
            while hi - lo > 1:
                mid = (lo + hi) // 2
                closes, certificate = interior_convex_test(stack[: ends[mid]], margin)
                if closes:
                    hi, witness = mid, certificate
                else:
                    lo = mid
            collected = stack[: ends[hi]]
    if error is not None and not inside:
        raise error
    if not inside and not folded:
        # every walk escaped or failed its frame: the base drifts alone
        # separate, which says nothing about the leaf
        return PointVerdict(
            base=x,
            condition_holds=False,
            witness=None,
            samples_used=len(collected),
            quotient_frame=Q,
            error=NO_LEAF_EVIDENCE,
        )
    return PointVerdict(
        base=x,
        condition_holds=inside,
        witness=witness,
        samples_used=len(collected),
        quotient_frame=Q,
    )


def _point_verdicts(
    system: SystemSpec,
    family: BracketFamily,
    rank: int,
    points: Sequence[np.ndarray],
    seeds: Sequence[int],
    leaf_budget: int,
    step: StepControl,
    margin: float = DEFAULT_MARGIN,
) -> list[PointVerdict]:
    """The interior condition at each base point, early-stopping per point.

    The frames of all points come from one stacked evaluation of the
    family and one batched SVD (`quotient_projection`); a point whose
    rank is not the audited one is an errored verdict. The leaves of
    all points are sampled in one `sample_leaves` call,
    each point walking from its own seed, each walk carrying its frame.
    Then each point's verdict is the one a fold of its walks' shifted
    drifts in walk order, stopping at the first inside, reaches: the
    full stack is tested once and a stack that is inside is bisected
    over walk prefixes (`_leaf_verdict`).
    """
    drifts = system.drifts
    n = family.dim
    frames = quotient_projection(family.evaluate_matrix(np.reshape(points, (len(points), n))))
    verdicts: list[PointVerdict | None] = []
    walked = []  # (index, x, Q, seed) of the points whose leaf is walked
    for x, seed, Q in zip(points, seeds, frames):
        if len(Q) != n - rank:
            verdicts.append(
                PointVerdict(
                    base=x,
                    condition_holds=False,
                    witness=None,
                    samples_used=0,
                    quotient_frame=np.zeros((0, n)),
                    error=_rank_contradiction(n - len(Q), rank),
                )
            )
            continue
        if rank == n:
            # control span is everything; the hull condition is vacuous
            verdicts.append(
                PointVerdict(
                    base=x,
                    condition_holds=True,
                    witness={"kind": "full_span"},
                    samples_used=0,
                    quotient_frame=Q,
                )
            )
            continue
        walked.append((len(verdicts), x, Q, seed))
        verdicts.append(None)
    leaves = sample_leaves(
        family,
        [x for _, x, _, _ in walked],
        budget=leaf_budget,
        max_duration=system.walk_duration(),
        seeds=[s for *_, s in walked],
        step=step,
    )
    for (i, x, Q, _), leaf in zip(walked, leaves):
        verdicts[i] = _leaf_verdict(x, Q, leaf, drifts, margin)
    return verdicts


def _prepare(
    system: SystemSpec,
    family: BracketFamily | None,
    regularity: RegularityReport | None,
    grid_per_axis: int | None,
) -> tuple[BracketFamily, RegularityReport]:
    if family is None:
        # generic probes: a grid would sit on symmetry sets (x_i = 0)
        # where degenerate families look fuller than they are
        rng = np.random.default_rng(7)
        lo = np.array([w[0] for w in system.window])
        hi = np.array([w[1] for w in system.window])
        probes = [lo + rng.random(system.dim) * (hi - lo) for _ in range(8)]
        family = generate_bracket_basis(system.controls, probe_points=probes)
    if regularity is None:
        regularity = audit_regularity(
            family, system.window, grid_per_axis or system.grid_per_axis
        )
    return family, regularity


def _step_control(system: SystemSpec) -> StepControl:
    return StepControl(window=inflate_window(system.window))


def switched_condition(
    system: SystemSpec,
    x: Sequence[float],
    leaf_budget: int | None = None,
    seed: int = 0,
    family: BracketFamily | None = None,
    regularity: RegularityReport | None = None,
    margin: float = DEFAULT_MARGIN,
) -> PointVerdict:
    """Interior condition with shifted vectors drawn from every drift."""
    family, regularity = _prepare(system, family, regularity, None)
    if not regularity.constant_rank:
        raise NotRegularError(regularity.note)
    (verdict,) = _point_verdicts(
        system,
        family,
        regularity.rank,
        [np.asarray(x, dtype=float)],
        [seed],
        leaf_budget or system.leaf_budget,
        _step_control(system),
        margin=margin,
    )
    return verdict


def global_verdict(
    system: SystemSpec,
    grid_per_axis: int | None = None,
    leaf_budget: int | None = None,
    seed: int | None = None,
    family: BracketFamily | None = None,
    regularity: RegularityReport | None = None,
) -> GlobalVerdict:
    """Aggregate the per-point condition over a grid of base points.

    The condition is per-point, so every grid point is checked; this is
    redundant across a shared leaf but sound. Point seeds derive from
    the master seed, keeping reports reproducible. The leaves of all
    points are walked as lanes of one pool, each point from its own
    seed and each walk carrying its frame; then each point takes the
    verdict of a fold of its walks' shifted drifts in walk order, up to
    the first inside, which one test of the full stack and a bisection
    over walk prefixes find.
    """
    family, regularity = _prepare(system, family, regularity, grid_per_axis)
    assumptions = {
        "regularity": regularity.note,
        "leaves_not_dense_asserted": system.assume_not_dense,
    }
    if not regularity.constant_rank:
        return GlobalVerdict(
            status=STATUS_NOT_REGULAR,
            points=(),
            assumptions=assumptions,
            regularity=regularity,
        )
    if seed is None:
        seed = system.seed
    pts = window_grid(system.window, grid_per_axis or system.grid_per_axis)
    verdicts = _point_verdicts(
        system,
        family,
        regularity.rank,
        pts,
        _spawned_states(seed, len(pts))[:, 0].tolist(),
        leaf_budget or system.leaf_budget,
        _step_control(system),
    )
    errored = [v for v in verdicts if v.error is not None]
    failed = [v for v in verdicts if v.error is None and not v.condition_holds]
    if failed:
        status = STATUS_UNCONTROLLABLE
    elif errored:
        status = STATUS_INCONCLUSIVE
    else:
        status = STATUS_CONTROLLABLE
    return GlobalVerdict(
        status=status,
        points=tuple(verdicts),
        assumptions=assumptions,
        regularity=regularity,
    )


# ---------------------------------------------------------------------------
# Non-controllability verifier for user-supplied confining distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportReport:
    accepted: bool
    clauses: dict
    failed_clause: str | None
    conclusion: str
    details: dict


def verify_supporting_distribution(
    system: SystemSpec,
    S_candidate: Sequence[VectorField],
    grid_per_axis: int = 5,
    tol: float = 1e-7,
    leaf_budget: int = 12,
    seed: int = 0,
    family: BracketFamily | None = None,
    regularity: RegularityReport | None = None,
) -> SupportReport:
    """Check a candidate confining distribution S of dimension k-1.

    Clauses, each checked numerically at grid points:
      complement_rank      S stays transverse to the control span (the
                           quotient projection preserves its pointwise
                           rank) and attains rank k-1 somewhere
      control_invariance   [g_i, S_j] stays in span(G family + S)
      one_sided_drift      all shifted drifts lie in one closed half-space
                           bounded by the projected S (side chosen per point)
      drift_outside_closure  the drift is outside the Lie closure of S

    If all four hold the system cannot be globally controllable: the
    leaves of the involutive span of G and S separate the space and
    trajectories never cross them. The ambient complement of the control
    span is taken as its orthogonal complement throughout. Odd grids
    include the window center, which is where degenerate candidates most
    often slip out of their own span.
    """
    family, regularity = _prepare(system, family, regularity, grid_per_axis)
    if not regularity.constant_rank:
        raise NotRegularError(regularity.note)
    n = system.dim
    k = n - regularity.rank
    if k < 2:
        raise ValueError(f"verifier needs codimension >= 2, audit found {k}")
    if len(S_candidate) != k - 1:
        raise ValueError(
            f"candidate has {len(S_candidate)} fields, need k-1 = {k - 1}"
        )
    for S in S_candidate:
        if S.dim != n:
            raise ValueError("candidate field dimension mismatch")

    pts = window_grid(system.window, grid_per_axis)
    clauses = {
        "complement_rank": True,
        "control_invariance": True,
        "one_sided_drift": True,
        "drift_outside_closure": True,
    }
    details: dict = {"points_checked": len(pts)}

    # (a) projecting to the quotient must not kill any candidate vector,
    # and the candidate must reach its nominal rank k-1 somewhere (it is
    # allowed to degenerate at isolated points; clause (b) polices those)
    m = len(family.fields)
    span = evaluate_fields(family.fields + tuple(S_candidate), pts)  # (N, n, m + k-1)
    Q = np.array(quotient_projection(span[..., :m], expected_rank=regularity.rank))
    S_cols = span[..., m:]
    S_rank = matrix_rank(S_cols)
    PS = _project(Q, S_cols)  # (N, k, k-1)
    lost = np.flatnonzero(matrix_rank(PS) != S_rank)
    if lost.size:
        clauses["complement_rank"] = False
        details["complement_rank_failure"] = pts[lost[0]].tolist()
    elif S_rank.max() != k - 1:
        clauses["complement_rank"] = False
        details["complement_rank_failure"] = (
            f"candidate rank {int(S_rank.max())} never reaches k-1 = {k - 1}"
        )

    # (b) bracket invariance: [g_i, S_j] in span(family + S) pointwise
    if clauses["complement_rank"]:
        pairs = [(i, j) for i in range(len(family.generators)) for j in range(len(S_candidate))]
        brackets = [lie_bracket(family.generators[i], S_candidate[j]) for i, j in pairs]
        # one contiguous row per (point, bracket)
        values = np.ascontiguousarray(np.swapaxes(evaluate_fields(brackets, pts), -1, -2))
        for p, M, B in zip(pts, span, values):
            for (gi, Sj), b in zip(pairs, B):
                resid = _span_residual(M, b)
                if resid > tol * max(1.0, float(np.linalg.norm(b))):
                    clauses["control_invariance"] = False
                    details["control_invariance_failure"] = {
                        "point": p.tolist(),
                        "control": gi,
                        "candidate": Sj,
                        "residual": resid,
                    }
                    break
            if not clauses["control_invariance"]:
                break

    # (c) shifted drifts confined to one side of the projected S; the
    # leaves of every point with a plane are walked in one call
    if clauses["complement_rank"] and clauses["control_invariance"]:
        # the normal of the projected S, where S does not degenerate
        normals = quotient_projection(PS)
        walked = [i for i, N in enumerate(normals) if len(N) == 1]
        seeds = _spawned_states(seed, len(pts))[:, 0].tolist()
        leaves = sample_leaves(
            family,
            pts[walked],
            budget=leaf_budget,
            max_duration=system.walk_duration(),
            seeds=[seeds[i] for i in walked],
            step=_step_control(system),
        )
        base = _project(Q[walked], evaluate_fields(system.drifts, pts[walked]))
        worst = np.inf
        reached = len(pts)  # the points the clause looked at
        for i, leaf, drifts_at_p in zip(walked, leaves, base):
            vecs = [drifts_at_p.T]
            for W in leaf.shifted_drifts(system.drifts):
                if W is not None:
                    vecs.append((Q[i] @ W).T)
            sides = np.vecdot(np.vstack(vecs), normals[i][0])
            # orient the normal toward the drift majority at this point
            if sides.sum() < 0:
                sides = -sides
            low = float(sides.min())
            worst = min(worst, low)
            if low < -tol:
                clauses["one_sided_drift"] = False
                details["one_sided_failure"] = {"point": pts[i].tolist(), "margin": low}
                reached = i + 1
                break
        details["one_sided_worst_margin"] = None if np.isinf(worst) else worst
        skipped = sum(len(N) != 1 for N in normals[:reached])
        if skipped:
            details["one_sided_skipped_degenerate"] = skipped

    # (d) the drift escapes the Lie closure of the candidate: the first
    # point, drifts inner, where appending a drift keeps the rank
    if all(clauses.values()):
        S_closed = generate_bracket_basis(S_candidate, probe_points=pts)
        s = len(S_closed.fields)
        both = evaluate_fields(S_closed.fields + tuple(system.drifts), pts)
        M = both[..., :s]
        grown = np.stack(
            [both[..., [*range(s), s + d]] for d in range(len(system.drifts))], axis=1
        )
        kept = np.argwhere(matrix_rank(grown) == matrix_rank(M)[:, None])
        if kept.size:
            clauses["drift_outside_closure"] = False
            details["drift_inside_closure_at"] = pts[kept[0, 0]].tolist()

    accepted = all(clauses.values())
    failed = None if accepted else next(k_ for k_, v in clauses.items() if not v)
    if accepted:
        conclusion = (
            "not globally controllable: the candidate distribution is control-"
            "invariant and confines all shifted drifts to one side of an "
            "invariant codimension-one foliation the trajectories cannot cross"
        )
    else:
        conclusion = f"candidate rejected: clause '{failed}' failed"
    return SupportReport(
        accepted=accepted,
        clauses=clauses,
        failed_clause=failed,
        conclusion=conclusion,
        details=details,
    )


def _project(Q: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Q @ v per point and per column v of V: (N, k, n) frames and
    (N, n, c) columns give (N, k, c), each column by its own
    matrix-vector product, which rounds as Q @ v at one point does."""
    return np.stack([np.matvec(Q, V[..., j]) for j in range(V.shape[-1])], axis=-1)


def _span_residual(span: np.ndarray, b: np.ndarray) -> float:
    """Distance from b to the column span, via least squares."""
    if float(np.linalg.norm(b)) == 0.0:
        return 0.0
    sol, *_ = np.linalg.lstsq(span, b, rcond=None)
    return float(np.linalg.norm(span @ sol - b))

"""Scalar flow references for the tests.

`_integrate_word` is the scalar DP54 loop over the segments of one word,
whose per-lane arithmetic `flows._step_lanes` repeats bit for bit, its
step cap counted over the whole word: the reference of the lane tests
of words (`test_metrics`); `_integrate`, the loop over one flow, is that
of the leaf walks and drift orbits.
`pushforward_along` carries a tangent frame along one flow, the frame
reference of the walk tests (`test_flows`, `test_acceptance`). Both
raise `FlowError` where the library's flows give a None endpoint.
`flow` is one flow through the library itself (`integrate_words`).
`tuple_sample_leaves` is the leaf walk that built a (point, prefix word)
tuple and a `Segment` per visit, and `TupleLeaf` the leaf that held
those tuples and shifted its drifts from them: the references of the
array leaves of `flows.sample_leaves` (`test_flows`).
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from geoctrl.fields import VectorField, evaluate_fields
from geoctrl.flows import (
    _DP_A,
    _DP_B4,
    _DP_B5,
    MAX_FRAME_COND,
    Segment,
    StepControl,
    _FrameLanes,
    _in_box,
    _Lane,
    _Source,
    _step_lanes,
    integrate_words,
)
from geoctrl.lie import BracketFamily


class FlowError(RuntimeError):
    """A flow left the window, reached a non-finite state or ran out of steps."""


def _integrate(
    rhs: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    t: float,
    ctrl: StepControl,
) -> np.ndarray:
    """Adaptive DP54 from 0 to t (t may be negative)."""
    return _integrate_word([(rhs, t)], y0, ctrl)


def _integrate_word(
    segments: Sequence[tuple[Callable[[np.ndarray], np.ndarray], float]],
    y0: np.ndarray,
    ctrl: StepControl,
) -> np.ndarray:
    """Adaptive DP54 through (rhs, t) segments in turn, each from 0 to t
    (t may be negative) with h_init: ctrl.max_steps caps the steps of all
    the segments together, as a word's lane counts them."""
    y = y0.astype(float).copy()
    steps = 0
    k = np.empty((7, y.size))
    # the kernels enter no errstate: nan/inf from a domain violation is
    # rejected as an infinite error estimate or caught as an escape below
    with np.errstate(all="ignore"):
        for rhs, t in segments:
            if t == 0.0:
                continue
            direction = 1.0 if t > 0 else -1.0
            remaining = abs(t)
            h = min(ctrl.h_init, remaining)
            k0 = rhs(y)
            while remaining > 0.0:
                if steps == ctrl.max_steps:
                    raise FlowError(f"exceeded {ctrl.max_steps} steps")
                steps += 1
                h = min(h, remaining)
                hs = direction * h
                k[0] = k0
                for i in range(1, 7):
                    yi = y + hs * (_DP_A[i] @ k[:i])
                    k[i] = rhs(yi)
                y5 = y + hs * (_DP_B5 @ k)
                y4 = y + hs * (_DP_B4 @ k)
                err_vec = y5 - y4
                scale = ctrl.atol + ctrl.rtol * np.maximum(np.abs(y), np.abs(y5))
                # np.mean's reduction and division, without its dispatch
                err = float(np.sqrt(np.add.reduce((err_vec / scale) ** 2) / y.size))
                if not np.isfinite(err):
                    err = np.inf
                if err <= 1.0:
                    y = y5
                    # FSAL: the last stage is evaluated at the accepted point;
                    # a copy, since a rejected trial overwrites k[6]
                    k0 = k[6].copy()
                    remaining -= h
                    if not _in_box(y.tolist(), ctrl.window):
                        raise FlowError("trajectory left the inflated window")
                # standard step resize with safety factor
                factor = 0.9 * (err + 1e-16) ** -0.2
                h *= min(5.0, max(0.2, factor))
                if h < ctrl.h_min and h < remaining:
                    raise FlowError(f"step size underflow at h={h:.2e}")
    return y


def pushforward_along(
    V: VectorField,
    y: Sequence[float],
    t: float,
    eta: np.ndarray,
    step: StepControl | None = None,
) -> np.ndarray:
    """Transport tangent data eta from y along the flow of V for time t.

    Runs the flow as one lane that carries the frame dW/ds = DV(x(s)) W
    with W(0) = eta, the way a leaf walk carries its frame. eta may be a
    single n-vector or an (n, k) column stack; the result, W(t) expressed
    at psi^V_t(y), has the same shape. Raises FlowError where the flow
    leaves the window or its step size collapses.
    """
    ctrl = step or StepControl()
    eta = np.asarray(eta, dtype=float)
    n = V.dim
    cols = eta.reshape(n, -1)
    kernels = {0: (V.compiled(), V.compiled_jacobian())}
    state = np.concatenate([np.asarray(y, dtype=float), cols.ravel()])

    def field(lanes: list[_Lane]) -> _FrameLanes:
        return _FrameLanes(kernels, [0] * len(lanes), n)

    ends = _step_lanes([_Lane(0, [(t, 0)], ctrl)], state[None], field, ctrl, dim=n)
    if not ends:
        raise FlowError(f"the flow of {V} from {y} for t={t} failed")
    return ends[0][n:].reshape(eta.shape)


def flow(
    V: VectorField, x0: Sequence[float], t: float, step: StepControl | None = None
) -> np.ndarray | None:
    """psi^V_t(x0), t possibly negative, as a one-segment word of
    `integrate_words`: None where the flow fails."""
    job = (np.asarray(x0, dtype=float), [t], [[1.0]])
    return integrate_words([V], [job], step or StepControl())[0]


class TupleLeaf:
    """A leaf sample as tuples: its visits as (point, prefix word) pairs
    and, where the family is not constant, a tuple of per-visit frames."""

    def __init__(self, base, visits, discarded, frames=None):
        self.base = base
        self.visits = visits
        self.discarded = discarded
        self.frames = frames

    def walks(self):
        """The visits regrouped into walks: a one-segment word starts one."""
        walks = []
        for visit in self.visits:
            if len(visit[1]) == 1:
                walks.append([])
            walks[-1].append(visit)
        return [tuple(walk) for walk in walks]

    def shifted_drifts(self, drifts: Sequence[VectorField]) -> Iterator[np.ndarray | None]:
        """Per walk, its visits' drifts shifted to the base, deepest visit
        first, or None for a walk with an unsound frame."""
        if not self.visits:
            return
        points = np.array([y for y, _ in self.visits])
        with np.errstate(all="ignore"):
            values = np.stack([f.compiled()(points) for f in drifts], axis=-1)
            if self.frames is not None:
                frames = np.array(self.frames)
                sound = np.isfinite(frames).all(axis=(1, 2))
                sound[sound] = np.linalg.cond(frames[sound]) <= MAX_FRAME_COND
        redo = np.flatnonzero(~np.isfinite(values).all(axis=(1, 2))).tolist()
        start = 0
        for walk in self.walks():
            stop = start + len(walk)
            if self.frames is not None and not sound[start:stop].all():
                yield None
            else:
                for j in [j for j in redo if start <= j < stop][::-1]:
                    values[j] = evaluate_fields(drifts, self.visits[j][0])
                rows = values[start:stop]
                if self.frames is not None:
                    rows = np.linalg.solve(frames[start:stop], rows)
                yield rows[::-1].transpose(1, 0, 2).reshape(len(self.base), -1)
            start = stop


def _tuple_walks(start, m, budget, max_duration, source):
    """The walk coroutine that built a `Segment` and a prefix word per
    visit: returns the visits as (state, word) pairs and the discards."""
    visits = []
    discarded = 0
    for _ in range(budget):
        length = 1 + source.index(8)
        y = start
        word = []
        for _ in range(length):
            for _ in range(3):
                idx = source.index(m)
                sign = 1 if source.uniform(0.0, 1.0) < 0.5 else -1
                tau = source.uniform(0.0, max_duration)
                if tau == 0.0:
                    tau = max_duration * 0.5
                end = yield y, (idx, sign), tau
                if end is None:
                    discarded += 1
                    continue
                y = end
                word.append(Segment(idx, sign, tau))
                visits.append((y, tuple(word)))
                break
            else:
                break
    return visits, discarded


def tuple_sample_leaves(
    family: BracketFamily,
    points: Sequence[Sequence[float]],
    budget: int,
    max_duration: float,
    seeds: Sequence[int],
    step: StepControl | None = None,
) -> list[TupleLeaf]:
    """`sample_leaves` as it was when every visit was a tuple: closed-form
    walks on tuples of floats for a constant family, and otherwise one
    `_step_lanes` lane per point carrying its frame."""
    ctrl = step or StepControl()
    gens = family.generators
    n = family.dim
    signed = {}
    for i, g in enumerate(gens):
        signed[i, 1] = g
        signed[i, -1] = g.negate()
    bases = [np.asarray(x, dtype=float) for x in points]
    sources = [_Source(np.random.default_rng(seed)) for seed in seeds]
    if all(g.is_constant for g in gens):
        origin = np.zeros(n)
        values = {key: V.compiled()(origin).tolist() for key, V in signed.items()}
        leaves = []
        for x, source in zip(bases, sources):
            walk = _tuple_walks(tuple(x.tolist()), len(gens), budget, max_duration, source)
            end = None
            try:
                while True:
                    y, key, tau = walk.send(end)
                    end = tuple([a + tau * v for a, v in zip(y, values[key])])
                    if not _in_box(end, ctrl.window):
                        end = None
            except StopIteration as stop:
                visits, discarded = stop.value
            states = np.array([y for y, _ in visits], dtype=float).reshape(len(visits), n)
            visits = tuple(zip(states, (word for _, word in visits)))
            leaves.append(TupleLeaf(x, visits, discarded))
        return leaves

    kernels = {key: (V.compiled(), V.compiled_jacobian()) for key, V in signed.items()}
    eye = np.eye(n).ravel()
    walks = [
        _tuple_walks(np.concatenate([x, eye]), len(gens), budget, max_duration, source)
        for x, source in zip(bases, sources)
    ]
    leaves = [None] * len(walks)

    def field(lanes):
        return _FrameLanes(kernels, [lane.segs[0][1] for lane in lanes], n)

    def admit(settled):
        new = []
        for j, end in settled:
            try:
                y, key, tau = walks[j].send(end)
            except StopIteration as stop:
                visits, discarded = stop.value
                frames = tuple(s[n:].reshape(n, n) for s, _ in visits)
                visits = tuple((s[:n], word) for s, word in visits)
                leaves[j] = TupleLeaf(bases[j], visits, discarded, frames)
                continue
            new.append((_Lane(j, [(tau, key)], ctrl), y))
        return new

    first = admit([(j, None) for j in range(len(walks))])
    if first:
        Y = np.array([y for _, y in first], dtype=float)
        _step_lanes([lane for lane, _ in first], Y, field, ctrl, dim=n, refill=admit)
    return leaves

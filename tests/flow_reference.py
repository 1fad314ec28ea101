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
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from geoctrl.fields import VectorField
from geoctrl.flows import (
    _DP_A,
    _DP_B4,
    _DP_B5,
    StepControl,
    _FrameLanes,
    _in_box,
    _Lane,
    _step_lanes,
    integrate_words,
)


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

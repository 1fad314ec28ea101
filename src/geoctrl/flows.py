"""Flows and leaf walks, each walk carrying its variational frame.

The driftless system dx/dt = sum_i u^i g_i(x) foliates the window into
leaves. This module integrates flows of the generators (both signs,
since the controls are unconstrained) and walks leaves with random
piecewise-constant words (`sample_leaves`). A walk carries, next to its
point, the frame of the variational equation Phi' = DV(x) Phi with
Phi(0) = I, so the visit y = psi_w(x) reached by the word w records
Phi = D psi_w(x). The drift f at that visit shifts to the base as the
pullback (psi_w)^* f = Phi^{-1} f(y) (`LeafSample.shifted_drifts`, the
one place where drifts are shifted); the shifted drifts feed the
convex-position test.

Integration is a hand-rolled Dormand-Prince 5(4) pair. The per-call
overhead of a general-purpose solver dominates at the segment lengths
used here (thousands of integrations of duration under one time unit),
so the stepper is local and allocation-light. It calls each field's one
fused kernel (`VectorField.compiled`/`compiled_jacobian`) per stage and
owns the np.errstate for them: entered once per integration, since the
kernels enter none.

`_step_lanes` is the one stepper: it steps many flows as lanes of one
vectorized DP54 with per-lane step sizes, each lane's arithmetic that of
a scalar DP54 loop over its flow alone (the loop lives on in the tests
as the lanes' reference, bit for bit); a refill hook admits new lanes as
others leave and may retire lanes unfinished. A flow that fails is a
None endpoint, never an exception. `_WordLanes` admits piecewise-
constant control words as lanes (a constant channel's term is formed
when the lanes' rhs is built, not at every stage): `integrate_words`
runs a batch of them, every word as a lane, also in a call with one
word, and the shooting streams of `metrics` keep one pool of them open
for a whole search. `sample_leaves` runs the leaf walks of non-constant
families on it, one lane per walking point, and `metrics` the drift
orbits of its steering searches, one lane per orbit, each step read
through the stepper's `observe` hook and the pair's continuous
extension (`_DP_DENSE`). Frame columns are passengers: the step control
reads the point columns alone, so a point steps exactly as a bare one
does, and on those steps the frame is the exact derivative of the
numerical flow.

A walk along constant generators (every component a `Const`, as in
every bundled system) needs no integrator: a segment is y + tau * v,
its frame is exactly I and the walk carries none. The inflated window
is a box, and a box is convex, so a segment leaves it iff its endpoint
does, which is all the stepper ever tested. Such a walk steps tuples
of Python floats, whose + and * round as numpy's elementwise ones do;
its visits become arrays when its `LeafSample` is built.

Walks draw their word lengths, generators, signs and durations from
raw 64-bit values of their generator (`_Source`), exactly as the
`Generator` calls `integers` and `uniform` read them. A leaf's shifted
drifts cost numpy calls per leaf, not Python calls per visit: one
kernel call per drift over every visit and one stacked solve per walk.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Callable, Generator, Iterator, Sequence

import numpy as np

from .fields import VectorField, evaluate_fields
from .lie import BracketFamily

__all__ = [
    "StepControl",
    "ControlWord",
    "Segment",
    "LeafSample",
    "MAX_FRAME_COND",
    "Walk",
    "inflate_window",
    "integrate_words",
    "sample_leaf",
    "sample_leaves",
]


@dataclass(frozen=True)
class StepControl:
    """DP54 tolerances, step bounds and the window a flow must stay in.

    A flow fails where a step ends outside `window` (or at a non-finite
    state), where the step size falls below `h_min`, or after `max_steps`
    steps, counted over all the segments of a word. A walk segment along
    a constant generator takes no steps, so only `window` binds it.
    """

    atol: float = 1e-9
    rtol: float = 1e-9
    h_init: float = 0.01
    h_min: float = 1e-12
    max_steps: int = 100_000
    window: tuple[tuple[float, float], ...] | None = None  # already inflated


def inflate_window(
    window: Sequence[tuple[float, float]], factor: float = 0.2
) -> tuple[tuple[float, float], ...]:
    """Expand a box about its center by `factor` of each half-width."""
    out = []
    for lo, hi in window:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * (1.0 + factor)
        out.append((mid - half, mid + half))
    return tuple(out)


def _in_box(coords: Sequence[float], box: tuple[tuple[float, float], ...] | None) -> bool:
    """The point (Python floats) is finite and, when there is a box, inside it."""
    if box is not None:
        for v, (lo, hi) in zip(coords, box):
            if not lo <= v <= hi:
                return False
    return all(map(math.isfinite, coords))


class _Source:
    """A generator read as `Generator.integers`, `.random` and `.uniform` read it.

    They read raw 64-bit values of the bit generator: a double is
    (r >> 11) * 2**-53, and `integers(0, n)` is Lemire's bounded draw on
    32-bit words, which PCG64 serves as the low and then the high half
    of one raw value (the high half waits in `half`).
    """

    __slots__ = ("raw", "half")

    def __init__(self, rng: np.random.Generator):
        self.raw = rng.bit_generator.random_raw
        self.half: int | None = None

    def uniform(self, lo: float, span: float) -> float:
        """`uniform(lo, lo + span)`; `random()` is `uniform(0.0, 1.0)`."""
        return lo + span * ((self.raw() >> 11) * 2.0**-53)

    def index(self, n: int) -> int:
        """`integers(0, n)` for 0 < n < 2**32; n == 1 draws nothing, as numpy's."""
        if n == 1:
            return 0
        floor = (1 << 32) % n  # Lemire rejects a low product below 2**32 mod n
        while True:
            if self.half is None:
                r = self.raw()
                word, self.half = r & 0xFFFFFFFF, r >> 32
            else:
                word, self.half = self.half, None
            m = word * n
            if m & 0xFFFFFFFF >= floor:
                return m >> 32


# SeedSequence's hash constants, from numpy/random/bit_generator.pyx
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = 0xCA01F9DD
_SS_MIX_R = 0x4973F715
_SS_POOL = 4
_U32 = 0xFFFFFFFF


def _spawned_states(seed: int, n: int) -> np.ndarray:
    """(n, 4) uint64: row i is SeedSequence(seed).spawn(n)[i].generate_state(4, np.uint64).

    Child i hashes the entropy words of seed, zero-padded to the pool
    size, followed by its spawn word i. Each step of SeedSequence's
    `mix_entropy` and `generate_state` runs here once for all children,
    on uint32 arrays, each step's hash constant shared by all of them.
    Column 0 is `generate_state(1, np.uint64)[0]` of each child: the
    walk seeds of the grid points of `criterion`. Rows seed the oracle's
    trajectories (`reach`).
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = []  # seed as little-endian 32-bit words
    while True:
        entropy.append(seed & _U32)
        seed >>= 32
        if not seed:
            break
    entropy += [0] * (_SS_POOL - len(entropy))
    words = [np.full(n, w, dtype=np.uint32) for w in entropy] + [np.arange(n, dtype=np.uint32)]
    shift = np.uint32(16)
    hash_const = _SS_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _SS_MULT_A & _U32
        value = value * np.uint32(hash_const)
        return value ^ (value >> shift)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
        return out ^ (out >> shift)

    pool = [hashmix(w) for w in words[:_SS_POOL]]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[_SS_POOL:]:
        for dst in range(_SS_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))
    state = np.empty((n, 8), dtype=np.uint32)
    hash_const = _SS_INIT_B
    for i in range(8):
        value = pool[i % _SS_POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _SS_MULT_B & _U32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> shift)
    return state.astype("<u4").view("<u8").astype(np.uint64)


# PCG64's 128-bit LCG multiplier, from numpy/random/src/pcg64/pcg64.h, in
# 64-bit halves and the low half's 32-bit limbs
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_PCG_MULT_LO0 = np.uint64(_PCG_MULT & _U32)
_PCG_MULT_LO1 = np.uint64(_PCG_MULT >> 32 & _U32)
_LIMB = np.uint64(32)
_LIMB_MASK = np.uint64(_U32)


def _pcg_step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit states (hi, lo) times the multiplier plus inc, mod 2**128."""
    # the high word of lo * MULT_LO, from the 32-bit limbs of both
    a0, a1 = lo & _LIMB_MASK, lo >> _LIMB
    p01, p10 = a0 * _PCG_MULT_LO1, a1 * _PCG_MULT_LO0
    mid = ((a0 * _PCG_MULT_LO0) >> _LIMB) + (p01 & _LIMB_MASK) + (p10 & _LIMB_MASK)
    carry = a1 * _PCG_MULT_LO1 + (p01 >> _LIMB) + (p10 >> _LIMB) + (mid >> _LIMB)
    hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + carry + inc_hi  # uint64 wraps
    lo = lo * _PCG_MULT_LO + inc_lo
    return hi + (lo < inc_lo), lo


class _PCG64Lanes:
    """PCG64 streams stepped together: row i is PCG64 seeded with the 4
    uint64 words words[i] (a row of `_spawned_states`).

    numpy's `pcg64_set_seed` takes state word w0 * 2**64 + w1 and
    increment word w2 * 2**64 + w3: inc = (word << 1) | 1, and from
    state 0 it steps, adds the state word and steps again. A raw value
    steps, then folds the 128-bit state to 64 bits by XSL-RR: the xor of
    its halves, rotated right by its top 6 bits. States and increments
    are kept as uint64 halves, and the rows read together step at once.
    """

    def __init__(self, words: np.ndarray):
        one = np.uint64(1)
        w0, w1, w2, w3 = (np.ascontiguousarray(words[:, j]) for j in range(4))
        self.inc_hi, self.inc_lo = (w2 << one) | (w3 >> np.uint64(63)), (w3 << one) | one
        lo = self.inc_lo + w1  # state 0 stepped is inc, plus the state word
        self.hi, self.lo = _pcg_step(self.inc_hi + w0 + (lo < w1), lo, self.inc_hi, self.inc_lo)

    def raws(self, rows: np.ndarray | None, k: int) -> np.ndarray:
        """(len(rows), k) uint64: the next k `random_raw` values of each
        row, of every row where rows is None; those rows move k steps on."""
        sel = slice(None) if rows is None else rows
        hi, lo, inc_hi, inc_lo = (a[sel] for a in (self.hi, self.lo, self.inc_hi, self.inc_lo))
        raw = np.empty((len(hi), k), dtype=np.uint64)
        for j in range(k):
            hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
            folded, rot = hi ^ lo, hi >> np.uint64(58)
            raw[:, j] = (folded >> rot) | (folded << (-rot & np.uint64(63)))
        self.hi[sel], self.lo[sel] = hi, lo
        return raw


# Dormand-Prince 5(4) coefficients
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
# the pair's continuous extension (Shampine, Math. Comp. 46, 1986): a step
# of size h from y with stages K passes y + h * K.T @ _DP_DENSE @ (s, s^2,
# s^3, s^4) at the fraction s of the step
_DP_DENSE = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


Kernel = Callable[[np.ndarray], np.ndarray]


def integrate_words(
    fields: Sequence[VectorField],
    jobs: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    ctrl: StepControl,
) -> list[np.ndarray | None]:
    """Endpoints of piecewise-constant words x' = sum_i w[i] * fields[i](x).

    A job (x0, durations, rows) flows x0 for durations[s] with channel
    coefficients rows[s], segment after segment (arrays, or sequences of
    floats); all-zero rows are skipped. An entry is None where some
    segment fails (escape, non-finite state, step underflow) or where the
    word's segments together take max_steps steps short of its end.

    Every job is a lane of `_step_lanes`, admitted by `_WordLanes`, one
    DP54 with per-lane step sizes whose per-lane arithmetic is that of the
    job stepped alone: an endpoint does not depend on which jobs share
    the call. No jobs give no endpoints.
    """
    results: list[np.ndarray | None] = [None] * len(jobs)
    if not jobs:
        return results
    words = _WordLanes(fields, ctrl)
    lanes, starts, still = words.admit(jobs)
    for j, x0 in still:
        results[j] = x0
    if lanes:
        for j, end in _step_lanes(lanes, np.array(starts, dtype=float), words, ctrl).items():
            results[j] = end
    return results


class _WordLanes:
    """The words of one system as lanes: `admit` turns jobs into lanes, and
    the instance, called on lanes, builds the rhs of their segments.

    Every admitted segment's coefficient row goes into one array that
    grows by doubling, and a lane's segment payload is its row's index
    there, so the lanes of words admitted at different times share one
    `_LaneField`. A pool that admits words as others settle (the
    shooting streams of `metrics`) keeps one instance for its whole run.
    """

    def __init__(self, fields: Sequence[VectorField], ctrl: StepControl):
        self.ctrl = ctrl
        self.fns = [F.compiled() for F in fields]
        self.values = [
            fn(np.zeros(F.dim)) if F.is_constant else None for F, fn in zip(fields, self.fns)
        ]
        self.rows = np.empty((16, len(fields)))
        self.count = 0

    def admit(
        self, jobs: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]], first: int = 0
    ) -> tuple[list[_Lane], list[np.ndarray], list[tuple[int, np.ndarray]]]:
        """The lanes of jobs numbered first, first + 1, ... and their
        starts, and (job, x0) for each job whose word never moves: every
        row all zero or every duration zero."""
        taus = np.array([t for _, d, _ in jobs for t in d], dtype=float)
        R = np.array([row for _, _, w in jobs for row in w], dtype=float)
        R = R.reshape(len(taus), self.rows.shape[1])
        moving = (np.any(R != 0.0, axis=1) & (taus != 0.0)).tolist()
        taus = taus.tolist()
        end = self.count + len(taus)
        if end > len(self.rows):
            grown = np.empty((max(end, 2 * len(self.rows)), self.rows.shape[1]))
            grown[: self.count] = self.rows[: self.count]
            self.rows = grown
        self.rows[self.count : end] = R
        lanes: list[_Lane] = []
        starts: list[np.ndarray] = []
        still: list[tuple[int, np.ndarray]] = []
        s = 0
        for j, (x0, durations, _) in enumerate(jobs, first):
            e = s + len(durations)
            segs = [(taus[k], self.count + k) for k in range(s, e) if moving[k]]
            s = e
            if segs:
                lanes.append(_Lane(j, segs, self.ctrl))
                starts.append(x0)
            else:
                still.append((j, np.array(x0, dtype=float)))
        self.count = end
        return lanes, starts, still

    def __call__(self, lanes: list[_Lane]) -> _LaneField:
        return _LaneField(
            self.fns, self.values, self.rows[[lane.segs[lane.seg][1] for lane in lanes]]
        )


class _LaneField:
    """Word RHS over a (L, n) batch: lane j is sum_i C[j, i] * fns[i].

    Sums as the scalar word rhs c_0 * f_0(p) + c_1 * f_1(p) + ... would,
    in channel order from each lane's first nonzero coefficient. A
    channel is evaluated on every lane once any lane uses it, but never
    enters the sum of a lane whose coefficient is 0: 0 * f flips signs
    of zero and 0 * nan poisons the lane where f leaves its domain. A
    constant channel (its value in
    `values`, None for the others) is no kernel call: its term
    C[:, i] * value is formed once here, not at every stage, and is the
    same product the kernel's rows would give. A channel whose
    coefficient is 1.0 on every lane (the drift of a fixed-drift word)
    enters as the kernel's rows themselves, which 1.0 * f equals.
    """

    def __init__(
        self, fns: Sequence[Kernel], values: Sequence[np.ndarray | None], C: np.ndarray
    ):
        used = C != 0.0
        some = used.any(axis=0).tolist()
        every = used.all(axis=0).tolist()
        ones = (C == 1.0).all(axis=0).tolist()
        seen = None  # lanes whose sum has started; None while none has
        self.terms = []
        for i, fn in enumerate(fns):
            if not some[i]:
                continue
            act = used[:, i]
            if every[i] and (seen is None or seen.all()):
                masks = None
            else:
                first = act if seen is None else act & ~seen
                masks = (first[:, None], act[:, None])
            seen = act if seen is None else seen | act
            coef = C[:, i : i + 1]
            if values[i] is None:
                self.terms.append((fn, None if ones[i] else coef.copy(), masks))
            else:
                self.terms.append((None, coef * values[i], masks))

    def __call__(self, Y: np.ndarray) -> np.ndarray:
        out = None
        for fn, coef, masks in self.terms:
            if fn is None:
                term = coef  # constant: the term itself
            else:
                term = fn(Y) if coef is None else coef * fn(Y)
            if masks is None:
                if out is None:
                    # the sum goes on in place, never in a kept term (a
                    # kernel's rows are its own)
                    out = term.copy() if fn is None else term
                else:
                    out += term
            else:
                first, act = masks
                if out is None:
                    out = np.zeros_like(term)
                out = np.where(first, term, np.where(act, out + term, out))
        return out


class _Lane:
    """One job's place in its segments and its DP54 step control.

    A segment is (duration, payload); the payload says which rhs the
    segment flows (the index of a word's coefficient row, a signed field
    of a walk). `steps` counts the job's steps over all its segments.
    """

    __slots__ = ("job", "segs", "seg", "sign", "remaining", "h", "steps")

    def __init__(self, job: int, segs: list, ctrl: StepControl):
        self.job = job
        self.segs = segs
        self.seg = -1
        self.steps = 0
        self.next_segment(ctrl)

    def next_segment(self, ctrl: StepControl) -> bool:
        """Start the following segment (h = min(h_init, |t|)); False at the end."""
        self.seg += 1
        if self.seg == len(self.segs):
            return False
        t = self.segs[self.seg][0]
        self.sign = 1.0 if t > 0 else -1.0
        self.remaining = abs(t)
        self.h = min(ctrl.h_init, self.remaining)
        return True


Settled = list[tuple[int, np.ndarray | None]]


def _mix(coef: np.ndarray, K: np.ndarray, dim: int) -> np.ndarray:
    """coef @ K over the stage axis of (L, stages, width) stage values.

    Frame columns past `dim` are summed apart, and the point columns as a
    contiguous array of their own, as a bare lane's: BLAS may round a
    column of a wider matrix differently.
    """
    if K.shape[-1] == dim:
        return coef @ K
    point = coef @ np.ascontiguousarray(K[..., :dim])
    return np.concatenate([point, coef @ K[..., dim:]], axis=-1)


def _step_lanes(
    lanes: list[_Lane],
    Y: np.ndarray,
    field: Callable[[list[_Lane]], Kernel],
    ctrl: StepControl,
    dim: int | None = None,
    refill: Callable[[Settled], list[tuple[_Lane, np.ndarray]]] | None = None,
    retired: set[int] | None = None,
    observe: Callable[[list[int], np.ndarray, np.ndarray, np.ndarray], None] | None = None,
) -> dict[int, np.ndarray]:
    """Step every lane through its segments: one DP54 step per lane per round.

    Row k of Y is lane k's state; `field(lanes)` builds the rhs of the
    lanes' current segments over such rows. A segment of duration t
    starts with h = min(h_init, |t|) and k0 = rhs(y). Each round, a
    lane's step is accepted where the RMS of its error over
    atol + rtol * max(|y|, |y5|) is at most 1 (a non-finite error is
    infinite), and its h is then resized by 0.9 * err**-0.2, clamped to
    [0.2, 5], and cut to the time left. The segment fails where an
    accepted step ends outside the window or at a non-finite point,
    where h falls below h_min short of the end, or where the lane's
    max_steps-th round, counted over all its segments, does not reach
    the end of its last one; an accepted step hands on its last stage as
    the next k0.
    Each lane keeps its own h, remaining time and step count, resized in
    Python floats (numpy's array power differs from `**` in the last
    ulp), and stacked `_DP_A[i] @ K[:, :i]` and row means round as the
    products and means of one lane stepped alone, so a lane's endpoint
    does not depend on the lanes beside it. Its lanes are shooting words
    and drift orbits (bare points) and the walks of non-constant
    families (points with their frames).

    The first `dim` columns of a state are its point (all of them when
    dim is None); the rest are frame columns, passengers that never
    steer: the error norm, the finiteness test and the window box read
    the point alone, and `_mix` sums the point's stages as a bare
    lane's. So a lane's point steps bit for bit as it does without
    frames.

    After each round the jobs whose lanes left go to `refill` as (job,
    endpoint) pairs in lane order, the endpoint None where a segment
    failed. It returns (lane, start) pairs to admit; they step from the
    next round on, each starting its first segment as above. The hook
    may also put jobs into `retired`: their lanes, the ones it has just
    returned too, leave the pool unreported, and the set is emptied.
    Without `refill`, returns the endpoint of every lane that finished,
    keyed by its job.

    Each round, before any lane leaves, `observe` (when given) gets the
    steps that passed the error test, escapes from the window included,
    as their jobs, start rows, (m, 7, width) stages and signed step
    sizes: enough for the caller to evaluate each step's continuous
    extension (`_DP_DENSE`), as `metrics` does to scan drift orbits.
    """
    ends: dict[int, np.ndarray] = {}
    if refill is None:

        def refill(settled: Settled) -> list[tuple[_Lane, np.ndarray]]:
            ends.update((job, end) for job, end in settled if end is not None)
            return []

    dim = dim or Y.shape[1]
    box = None if ctrl.window is None else np.array(ctrl.window, dtype=float).T
    h_min, max_steps = ctrl.h_min, ctrl.max_steps
    with np.errstate(all="ignore"):
        rhs = field(lanes)
        K0 = rhs(Y)
        while lanes:
            L = len(lanes)
            hs = np.array([lane.sign * lane.h for lane in lanes])[:, None]
            K = np.empty((L, 7, Y.shape[1]))
            K[:, 0] = K0
            for i in range(1, 7):
                K[:, i] = rhs(Y + hs * _mix(_DP_A[i], K[:, :i], dim))
            Y5 = Y + hs * _mix(_DP_B5, K, dim)
            Y4 = Y + hs * _mix(_DP_B4, K, dim)
            P, P5 = Y[:, :dim], Y5[:, :dim]
            scale = ctrl.atol + ctrl.rtol * np.maximum(np.abs(P), np.abs(P5))
            errs = np.sqrt(np.add.reduce(((P5 - Y4[:, :dim]) / scale) ** 2, axis=1) / dim).tolist()
            inside = np.isfinite(P5).all(axis=1)
            if box is not None:
                inside &= ((box[0] <= P5) & (P5 <= box[1])).all(axis=1)
            inside = inside.tolist()
            accepted = [False] * L
            keep: list[int] = []  # surviving lanes, by old index
            fresh: list[int] = []  # lanes in a new segment, by new index
            left: list[tuple[int, bool]] = []  # (old index, finished) of leaving lanes
            for k, lane in enumerate(lanes):
                err = errs[k]  # a nan error is rejected as an infinite one
                if err <= 1.0:
                    if not inside[k]:
                        left.append((k, False))  # window escape
                        continue
                    accepted[k] = True
                    lane.remaining -= lane.h
                # min(5.0, max(0.2, f)) as comparisons: an infinite error's
                # f is 0.0 and a nan error's nan, and both clamp to 0.2
                f = 0.9 * (err + 1e-16) ** -0.2
                h = lane.h * (5.0 if f > 5.0 else f if f > 0.2 else 0.2)
                remaining = lane.remaining
                if h < h_min and h < remaining:
                    left.append((k, False))  # step underflow
                    continue
                lane.steps += 1
                ended = remaining <= 0.0
                if ended and not lane.next_segment(ctrl):
                    left.append((k, True))
                    continue
                if lane.steps == max_steps:
                    left.append((k, False))  # out of steps, over the whole word
                    continue
                if ended:
                    fresh.append(len(keep))
                else:
                    lane.h = remaining if remaining < h else h
                keep.append(k)
            if observe is not None:
                passed = [k for k, err in enumerate(errs) if err <= 1.0]
                if passed:
                    observe([lanes[k].job for k in passed], Y[passed], K[passed], hs[passed, 0])
            moved = np.array(accepted)[:, None]
            Y = np.where(moved, Y5, Y)
            K0 = np.where(moved, K[:, 6], K0)
            if left:
                admitted = refill(
                    [(lanes[k].job, Y[k].copy() if finished else None) for k, finished in left]
                )
                if retired:
                    live = [i for i, k in enumerate(keep) if lanes[k].job not in retired]
                    was_fresh = set(fresh)
                    fresh = [j for j, i in enumerate(live) if i in was_fresh]
                    keep = [keep[i] for i in live]
                    admitted = [a for a in admitted if a[0].job not in retired]
                    retired.clear()
                lanes = [lanes[k] for k in keep]
                Y, K0 = Y[keep], K0[keep]
                if admitted:
                    fresh.extend(range(len(lanes), len(lanes) + len(admitted)))
                    lanes += [lane for lane, _ in admitted]
                    Y = np.vstack([Y, np.array([start for _, start in admitted], dtype=float)])
                    K0 = np.concatenate([K0, np.empty((len(admitted), K0.shape[1]))])
                if not lanes:
                    break
            if fresh or left:
                rhs = field(lanes)
            if fresh:
                K0[fresh] = rhs(Y)[fresh]
    return ends


class _FrameLanes:
    """The rhs (x, W) -> (V(x), DV(x) W) over a (L, n + n*c) batch of lanes.

    Lane j flows kernels[keys[j]] = (field, Jacobian), W its n x c frame.
    Each field and its Jacobian are evaluated once per call on the rows
    of the lanes that flow it, on their points as a contiguous (rows, n)
    array, as bare lanes give them, and DV(x) W is one stacked matmul.
    """

    def __init__(self, kernels: dict, keys: Sequence, n: int):
        self.n = n
        rows: dict = {}
        for j, key in enumerate(keys):
            rows.setdefault(key, []).append(j)
        every = len(keys)
        self.groups = [
            (kernels[key], None if len(idx) == every else np.array(idx))
            for key, idx in rows.items()
        ]

    def __call__(self, Y: np.ndarray) -> np.ndarray:
        n = self.n
        width = Y.shape[1]
        out = np.empty_like(Y)
        for (fn, jac), idx in self.groups:
            rows = slice(None) if idx is None else idx
            X = np.ascontiguousarray(Y[rows, :n])
            out[rows, :n] = fn(X)
            W = Y[rows, n:].reshape(len(X), n, (width - n) // n)
            out[rows, n:] = (jac(X) @ W).reshape(len(X), width - n)
        return out


# a control word is a sequence of (field_index, sign, duration) segments
@dataclass(frozen=True)
class Segment:
    field_index: int
    sign: int
    duration: float


ControlWord = tuple[Segment, ...]
# a walk is its visits (point, prefix word), one per segment, in order
Walk = tuple[tuple[np.ndarray, ControlWord], ...]

# a walk whose frame is worse conditioned than this at some visit counts
# as failed: solving against its frame would lose more than half of the
# digits of a double
MAX_FRAME_COND = 1e8


def _same(a, b) -> bool:
    """a == b, arrays compared by dtype, shape and bytes, sequences itemwise."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return bool(a == b)


def fields_equal(a, b) -> bool:
    """Value equality of two dataclasses that hold numpy arrays.

    The generated __eq__ compares fields as tuples, which asks an array
    for its truth value and raises; this compares each array by dtype,
    shape and bytes and every other field with ==.
    """
    return type(a) is type(b) and all(
        _same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
    )


@dataclass(frozen=True, eq=False)
class LeafSample:
    base: np.ndarray
    visits: tuple[tuple[np.ndarray, ControlWord], ...]
    discarded: int  # walk attempts that escaped the window
    # per visit, the frame D psi_w(base) of its word w; None when every
    # generator is constant, so that every frame is exactly I
    frames: tuple[np.ndarray, ...] | None = None

    def __eq__(self, other):
        return fields_equal(self, other) if isinstance(other, LeafSample) else NotImplemented

    __hash__ = None

    def walks(self) -> list[Walk]:
        """The visits regrouped into the walks that made them, in draw order.

        A one-segment word starts a new walk, so a walk whose first
        segment never fitted the window made no visit and is no walk.
        """
        walks: list[list[tuple[np.ndarray, ControlWord]]] = []
        for visit in self.visits:
            if len(visit[1]) == 1:
                walks.append([])
            walks[-1].append(visit)
        return [tuple(walk) for walk in walks]

    def shifted_drifts(self, drifts: Sequence[VectorField]) -> Iterator[np.ndarray | None]:
        """Per walk, in draw order, the drifts at its visits shifted to the base.

        The drift f at a visit y with frame Phi shifts to Phi^{-1} f(y),
        and to f(y) itself where the leaf carries no frames. Yields an
        (n, visits * len(drifts)) column stack, deepest visit first and
        the drifts in order within a visit, or None for a failed walk:
        one whose frame is non-finite or has a condition number above
        MAX_FRAME_COND at some visit.

        Each drift's kernel runs once over every visit of the leaf, and
        a walk's frames take one stacked solve. A visit where a kernel
        value is not finite is evaluated again by `evaluate_fields`,
        deepest such visit first, when its walk is yielded: a drift
        undefined there raises `EvalDomainError` then and not before.
        """
        if not self.visits:
            return
        points = np.array([y for y, _ in self.visits])
        with np.errstate(all="ignore"):
            values = np.stack([f.compiled()(points) for f in drifts], axis=-1)
            if self.frames is not None:
                frames = np.array(self.frames)
                sound = np.isfinite(frames).all(axis=(1, 2))
                sound[sound] = np.linalg.cond(frames[sound]) <= MAX_FRAME_COND
        # the visits where some kernel value is not finite
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


def sample_leaf(
    family: BracketFamily,
    x: Sequence[float],
    budget: int = 16,
    max_duration: float = 1.0,
    rng_seed: int = 0,
    step: StepControl | None = None,
) -> LeafSample:
    """Random-walk exploration of the leaf through x: `sample_leaves` on x alone.

    Runs `budget` independent walks from the base. Each walk draws a
    word of 1..8 segments with uniform field choice, sign, and duration
    in (0, max_duration]. Every segment endpoint is recorded as a visit
    with its prefix word and frame. Segments that would leave the
    inflated window are discarded (the escaping point is dropped and
    counted) and the segment slot is redrawn up to three times before
    the walk gives up, so walks near the window boundary keep exploring
    inward.
    """
    return sample_leaves(family, [x], budget, max_duration, [rng_seed], step)[0]


# one segment attempt of a walk: start state (an array, or a tuple of
# floats in a closed-form walk), (field_index, sign), duration
Attempt = tuple[object, tuple[int, int], float]


def _walks(
    start, m: int, budget: int, max_duration: float, source: _Source
) -> Generator[Attempt, object, tuple[list, int]]:
    """`sample_leaf`'s walks from start as a coroutine over its segment attempts.

    Yields each attempt and receives its end state, or None where the
    flow failed; returns the visits as (state, word) pairs and the
    discard count. Draws come from source alone, so they do not depend
    on when the end states arrive. They are the numbers of the
    `Generator` calls `integers(1, 9)` (the word length), then per
    attempt `integers(0, m)` (none when m == 1), `random()` (the sign)
    and `uniform(0.0, max_duration)`.
    """
    visits: list[tuple[object, ControlWord]] = []
    discarded = 0
    for _ in range(budget):
        length = 1 + source.index(8)
        y = start
        word: list[Segment] = []
        for _ in range(length):
            for _ in range(3):
                idx = source.index(m)
                sign = 1 if source.uniform(0.0, 1.0) < 0.5 else -1
                # durations stay strictly positive
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
                break  # three failed attempts end the walk
    return visits, discarded


def sample_leaves(
    family: BracketFamily,
    points: Sequence[Sequence[float]],
    budget: int,
    max_duration: float,
    seeds: Sequence[int],
    step: StepControl | None = None,
) -> list[LeafSample]:
    """`sample_leaf` at every point, point j walking from rng seed seeds[j].

    When every generator is constant, the frames are I and a segment is
    y + tau * v in closed form, v the value of its signed generator: no
    integrator runs, so `step` binds it through its window alone (not
    `max_steps`, `h_min`, `atol` or `rtol`). The window is a box, so the
    segment stays in it iff its endpoint does.

    Otherwise each point's walks run as one lane of a `_step_lanes`
    pool: when its segment ends or fails, the point's next attempt joins
    the pool in the same round, so no point waits for another. Lanes are
    grouped by signed generator, and a lane's point steps as it would
    alone, so a point's sample does not depend on the other points. A lane carries its walk's frame as n x n passenger
    columns, from I at the base, so each visit records its frame.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    ctrl = step or StepControl()
    gens = family.generators
    n = family.dim
    signed = {}  # (field_index, sign) -> the signed field
    for i, g in enumerate(gens):
        signed[i, 1] = g
        signed[i, -1] = g.negate()
    bases = [np.asarray(x, dtype=float) for x in points]
    sources = [_Source(np.random.default_rng(seed)) for seed in seeds]
    if all(g.is_constant for g in gens):
        # states are tuples of Python floats, whose + and * are numpy's
        # elementwise; the visits become arrays once the walks are done
        origin = np.zeros(n)
        values = {key: V.compiled()(origin).tolist() for key, V in signed.items()}
        leaves = []
        for x, source in zip(bases, sources):
            walk = _walks(tuple(x.tolist()), len(gens), budget, max_duration, source)
            end = None  # sending None starts the coroutine at its first attempt
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
            leaves.append(LeafSample(x, visits, discarded))
        return leaves

    kernels = {key: (V.compiled(), V.compiled_jacobian()) for key, V in signed.items()}
    eye = np.eye(n).ravel()
    walks = [
        _walks(np.concatenate([x, eye]), len(gens), budget, max_duration, source)
        for x, source in zip(bases, sources)
    ]
    leaves: list[LeafSample | None] = [None] * len(walks)

    def field(lanes: list[_Lane]) -> _FrameLanes:
        return _FrameLanes(kernels, [lane.segs[0][1] for lane in lanes], n)

    def admit(settled: Settled) -> list[tuple[_Lane, np.ndarray]]:
        new = []
        for j, end in settled:
            try:
                y, key, tau = walks[j].send(end)
            except StopIteration as stop:
                visits, discarded = stop.value  # states are a point and its frame
                frames = tuple(s[n:].reshape(n, n) for s, _ in visits)
                visits = tuple((s[:n], word) for s, word in visits)
                leaves[j] = LeafSample(bases[j], visits, discarded, frames)
                continue
            new.append((_Lane(j, [(tau, key)], ctrl), y))
        return new

    # sending None starts each coroutine at its first attempt
    first = admit([(j, None) for j in range(len(walks))])
    if first:
        Y = np.array([y for _, y in first], dtype=float)
        lanes = [lane for lane, _ in first]
        _step_lanes(lanes, Y, field, ctrl, dim=n, refill=admit)
    return leaves

"""Monte-Carlo reachability oracle.

Simulates ensembles of trajectories of dx/dt = f(x) + sum_i u^i g_i(x)
under random piecewise-constant controls and measures window coverage
on an occupancy grid. The oracle is deliberately independent of the
criterion pipeline: it shares no geometry code beyond the system
definition, so agreement between the two is meaningful evidence.

Integration is fixed-step RK4 over the live trajectories at once
(`_run`, the one stepper). A constant control field's kernel runs once
per run, and its term u^i g_i is formed once per step and added at each
of the four stages; a non-constant control costs a kernel call per
stage. A step takes three field evaluations, not four, where the spec
proves the second and third stages equal (`_k3_is_k2`): when every
field reads only coordinates whose components are constants in every
field, the two stages are evaluated at states that agree in every
column the fields read, so the second stage is the third bit for bit.
A step's stage states share one buffer, control terms are added into
each kernel's fresh output, and the RK4 sum ((k1 + 2 k2) + 2 k3) + k4
accumulates in k1: in-place ufuncs, each with the operands of the plain
expression in their order, so every bit is the same. Lanes that retire
leave every per-lane array through one index (`np.flatnonzero`, `take`).
The controls are piecewise constant with segment ends quantized
to the step grid; the realized inputs are therefore still admissible
controls, just drawn from a slightly coarsened family, which is all an
occupancy estimate needs.

Trajectory i draws its segments from PCG64 seeded with its own child
of SeedSequence(seed), in raw 64-bit blocks of BLOCK_SEGMENTS segments
(`_Draws`). The seed states of all children come from one vectorized
pass of SeedSequence's hash (`flows._spawned_states`), and every stream
is stepped by one vectorized PCG64 (`flows._PCG64Lanes`): the first
blocks in one pass, and later half blocks for every live trajectory
running low in one pass more, so no generator object is built. The
blocks are turned into exactly the numbers that Generator.uniform and
Generator.integers give for the same stream, so a cloud does not depend
on how its draws are batched, and the trajectories whose segments end
at a step draw together.

Every record (t = 0 and then every sample stride) hands the live
trajectories inside the window to a fold, which may end the run.
`simulate_reach` folds them into a compact `ReachCloud`.
`cross_validate` folds its coverage runs into an occupancy grid and its
witness run into the covector test, which ends the run at the first
record that crosses the covector, so those runs store no point.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .criterion import (
    STATUS_CONTROLLABLE,
    STATUS_UNCONTROLLABLE,
    GlobalVerdict,
)
from .expr import Const, _reads
from .flows import _PCG64Lanes, _spawned_states, fields_equal, inflate_window
from .system import SystemSpec

__all__ = [
    "ReachCloud",
    "simulate_reach",
    "coverage",
    "monotone_witness_check",
    "cross_validate",
    "export_csv",
]

DEFAULT_DT = 0.02
COVERAGE_THRESHOLD = 0.9
COVERAGE_CELLS = 8
# a stored point may sit this far on the wrong side of a separating
# covector before the cloud counts as crossing it
WITNESS_TOL = 1e-6
# Trajectories roam in a window inflated by this factor before freezing.
# Wider than the 20% guard used for leaf walks on purpose: a start
# near the window edge needs room to turn around, and truncation here is
# only a cost control, not part of any geometric contract.
ORACLE_INFLATION = 0.5
# Random piecewise-constant controls: each segment draws every input
# uniformly from [-CONTROL_AMPLITUDE, CONTROL_AMPLITUDE] and holds it for
# a duration drawn uniformly from SEGMENT_DURATIONS.
CONTROL_AMPLITUDE = 5.0
SEGMENT_DURATIONS = (0.05, 0.5)
# Segments' worth of raw draws a trajectory's buffer holds: its first
# block is a full one, and a refill adds half of one. Larger blocks mean
# fewer refills but more memory per trajectory. Most witness-run
# trajectories retire inside their first block.
BLOCK_SEGMENTS = 16


@dataclass(frozen=True, eq=False)
class ReachCloud:
    """The points an ensemble stored, in record order and by trajectory.

    A record stores every live trajectory inside the window; it keeps
    its time and a packed bitmap of those trajectories, so a point costs
    its coordinates alone. `traj_ids` and `times` expand the records to
    one entry per point.
    """

    origin: np.ndarray
    horizon: float
    n_traj: int
    points: np.ndarray  # (M, n) stored points, all inside the window
    record_times: np.ndarray  # (R,) the time of each record that stored a point
    record_bits: np.ndarray  # (R, ceil(n_traj / 8)) uint8, np.packbits of who stored
    window: tuple[tuple[float, float], ...]

    def _stored(self) -> tuple[np.ndarray, np.ndarray]:
        return np.nonzero(np.unpackbits(self.record_bits, axis=1, count=self.n_traj))

    @property
    def traj_ids(self) -> np.ndarray:
        """(M,) int64: the trajectory of each point."""
        return self._stored()[1]

    @property
    def times(self) -> np.ndarray:
        """(M,) float64: the record time of each point."""
        return self.record_times[self._stored()[0]]

    def __eq__(self, other):
        return fields_equal(self, other) if isinstance(other, ReachCloud) else NotImplemented

    __hash__ = None

    def occupancy(self, cells_per_axis: int) -> np.ndarray:
        """Boolean occupancy grid of shape (cells,)*n over the window."""
        n = len(self.window)
        grid = np.zeros((cells_per_axis,) * n, dtype=bool)
        _occupy(grid.ravel(), self.points, self.window, cells_per_axis)
        return grid


def _cell_indices(
    pts: np.ndarray, window: Sequence[tuple[float, float]], cells: int
) -> np.ndarray:
    n = pts.shape[1]
    flat = np.zeros(len(pts), dtype=np.int64)
    for ax in range(n):
        lo, hi = window[ax]
        col = np.clip(((pts[:, ax] - lo) / (hi - lo) * cells).astype(int), 0, cells - 1)
        flat = flat * cells + col
    return flat


def _occupy(
    flat_grid: np.ndarray, pts: np.ndarray, window: Sequence[tuple[float, float]], cells: int
) -> None:
    """Mark the cells of the points in a raveled occupancy grid."""
    flat_grid[_cell_indices(pts, window, cells)] = True


def _covector_values(
    pts: np.ndarray, origin: np.ndarray, witness: Sequence[float], quotient_frame: np.ndarray
) -> np.ndarray:
    """<d, Q (p - x0)> for every point p."""
    return ((pts - origin) @ quotient_frame.T) @ np.asarray(witness, dtype=float)


class _Draws:
    """The control segments of every trajectory, drawn from its own stream.

    Trajectory i owns child i of SeedSequence(seed) and reads raw 64-bit
    values of PCG64 seeded from it (row i of one `flows._PCG64Lanes`).
    Every lane's first block comes from one vectorized pass; lane i's
    unread values are raw[i, cur[i]:end[i]]. When a lane runs short,
    one pass gives half a block more to every live lane with half a
    block or less left, so the lanes refill as a cohort and the buffer
    stays a block wide. A retired lane (`live` cleared) is refilled no
    more. The raw values become the numbers that
    Generator.uniform(-A, A, m), .uniform(*SEGMENT_DURATIONS) and, for a
    switched drift, .integers(0, n_drifts) give in turn: a double is
    (r >> 11) * 2**-53, and an index is Lemire's bounded draw on 32-bit
    words, which PCG64 serves as the low and then the high half of one
    raw value (the high half waits in a buffer across double draws).
    """

    def __init__(self, seed: int, n_traj: int, m: int, n_drifts: int):
        self.streams = _PCG64Lanes(_spawned_states(seed, n_traj))
        self.m = m
        self.n_drifts = n_drifts
        self.width = BLOCK_SEGMENTS * (m + 1 + (n_drifts > 1))
        self.raw = self.streams.raws(None, self.width)
        self.cur = np.zeros(n_traj, dtype=np.intp)  # next unread raw
        self.end = np.full(n_traj, self.width, dtype=np.intp)  # past the last unread raw
        self.live = np.ones(n_traj, dtype=bool)
        self.half = np.zeros(n_traj, dtype=np.uint64)  # the buffered high word
        self.has_half = np.zeros(n_traj, dtype=bool)

    def _refill(self) -> None:
        """Half a block more for every live lane with half a block or less left."""
        k = self.width // 2
        rows = np.flatnonzero(self.live & (self.end - self.cur <= k))
        left = self.end[rows] - self.cur[rows]
        cols = np.arange(k)
        # keep the unread tail (at most k values) at the front, then append
        tail = np.minimum(self.cur[rows, None] + cols, self.width - 1)
        self.raw[rows, :k] = self.raw[rows[:, None], tail]
        self.raw[rows[:, None], left[:, None] + cols] = self.streams.raws(rows, k)
        self.cur[rows] = 0
        self.end[rows] = left + k

    def _take(self, lanes: np.ndarray, k: int) -> np.ndarray:
        """The next k raw values of each lane, (len(lanes), k)."""
        cur = self.cur[lanes]
        if (cur > self.end[lanes] - k).any():
            self._refill()
            cur = self.cur[lanes]
        self.cur[lanes] = cur + k
        return self.raw[lanes[:, None], cur[:, None] + np.arange(k)]

    def _words(self, lanes: np.ndarray) -> np.ndarray:
        """The next 32-bit word of each lane, as uint64."""
        words = self.half[lanes]
        fresh = ~self.has_half[lanes]
        if fresh.any():
            raw = self._take(lanes[fresh], 1)[:, 0]
            words[fresh] = raw & 0xFFFFFFFF
            self.half[lanes[fresh]] = raw >> 32
        self.has_half[lanes] = fresh
        return words

    def segments(self, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each lane's next controls (k, m), duration (k,) and drift index (k,)."""
        d = (self._take(lanes, self.m + 1) >> 11) * 2.0**-53
        a = CONTROL_AMPLITUDE
        lo, hi = SEGMENT_DURATIONS
        u = -a + (a - (-a)) * d[:, : self.m]
        dur = lo + (hi - lo) * d[:, self.m]
        idx = np.zeros(len(lanes), dtype=np.intp)
        if self.n_drifts > 1:
            n = self.n_drifts
            floor = (1 << 32) % n  # Lemire rejects a low word below 2**32 mod n
            todo = np.arange(len(lanes))
            while len(todo):
                prod = self._words(lanes[todo]) * np.uint64(n)
                ok = (prod & 0xFFFFFFFF) >= floor
                idx[todo[ok]] = (prod[ok] >> 32).astype(np.intp)
                todo = todo[~ok]
        return u, dur, idx


def _inside(X: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Rows of X inside the box; a nan row is not."""
    ok = (X[:, 0] >= box[0, 0]) & (X[:, 0] <= box[0, 1])
    for ax in range(1, X.shape[1]):
        ok &= (X[:, ax] >= box[ax, 0]) & (X[:, ax] <= box[ax, 1])
    return ok


def _ensemble(
    system: SystemSpec, x0: Sequence[float], T: float | None, n_traj: int | None, seed: int | None
) -> tuple[np.ndarray, float, int, int]:
    """x0, T, n_traj and seed, the spec's own where not given."""
    T = float(T if T is not None else system.horizon)
    n_traj = int(n_traj if n_traj is not None else system.n_traj)
    if T <= 0 or n_traj < 1:
        raise ValueError("need T > 0 and n_traj >= 1")
    return np.asarray(x0, dtype=float), T, n_traj, system.seed if seed is None else seed


def _k3_is_k2(system: SystemSpec) -> bool:
    """Is RK4's third stage the second, bit for bit, in every run of the spec?

    Let S be the coordinates whose component is a `Const` in every drift
    and every control. In a column of S, every stage sums the same
    constants and once-per-step control terms in the same channel order,
    so k1 and k2 agree there, and so do the states X + h/2 k1 and
    X + h/2 k2 of the second and third stages. Where every component of
    every field reads only variables in S (syntactically: 0*x1 reads
    x1), the elementwise kernels see the same values at both states, and
    the drift masks are fixed within a step, so k3 is k2.
    """
    fields = system.drifts + system.controls
    S = {j for j in range(system.dim) if all(isinstance(F.components[j], Const) for F in fields)}
    return all(_reads(c) <= S for F in fields for c in F.components)


def _run(
    system: SystemSpec,
    x0: np.ndarray,
    T: float,
    n_traj: int,
    seed: int,
    fold: Callable[[float, np.ndarray, np.ndarray], bool | None],
    sample_stride: float = 0.1,
    dt: float = DEFAULT_DT,
) -> None:
    """Step an ensemble of randomly controlled trajectories from x0.

    At t = 0, every sample_stride and at T, fold(t, points, ids) gets
    the points of the live trajectories inside the window and their
    ids, in ascending id; the run ends where it returns True. A
    trajectory that leaves the inflated roaming window, or turns nan,
    retires at once and is stepped no more, and its draws are refilled
    no more.

    A constant control's term U[:, i] * g_i is formed once per step,
    the same product its kernel's rows would give, and enters each RK4
    stage in channel order; a non-constant control costs one kernel call
    per stage. So every stage sum is bit for bit that of calling every
    kernel at every stage. Where `_k3_is_k2` holds, the second stage
    serves as the third, which it equals bit for bit, so a step takes
    three field evaluations, and 2 k2 is formed once and added twice.
    """
    m = len(system.controls)
    drift_fns = [d.compiled() for d in system.drifts]
    control_fns = [g.compiled() for g in system.controls]
    # a constant control's kernel runs once, here, at one point
    values = [
        fn(np.zeros(system.dim)) if g.is_constant else None
        for g, fn in zip(system.controls, control_fns)
    ]
    n_drifts = len(drift_fns)
    roam = np.array(inflate_window(system.window, ORACLE_INFLATION))
    win = np.array(system.window)
    draws = _Draws(seed, n_traj, m, n_drifts)

    ids = np.arange(n_traj)  # the live trajectories
    X = np.tile(x0, (n_traj, 1))
    U = np.zeros((n_traj, m))
    seg_end = np.zeros(n_traj)
    didx = np.zeros(n_traj, dtype=np.intp)

    def rhs(Y: np.ndarray, masks: list[np.ndarray], terms: list) -> np.ndarray:
        # every kernel's output is fresh, so the sum goes on in place in it
        if n_drifts == 1:
            out = drift_fns[0](Y)
        else:
            out = np.empty_like(Y)
            for fn, mask in zip(drift_fns, masks):
                if mask.any():
                    out[mask] = fn(Y[mask])
        for i, term in enumerate(terms):
            if term is None:
                term = control_fns[i](Y)
                np.multiply(U[:, i : i + 1], term, out=term)
            out += term
        return out

    def record(t: float) -> bool:
        inside = _inside(X, win)
        return bool(inside.any() and fold(t, X[inside], ids[inside]))

    n_steps = int(np.ceil(T / dt))
    stride_steps = max(1, int(round(sample_stride / dt)))
    k3_is_k2 = _k3_is_k2(system)
    if record(0.0):
        return
    t = 0.0
    # the kernels enter no errstate; a lane that turns nan is retired below
    with np.errstate(all="ignore"):
        for step_i in range(n_steps):
            h = min(dt, T - t)
            due = np.flatnonzero(seg_end <= t + 1e-12)
            if len(due):
                U[due], dur, didx[due] = draws.segments(ids[due])
                seg_end[due] = t + dur
            masks = [didx == j for j in range(n_drifts)] if n_drifts > 1 else []
            terms = [None if v is None else U[:, i : i + 1] * v for i, v in enumerate(values)]
            # the stage states X + (h/2) k and X + h k, in one buffer
            stage = np.empty_like(X)
            k1 = rhs(X, masks, terms)
            np.add(X, np.multiply(0.5 * h, k1, out=stage), out=stage)
            k2 = rhs(stage, masks, terms)
            if k3_is_k2:
                k3 = k2
            else:
                np.add(X, np.multiply(0.5 * h, k2, out=stage), out=stage)
                k3 = rhs(stage, masks, terms)
            np.add(X, np.multiply(h, k3, out=stage), out=stage)
            k4 = rhs(stage, masks, terms)
            # X + (h/6) (((k1 + 2 k2) + 2 k3) + k4), summed into k1
            twice = np.multiply(2, k2, out=stage)
            k1 += twice
            k1 += twice if k3_is_k2 else np.multiply(2, k3, out=k3)
            k1 += k4
            X += np.multiply(h / 6.0, k1, out=k1)
            t += h
            live = _inside(X, roam)
            if not live.all():
                draws.live[ids[~live]] = False  # a retired lane never draws again
                keep = np.flatnonzero(live)
                ids, X, U, seg_end, didx = (
                    a.take(keep, axis=0) for a in (ids, X, U, seg_end, didx)
                )
                if not len(ids):
                    break
            if (step_i + 1) % stride_steps == 0 or step_i == n_steps - 1:
                if record(t):
                    break


def _trim_heap() -> None:
    """Hand freed heap pages back to the OS; a no-op without glibc."""
    import ctypes  # imported here, so that importing geoctrl stays as fast

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def simulate_reach(
    system: SystemSpec,
    x0: Sequence[float],
    T: float | None = None,
    n_traj: int | None = None,
    sample_stride: float = 0.1,
    seed: int | None = None,
    dt: float = DEFAULT_DT,
) -> ReachCloud:
    """Integrate an ensemble of randomly controlled trajectories.

    Points are recorded at t=0 and every sample_stride thereafter while
    the trajectory stays inside the window. A trajectory leaving the
    inflated roaming window freezes there; its earlier points are kept.
    Identical seeds give identical clouds, and trajectory i is driven by
    its own child stream of PCG64, read in the same order however the
    draws are refilled, so growing n_traj or T only appends data.
    The cloud keeps its points and, per record, its time and a bitmap
    of the trajectories it stored; the chunk heap of the records is
    handed back to the OS once the cloud is assembled.
    """
    x0, T, n_traj, seed = _ensemble(system, x0, T, n_traj, seed)
    chunks: list[np.ndarray] = []
    bits: list[np.ndarray] = []
    times: list[float] = []

    def store(t: float, pts: np.ndarray, ids: np.ndarray) -> None:
        stored = np.zeros(n_traj, dtype=bool)
        stored[ids] = True
        chunks.append(pts)
        bits.append(np.packbits(stored))
        times.append(t)

    _run(system, x0, T, n_traj, seed, store, sample_stride, dt)
    n_bytes = -(-n_traj // 8)
    cloud = ReachCloud(
        origin=x0,
        horizon=T,
        n_traj=n_traj,
        points=np.concatenate(chunks) if chunks else np.zeros((0, system.dim)),
        record_times=np.array(times, dtype=float),
        record_bits=np.array(bits, dtype=np.uint8).reshape(len(bits), n_bytes),
        window=tuple(system.window),
    )
    chunks.clear()
    _trim_heap()
    return cloud


def coverage(
    cloud: ReachCloud,
    window: Sequence[tuple[float, float]] | None = None,
    cells_per_axis: int = COVERAGE_CELLS,
) -> float:
    """Fraction of occupancy cells holding at least one cloud point."""
    window = tuple(window if window is not None else cloud.window)
    grid = np.zeros(cells_per_axis ** len(window), dtype=bool)
    _occupy(grid, cloud.points, window, cells_per_axis)
    return np.count_nonzero(grid) / grid.size


def monotone_witness_check(
    cloud: ReachCloud,
    witness: Sequence[float],
    quotient_frame: np.ndarray,
    tol: float = WITNESS_TOL,
) -> bool:
    """Does the cloud respect the separating covector frozen at the origin?

    True iff <d, Q (p - x0)> >= -tol for every stored point p, with Q
    the quotient frame at the origin. Exact only when the control span
    is constant over the window; heuristic otherwise.
    """
    if len(cloud.points) == 0:
        return True
    values = _covector_values(cloud.points, cloud.origin, witness, quotient_frame)
    return bool(np.min(values) >= -tol)


def _covered(
    system: SystemSpec, x0, T: float | None, n_traj: int | None, seed: int, cells: int
) -> float:
    """`coverage` of `simulate_reach`, folded record by record into a grid."""
    x0, T, n_traj, seed = _ensemble(system, x0, T, n_traj, seed)
    window = tuple(system.window)
    grid = np.zeros(cells ** len(window), dtype=bool)
    _run(system, x0, T, n_traj, seed, lambda t, pts, ids: _occupy(grid, pts, window, cells))
    return np.count_nonzero(grid) / grid.size


def _respected(
    system: SystemSpec,
    x0,
    T: float | None,
    n_traj: int | None,
    seed: int,
    witness: Sequence[float],
    quotient_frame: np.ndarray,
) -> bool:
    """`monotone_witness_check` of `simulate_reach`, folded record by record
    up to the first record that crosses the covector."""
    x0, T, n_traj, seed = _ensemble(system, x0, T, n_traj, seed)
    crossed = [False]

    def fold(t: float, pts: np.ndarray, ids: np.ndarray) -> bool:
        lowest = np.min(_covector_values(pts, x0, witness, quotient_frame))
        crossed[0] = bool(lowest < -WITNESS_TOL)
        return crossed[0]  # True ends the run: the answer is in

    _run(system, x0, T, n_traj, seed, fold)
    return not crossed[0]


def cross_validate(
    verdict: GlobalVerdict,
    system: SystemSpec,
    n_traj: int | None = None,
    horizon: float | None = None,
    seed: int | None = None,
    cells_per_axis: int = COVERAGE_CELLS,
    threshold: float = COVERAGE_THRESHOLD,
) -> dict:
    """Corroborate or refute a criterion verdict by simulation.

    CONTROLLABLE: simulate from the window center and 4 random starts,
    forward and time-reversed; every run must meet the coverage
    threshold, since a controllable system reaches the whole window from
    anywhere in either time direction. UNCONTROLLABLE: re-simulate from
    a failing base point and require the cloud to respect the separating
    covector; `exact` says whether the verdict's points share one
    quotient (the projectors of their quotient frames agree), so that
    the covector means the same at every point. Anything else is
    untested. Each run is the ensemble `simulate_reach` would step,
    folded as it goes into the occupancy grid of `coverage` or the test
    of `monotone_witness_check`, which ends the witness run at the first
    record that crosses the covector, so no run stores its points and
    the results are the same.
    """
    seed = system.seed if seed is None else seed
    if verdict.status == STATUS_CONTROLLABLE:
        rng = np.random.default_rng(seed)
        lo = np.array([w[0] for w in system.window])
        hi = np.array([w[1] for w in system.window])
        starts = [0.5 * (lo + hi)] + [rng.uniform(lo, hi) for _ in range(4)]
        reversed_system = replace(
            system, drifts=tuple(d.negate() for d in system.drifts)
        )
        entries = []
        agree = True
        for si, start in enumerate(starts):
            for label, sys_ in (("forward", system), ("reverse", reversed_system)):
                cov = _covered(sys_, start, horizon, n_traj, seed + si, cells_per_axis)
                ok = cov >= threshold
                agree &= ok
                entries.append(
                    {
                        "start": [float(v) for v in start],
                        "direction": label,
                        "coverage": cov,
                        "agree": ok,
                    }
                )
        return {
            "mode": "coverage",
            "status": "AGREE" if agree else "DISAGREE",
            "threshold": threshold,
            "entries": entries,
        }
    if verdict.status == STATUS_UNCONTROLLABLE:
        failing = next(
            (
                p
                for p in verdict.points
                if p.error is None
                and not p.condition_holds
                and p.witness is not None
                and p.witness.get("kind") == "separating"
            ),
            None,
        )
        if failing is None:
            return {"mode": "witness", "status": "UNTESTED", "entries": []}
        ok = _respected(
            system,
            failing.base,
            horizon,
            n_traj,
            seed,
            failing.witness["covector"],
            failing.quotient_frame,
        )
        projectors = [
            p.quotient_frame.T @ p.quotient_frame for p in verdict.points if len(p.quotient_frame)
        ]
        return {
            "mode": "witness",
            "status": "AGREE" if ok else "DISAGREE",
            "exact": all(np.allclose(P, projectors[0], atol=1e-8) for P in projectors[1:]),
            "entries": [
                {
                    "base": [float(v) for v in failing.base],
                    "covector": failing.witness["covector"],
                    "respected": ok,
                }
            ],
        }
    return {"mode": "none", "status": "UNTESTED", "entries": []}


def export_csv(cloud: ReachCloud, path: str | Path) -> None:
    """One row per stored point: traj_id, t, x1..xn."""
    n = cloud.points.shape[1] if len(cloud.points) else len(cloud.window)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["traj_id", "t"] + [f"x{i + 1}" for i in range(n)])
        rec, tids = cloud._stored()  # expanded once, for both columns
        for tid, t, p in zip(tids, cloud.record_times[rec], cloud.points):
            writer.writerow([int(tid), f"{t:.6f}"] + [repr(float(v)) for v in p])

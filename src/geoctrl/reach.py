"""Monte-Carlo reachability oracle.

Simulates ensembles of trajectories of dx/dt = f(x) + sum_i u^i g_i(x)
under random piecewise-constant controls, accumulates the visited
points, and measures window coverage on an occupancy grid. The oracle
is deliberately independent of the criterion pipeline: it shares no
geometry code beyond the system definition, so agreement between the
two is meaningful evidence.

Integration here is fixed-step RK4 over the whole batch at once. The
controls are piecewise constant with segment ends quantized to the step
grid; the realized inputs are therefore still admissible controls, just
drawn from a slightly coarsened family, which is all an occupancy
estimate needs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .criterion import (
    STATUS_CONTROLLABLE,
    STATUS_UNCONTROLLABLE,
    GlobalVerdict,
)
from .flows import inflate_window
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


@dataclass(frozen=True)
class ReachCloud:
    origin: np.ndarray
    horizon: float
    n_traj: int
    points: np.ndarray  # (M, n) stored points, all inside the window
    traj_ids: np.ndarray  # (M,)
    times: np.ndarray  # (M,)
    window: tuple[tuple[float, float], ...]

    def occupancy(self, cells_per_axis: int) -> np.ndarray:
        """Boolean occupancy grid of shape (cells,)*n over the window."""
        n = len(self.window)
        grid = np.zeros((cells_per_axis,) * n, dtype=bool)
        if len(self.points) == 0:
            return grid
        idx = _cell_indices(self.points, self.window, cells_per_axis)
        grid.ravel()[idx] = True
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


def _resample_controls(
    rng: np.random.Generator, m: int, n_drifts: int
) -> tuple[np.ndarray, float, int]:
    """One trajectory's fresh control vector, segment length, drift index."""
    u = rng.uniform(-CONTROL_AMPLITUDE, CONTROL_AMPLITUDE, size=m)
    dur = float(rng.uniform(*SEGMENT_DURATIONS))
    j = int(rng.integers(0, n_drifts)) if n_drifts > 1 else 0
    return u, dur, j


def _cloud_arrays(
    pts_chunks: list[np.ndarray],
    ids_chunks: list[np.ndarray],
    rec_times: list[float],
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points, trajectory ids and times of the recorded chunks, in record
    order: each chunk is copied once, and a record's time is repeated
    once per point it stored."""
    times = np.repeat(np.array(rec_times, dtype=float), [len(c) for c in ids_chunks])
    if not pts_chunks:
        return np.zeros((0, n)), np.zeros(0, dtype=int), times
    return np.concatenate(pts_chunks), np.concatenate(ids_chunks), times


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
    its own child generator, so growing n_traj or T only appends data.
    """
    T = float(T if T is not None else system.horizon)
    n_traj = int(n_traj if n_traj is not None else system.n_traj)
    if T <= 0 or n_traj < 1:
        raise ValueError("need T > 0 and n_traj >= 1")
    seed = system.seed if seed is None else seed
    n = system.dim
    m = len(system.controls)
    x0 = np.asarray(x0, dtype=float)

    drift_fns = [d.compiled() for d in system.drifts]
    control_fns = [g.compiled() for g in system.controls]
    n_drifts = len(drift_fns)
    inflated = np.array(inflate_window(system.window, ORACLE_INFLATION))
    win = np.array(system.window)

    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_traj)]
    X = np.tile(x0, (n_traj, 1))
    U = np.zeros((n_traj, m))
    seg_end = np.zeros(n_traj)
    drift_idx = np.zeros(n_traj, dtype=int)
    active = np.ones(n_traj, dtype=bool)

    def rhs(Y: np.ndarray, U: np.ndarray, didx: np.ndarray) -> np.ndarray:
        if n_drifts == 1:
            out = drift_fns[0](Y)
        else:
            out = np.empty_like(Y)
            for j in range(n_drifts):
                mask = didx == j
                if mask.any():
                    out[mask] = drift_fns[j](Y[mask])
        for i in range(m):
            out = out + U[:, i:i + 1] * control_fns[i](Y)
        return out

    pts_chunks: list[np.ndarray] = []
    ids_chunks: list[np.ndarray] = []
    rec_times: list[float] = []

    def record(t: float):
        inside = active & np.all((X >= win[:, 0]) & (X <= win[:, 1]), axis=1)
        if inside.any():
            pts_chunks.append(X[inside])  # a mask index copies
            ids_chunks.append(np.flatnonzero(inside))
            rec_times.append(t)

    n_steps = int(np.ceil(T / dt))
    stride_steps = max(1, int(round(sample_stride / dt)))
    record(0.0)
    t = 0.0
    # the kernels enter no errstate; a lane that turns nan is retired below
    with np.errstate(all="ignore"):
        for step_i in range(n_steps):
            h = min(dt, T - t)
            expired = active & (seg_end <= t + 1e-12)
            for i in np.flatnonzero(expired):
                U[i], dur, drift_idx[i] = _resample_controls(rngs[i], m, n_drifts)
                seg_end[i] = t + dur
            act = np.flatnonzero(active)
            if len(act) == 0:
                break
            Y = X[act]
            Ua = U[act]
            da = drift_idx[act]
            k1 = rhs(Y, Ua, da)
            k2 = rhs(Y + 0.5 * h * k1, Ua, da)
            k3 = rhs(Y + 0.5 * h * k2, Ua, da)
            k4 = rhs(Y + h * k3, Ua, da)
            X[act] = Y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
            escaped = ~np.all(
                (X >= inflated[:, 0]) & (X <= inflated[:, 1]) & np.isfinite(X), axis=1
            )
            active &= ~escaped
            if (step_i + 1) % stride_steps == 0 or step_i == n_steps - 1:
                record(t)

    points, ids, times = _cloud_arrays(pts_chunks, ids_chunks, rec_times, n)
    return ReachCloud(
        origin=x0,
        horizon=T,
        n_traj=n_traj,
        points=points,
        traj_ids=ids,
        times=times,
        window=tuple(system.window),
    )


def coverage(
    cloud: ReachCloud,
    window: Sequence[tuple[float, float]] | None = None,
    cells_per_axis: int = COVERAGE_CELLS,
) -> float:
    """Fraction of occupancy cells holding at least one cloud point."""
    window = tuple(window if window is not None else cloud.window)
    n = len(window)
    total = cells_per_axis ** n
    if len(cloud.points) == 0:
        return 0.0
    idx = _cell_indices(cloud.points, window, cells_per_axis)
    return len(np.unique(idx)) / total


def monotone_witness_check(
    cloud: ReachCloud,
    witness: Sequence[float],
    quotient_frame: np.ndarray,
    tol: float = 1e-6,
) -> bool:
    """Does the cloud respect the separating covector frozen at the origin?

    True iff <d, Q (p - x0)> >= -tol for every stored point p, with Q
    the quotient frame at the origin. Exact only when the control span
    is constant over the window; heuristic otherwise.
    """
    if len(cloud.points) == 0:
        return True
    d = np.asarray(witness, dtype=float)
    rel = (cloud.points - cloud.origin) @ quotient_frame.T
    return bool(np.min(rel @ d) >= -tol)


def _quotient_is_constant(system: SystemSpec, probes: int = 8) -> bool:
    """Control span constant over the window (projector comparison)."""
    rng = np.random.default_rng(0)
    lo = np.array([w[0] for w in system.window])
    hi = np.array([w[1] for w in system.window])
    base = None
    for _ in range(probes):
        p = rng.uniform(lo, hi)
        M = np.column_stack([g(p) for g in system.controls])
        q, _ = np.linalg.qr(M)
        proj = q @ q.T
        if base is None:
            base = proj
        elif not np.allclose(proj, base, atol=1e-8):
            return False
    return True


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
    covector. Anything else is untested.
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
                cloud = simulate_reach(
                    sys_, start, T=horizon, n_traj=n_traj, seed=seed + si
                )
                cov = coverage(cloud, cells_per_axis=cells_per_axis)
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
        cloud = simulate_reach(
            system, failing.base, T=horizon, n_traj=n_traj, seed=seed
        )
        ok = monotone_witness_check(
            cloud, failing.witness["covector"], failing.quotient_frame
        )
        return {
            "mode": "witness",
            "status": "AGREE" if ok else "DISAGREE",
            "exact": _quotient_is_constant(system),
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
        for tid, t, p in zip(cloud.traj_ids, cloud.times, cloud.points):
            writer.writerow([int(tid), f"{t:.6f}"] + [repr(float(v)) for v in p])

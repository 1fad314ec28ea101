"""Monte-Carlo reachability oracle and verdict cross-validation."""

import csv
import ctypes
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from geoctrl import flows, reach
from geoctrl.criterion import (
    STATUS_CONTROLLABLE,
    STATUS_INCONCLUSIVE,
    STATUS_UNCONTROLLABLE,
    GlobalVerdict,
    global_verdict,
)
from geoctrl.expr import Binary, Const, Var
from geoctrl.fields import VectorField
from geoctrl.reach import (
    ReachCloud,
    coverage,
    cross_validate,
    export_csv,
    monotone_witness_check,
    simulate_reach,
)
from geoctrl.system import SystemSpec, load_spec

N2 = ("x1", "x2")
N3 = ("x1", "x2", "x3")
PI = float(np.pi)
WIN2 = ((-2.0, 2.0), (-2.0, 2.0))
SYSTEMS = sorted((Path(__file__).resolve().parents[1] / "systems").glob("*.sys"))


def _sys2(drift_exprs, control_exprs=("0", "1"), **kw) -> SystemSpec:
    return SystemSpec(
        name="t",
        var_names=N2,
        drifts=(VectorField.parse(list(drift_exprs), N2),),
        controls=(VectorField.parse(list(control_exprs), N2),),
        window=WIN2,
        **kw,
    )


def _switched(n_drifts: int) -> SystemSpec:
    """A planar family switching among n_drifts drifts."""
    drifts = [["x2", "0"], ["0 - x2", "0"], ["0", "x1"], ["1", "0"], ["sin(x2)", "cos(x1)"]]
    return SystemSpec(
        name=f"switched{n_drifts}",
        var_names=N2,
        drifts=tuple(VectorField.parse(d, N2) for d in drifts[:n_drifts]),
        controls=(VectorField.parse(["0", "1"], N2),),
        window=WIN2,
    )


# a control that is not constant, alone: the oracle calls its kernel at
# every RK4 stage
WAVY = SystemSpec(
    name="wavy",
    var_names=N2,
    drifts=(VectorField.parse(["0", "x1"], N2),),
    controls=(VectorField.parse(["1", "0.1*sin(x1)"], N2),),
    window=WIN2,
)
# a non-constant control ahead of a constant one, both acting on x2 and
# x3, so that a hoisted term added out of channel order rounds otherwise
MIXED3D = SystemSpec(
    name="mixed3d",
    var_names=N3,
    drifts=(VectorField.parse(["x2", "0 - x1", "sin(x1)"], N3),),
    controls=(
        VectorField.parse(["cos(x3)", "sin(x3)", "0.5*x1"], N3),
        VectorField.parse(["0", "1", "0.3"], N3),
    ),
    window=((-2.0, 2.0), (-2.0, 2.0), (-PI, PI)),
)

# the bundled systems, two switched families the bundle lacks and two
# families with non-constant controls, which no bundled system has
FAMILIES = {p.stem: load_spec(p) for p in SYSTEMS} | {
    "switched3": _switched(3),
    "switched5": _switched(5),
    "wavy": WAVY,
    "mixed3d": MIXED3D,
}


def _center(system: SystemSpec) -> list[float]:
    return [(lo + hi) / 2.0 for lo, hi in system.window]


def offset_unicycle() -> SystemSpec:
    return SystemSpec(
        name="off",
        var_names=N3,
        drifts=(VectorField.parse(["2 + cos(x3)", "sin(x3)", "0"], N3),),
        controls=(VectorField.parse(["0", "0", "1"], N3),),
        window=((-2.0, 2.0), (-2.0, 2.0), (-PI, PI)),
        assume_not_dense=True,
    )


# --- simulate_reach --------------------------------------------------------


def test_domain_violation_retires_lanes_without_warning():
    # the drift pushes every lane into x1 < 0, where sqrt(x1) is nan
    sys_ = _sys2(["-1", "0"], ["0", "sqrt(x1)"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cloud = simulate_reach(sys_, [0.5, 0.0], T=2.0, n_traj=20, seed=0)
    assert len(cloud.points) > 0
    assert np.all(np.isfinite(cloud.points))
    assert np.all(cloud.points[:, 0] >= 0.0)


def test_driftless_cloud_stays_on_leaf():
    sys_ = _sys2(["0", "0"])
    cloud = simulate_reach(sys_, [0.0, 0.0], T=5.0, n_traj=100, seed=0)
    assert len(cloud.points) > 0
    assert np.all(np.abs(cloud.points[:, 0]) < 1e-6)


def test_forward_drift_never_retreats():
    sys_ = _sys2(["1 + x2^2", "0"])
    cloud = simulate_reach(sys_, [0.0, 0.0], T=10.0, n_traj=200, seed=1)
    assert cloud.points[:, 0].min() >= -1e-9


def test_offset_unicycle_outruns_time():
    cloud = simulate_reach(offset_unicycle(), [0.0, 0.0, 0.0], T=4.0, n_traj=100, seed=2)
    assert np.all(cloud.points[:, 0] - cloud.times >= -1e-6)


def test_all_stored_points_inside_window():
    sys_ = _sys2(["x2", "0"])
    cloud = simulate_reach(sys_, [1.9, 1.9], T=10.0, n_traj=200, seed=3)
    lo = np.array([w[0] for w in cloud.window])
    hi = np.array([w[1] for w in cloud.window])
    assert np.all(cloud.points >= lo) and np.all(cloud.points <= hi)


def test_simulation_is_deterministic():
    sys_ = _sys2(["x2", "0"])
    a = simulate_reach(sys_, [0.0, 0.0], T=3.0, n_traj=50, seed=9)
    b = simulate_reach(sys_, [0.0, 0.0], T=3.0, n_traj=50, seed=9)
    c = simulate_reach(sys_, [0.0, 0.0], T=3.0, n_traj=50, seed=10)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.times, b.times)
    assert not np.array_equal(a.points, c.points)


def _stacked_cloud_arrays(pts_chunks, ids_chunks, rec_times, n):
    """Cloud assembly by stacking the chunks and one time per point."""
    if not pts_chunks:
        return np.zeros((0, n)), np.zeros(0, dtype=int), np.zeros(0)
    t_chunks = [t for t, ids in zip(rec_times, ids_chunks) for _ in ids]
    return np.vstack(pts_chunks), np.concatenate(ids_chunks), np.array(t_chunks)


@pytest.mark.parametrize("path", SYSTEMS + ["empty"], ids=lambda p: getattr(p, "stem", p))
def test_cloud_assembly_matches_stacked_chunks(path, monkeypatch):
    if path == "empty":  # starts outside the roaming window: nothing stored
        system, x0 = _sys2(["x2", "0"]), [9.0, 0.0]
    else:
        system = load_spec(path)
        x0 = _center(system)
    records = []
    run = reach._run

    def spy(system, x0, T, n_traj, seed, fold, *args):
        def keep(t, pts, ids):
            records.append((t, pts.copy(), ids.copy()))
            fold(t, pts, ids)

        run(system, x0, T, n_traj, seed, keep, *args)

    monkeypatch.setattr(reach, "_run", spy)
    cloud = simulate_reach(system, x0, T=3.0, n_traj=60)
    want = _stacked_cloud_arrays(
        [p for _, p, _ in records], [i for _, _, i in records], [t for t, _, _ in records], system.dim
    )
    for a, b in zip((cloud.points, cloud.traj_ids, cloud.times), want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert cloud.traj_ids.dtype == np.int64 and cloud.times.dtype == np.float64
    assert cloud.record_bits.shape == (len(records), 8)  # ceil(60 / 8) bytes a record
    assert (len(cloud.points) == 0) == (path == "empty")


def test_cloud_holds_a_bitmap_per_record_not_ids_and_times_per_point():
    system = load_spec(SYSTEMS[[p.stem for p in SYSTEMS].index("unicycle")])
    cloud = simulate_reach(system, _center(system))
    R = len(cloud.record_times)
    held = sum(
        v.nbytes for k, v in vars(cloud).items() if isinstance(v, np.ndarray) and k != "origin"
    )
    assert cloud.n_traj == 6000 and len(cloud.points) > 100_000
    assert held <= cloud.points.nbytes + R * (-(-cloud.n_traj // 8) + 8)


def test_clouds_compare_by_value():
    sys_ = _sys2(["x2", "0"])
    a = simulate_reach(sys_, [0.0, 0.0], T=1.0, n_traj=10, seed=1)
    b = simulate_reach(sys_, [0.0, 0.0], T=1.0, n_traj=10, seed=1)
    assert a == b and not a != b
    assert a != simulate_reach(sys_, [0.0, 0.0], T=1.0, n_traj=10, seed=2)
    assert a != simulate_reach(sys_, [0.0, 0.0], T=1.0, n_traj=11, seed=1)
    assert a != "cloud" and a.__eq__(a.points) is NotImplemented
    with pytest.raises(TypeError):
        hash(a)


def test_simulation_runs_where_malloc_trim_is_missing(monkeypatch):
    sys_ = _sys2(["x2", "0"])
    want = simulate_reach(sys_, [0.0, 0.0], T=1.0, n_traj=10, seed=1)

    def no_libc(*args, **kwargs):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert simulate_reach(sys_, [0.0, 0.0], T=1.0, n_traj=10, seed=1) == want


def test_switched_drift_engages_both_drifts():
    f = VectorField.parse(["1", "0"], N2)
    sys_ = SystemSpec(
        name="sw",
        var_names=N2,
        drifts=(f, f.negate()),
        controls=(VectorField.parse(["0", "1"], N2),),
        window=WIN2,
    )
    cloud = simulate_reach(sys_, [0.0, 0.0], T=6.0, n_traj=100, seed=4)
    assert cloud.points[:, 0].min() < -0.05
    assert cloud.points[:, 0].max() > 0.05


def test_bad_budgets_raise():
    sys_ = _sys2(["x2", "0"])
    with pytest.raises(ValueError):
        simulate_reach(sys_, [0.0, 0.0], T=0.0)
    with pytest.raises(ValueError):
        simulate_reach(sys_, [0.0, 0.0], T=1.0, n_traj=0)


# --- the former oracle, kept as the reference -------------------------------


def _resample_controls(rng: np.random.Generator, m: int, n_drifts: int):
    """One trajectory's fresh control vector, segment length, drift index."""
    u = rng.uniform(-reach.CONTROL_AMPLITUDE, reach.CONTROL_AMPLITUDE, size=m)
    dur = float(rng.uniform(*reach.SEGMENT_DURATIONS))
    j = int(rng.integers(0, n_drifts)) if n_drifts > 1 else 0
    return u, dur, j


def _reference_reach(system, x0, T, n_traj, seed, sample_stride=0.1, dt=reach.DEFAULT_DT):
    """Points, trajectory ids and times of the per-segment oracle: one
    generator call per trajectory per segment, the live lanes gathered
    from and scattered back to full-size arrays at every step."""
    n, m = system.dim, len(system.controls)
    drift_fns = [d.compiled() for d in system.drifts]
    control_fns = [g.compiled() for g in system.controls]
    n_drifts = len(drift_fns)
    inflated = np.array(reach.inflate_window(system.window, reach.ORACLE_INFLATION))
    win = np.array(system.window)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_traj)]
    X = np.tile(np.asarray(x0, dtype=float), (n_traj, 1))
    U = np.zeros((n_traj, m))
    seg_end = np.zeros(n_traj)
    drift_idx = np.zeros(n_traj, dtype=int)
    active = np.ones(n_traj, dtype=bool)

    def rhs(Y, U, didx):
        if n_drifts == 1:
            out = drift_fns[0](Y)
        else:
            out = np.empty_like(Y)
            for j in range(n_drifts):
                mask = didx == j
                if mask.any():
                    out[mask] = drift_fns[j](Y[mask])
        for i in range(m):
            out = out + U[:, i : i + 1] * control_fns[i](Y)
        return out

    pts, ids, times = [], [], []

    def record(t):
        inside = active & np.all((X >= win[:, 0]) & (X <= win[:, 1]), axis=1)
        pts.append(X[inside])
        ids.append(np.flatnonzero(inside))
        times.append(np.full(int(inside.sum()), t))

    n_steps = int(np.ceil(T / dt))
    stride_steps = max(1, int(round(sample_stride / dt)))
    record(0.0)
    t = 0.0
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
            Y, Ua, da = X[act], U[act], drift_idx[act]
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
    return np.concatenate(pts).reshape(-1, n), np.concatenate(ids), np.concatenate(times)


def _reference_cloud(system, x0, T, n_traj, seed) -> ReachCloud:
    pts, ids, times = _reference_reach(system, x0, T, n_traj, seed)
    return _cloud_from(pts, ids, times, n_traj, x0, system.window)


# the stepper's edge cases, each held to the former oracle below
ORACLE_CASES = {
    # a non-constant control, behind a drift that turns the lanes
    "sin_control": _sys2(["x2", "0 - x1"], ["1", "0.1*sin(x1)"]),
    # lanes that reach x1 < -1 turn nan there, each at its own step
    "turns_nan": _sys2(["0", "x1"], ["1", "sqrt(x1 + 1)"]),
    # every lane leaves the roaming window at the same step, x1 = 8 t
    "retire_at_once": _sys2(["8", "0"]),
}


def _spy_steps(monkeypatch) -> list[tuple[int, int, int]]:
    """(rows, nan rows, rows inside) of every roaming-window test of `_run`."""
    seen = []
    inside = reach._inside

    def spy(X, box):
        ok = inside(X, box)
        if box[0, 1] == 3.0:  # the roaming window of WIN2
            seen.append((len(X), int(np.isnan(X).any(axis=1).sum()), int(ok.sum())))
        return ok

    monkeypatch.setattr(reach, "_inside", spy)
    return seen


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(FAMILIES) + sorted(ORACLE_CASES))
def test_cloud_matches_the_former_oracle(name, seed, monkeypatch):
    system = (FAMILIES | ORACLE_CASES)[name]
    x0 = _center(system)
    steps = _spy_steps(monkeypatch)
    cloud = simulate_reach(system, x0, T=3.0, n_traj=40, seed=seed)
    want = _reference_reach(system, x0, 3.0, 40, seed)
    assert len(want[0]) > 0
    for a, b in zip((cloud.points, cloud.traj_ids, cloud.times), want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    if name == "turns_nan":
        # some step turns lanes nan while others step on
        assert any(0 < nan < rows for rows, nan, _ in steps)
    elif name == "retire_at_once":
        # 40 lanes step on, all inside, until one step retires them all
        assert steps[-1] == (40, 0, 0)
        assert all(kept == rows == 40 for rows, _, kept in steps[:-1])
        assert cloud.record_times.tolist() == pytest.approx([0.0, 0.1, 0.2])


def _count_kernel_calls(monkeypatch) -> dict:
    """Calls of every field's compiled kernel from now on, by field."""
    calls = {}
    compiled = VectorField.compiled

    def counted(field):
        fn = compiled(field)
        calls.setdefault(field, 0)

        def kernel(X):
            calls[field] += 1
            return fn(X)

        return kernel

    monkeypatch.setattr(VectorField, "compiled", counted)
    return calls


@pytest.mark.parametrize(
    "name, per_stage", [("planar_shear", False), ("wavy", True), ("mixed3d", True)]
)
def test_oracle_calls_a_constant_control_kernel_once_per_run(name, per_stage, monkeypatch):
    system = FAMILIES[name]
    (drift,) = system.drifts
    assert any(not g.is_constant for g in system.controls) == per_stage
    # mixed3d's fields read coordinates that no constant holds, so its
    # second stage is not its third and every step takes four evaluations
    evals = 4 if name == "mixed3d" else 3
    calls = _count_kernel_calls(monkeypatch)
    T = 1.0
    cloud = simulate_reach(system, _center(system), T=T, n_traj=50, seed=0)
    steps = int(np.ceil(T / reach.DEFAULT_DT))
    assert cloud.record_times[-1] == pytest.approx(T)  # every step was taken
    assert calls[drift] == evals * steps
    for g in system.controls:
        assert calls[g] == (1 if g.is_constant else evals * steps)


@pytest.mark.parametrize(
    "name, holds",
    [(p.stem, True) for p in SYSTEMS]
    + [(f"{p.stem}-reversed", True) for p in SYSTEMS]
    + [("wavy", True), ("switched3", False), ("mixed3d", False), ("crossed", False)],
)
def test_stage_two_is_stage_three_where_the_fields_read_constant_coordinates(name, holds):
    name, _, reversed_ = name.partition("-")
    system = (FAMILIES | {"crossed": _sys2(["x2", "x1"], ["0", "1"])})[name]
    if reversed_:
        system = replace(system, drifts=tuple(d.negate() for d in system.drifts))
    assert reach._k3_is_k2(system) == holds


def test_a_read_counts_where_its_term_vanishes():
    # 0*x1 built as a tree reads x1, so x1's drift is no longer constant
    # to the test, and x1 is not a coordinate every field holds constant
    zero_x1 = Binary("mul", Const(0.0), Var(0))
    system = _sys2(["x2", "0"])
    assert reach._k3_is_k2(system)
    drift = VectorField((Var(1), zero_x1), N2)
    assert not reach._k3_is_k2(replace(system, drifts=(drift,)))


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_the_reused_stage_keeps_every_cloud_byte(name, seed, monkeypatch):
    system = FAMILIES[name]
    x0 = _center(system)
    cloud = simulate_reach(system, x0, T=3.0, n_traj=40, seed=seed)
    monkeypatch.setattr(reach, "_k3_is_k2", lambda system: False)
    assert simulate_reach(system, x0, T=3.0, n_traj=40, seed=seed) == cloud
    assert len(cloud.points) > 0


def test_a_witness_run_stops_at_its_first_crossing(monkeypatch):
    system = FAMILIES["planar_shear"]
    x0 = _center(system)
    # x1 moves both ways under the shear, so the cloud crosses this covector
    Q, d = np.array([[1.0, 0.0]]), (1.0,)
    want = monotone_witness_check(simulate_reach(system, x0, seed=4), d, Q)
    assert not want
    calls = _count_kernel_calls(monkeypatch)
    assert reach._respected(system, x0, None, None, 4, d, Q) == want
    stopped = calls[system.drift]
    run = reach._run

    def to_the_horizon(system, x0, T, n_traj, seed, fold, *args):
        run(system, x0, T, n_traj, seed, lambda *a: fold(*a) and None, *args)

    monkeypatch.setattr(reach, "_run", to_the_horizon)
    assert reach._respected(system, x0, None, None, 4, d, Q) == want
    assert 0 < 20 * stopped < calls[system.drift] - stopped


def test_the_oracle_builds_no_generator_object(monkeypatch):
    built = []

    class Counted(np.random.PCG64):
        def __init__(self, seed=None):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(np.random, "PCG64", Counted)
    refills = []
    refill = reach._Draws._refill

    def counted(self):
        refills.append(1)
        refill(self)

    monkeypatch.setattr(reach._Draws, "_refill", counted)
    system = FAMILIES["unicycle"]
    cloud = simulate_reach(system, _center(system), seed=1)
    assert len(cloud.points) > 0
    # lanes outlive their first block, and refill as a cohort a few times
    assert 0 < len(refills) <= 20
    stand_in = GlobalVerdict(status=STATUS_CONTROLLABLE, points=(), assumptions={}, regularity=None)
    report = cross_validate(stand_in, FAMILIES["switched_shear"], seed=1)
    assert report["mode"] == "coverage" and len(report["entries"]) == 10
    assert not built


@pytest.mark.parametrize("n_drifts", [1, 2, 3, 5])
def test_block_draws_match_the_generator_calls(n_drifts):
    m, n_traj = 2, 7
    for seed in (0, 3):
        draws = reach._Draws(seed, n_traj, m, n_drifts)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_traj)]
        pick = np.random.default_rng(seed + 100)
        calls = np.zeros(n_traj, dtype=int)
        for _ in range(120):  # lanes draw at different rates, so their blocks desynchronize
            lanes = np.flatnonzero(pick.random(n_traj) < 0.6)
            calls[lanes] += 1
            u, dur, idx = draws.segments(lanes)
            for k, i in enumerate(lanes):
                u_ref, dur_ref, j_ref = _resample_controls(rngs[i], m, n_drifts)
                assert u[k].tobytes() == u_ref.tobytes()
                assert dur[k] == dur_ref and idx[k] == j_ref
        # each call reads m + 1 raw values or more: every lane read past
        # its first block and past the block after it
        assert (calls * (m + 1) > 2 * draws.width).all()


@pytest.mark.parametrize("seed", [0, 1, 7, 2**33 + 5, 2**70 + 3])
def test_lane_streams_are_the_spawned_generators(seed):
    n, k = 300, 100  # k covers every piece below
    children = np.random.SeedSequence(seed).spawn(n)
    want = np.array([c.generate_state(4, np.uint64) for c in children])
    got = flows._spawned_states(seed, n)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    want = np.array([np.random.PCG64(c).random_raw(k) for c in children])
    assert flows._PCG64Lanes(got).raws(None, k).tobytes() == want.tobytes()
    # rows read in uneven pieces, each row at its own pace
    streams = flows._PCG64Lanes(got)
    pick = np.random.default_rng(seed % 2**32)
    read = [[] for _ in range(n)]
    for piece in (7, 13, 30, 7, 13, 30):
        rows = np.flatnonzero(pick.random(n) < 0.5)
        for i, raw in zip(rows.tolist(), streams.raws(rows, piece)):
            read[i].append(raw)
    for i in range(n):
        row = np.concatenate(read[i]) if read[i] else np.zeros(0, dtype=np.uint64)
        assert row.tobytes() == want[i, : len(row)].tobytes()


@pytest.mark.parametrize("n_drifts", [1, 3, 5])
def test_cohort_refills_keep_every_lane_stream(n_drifts):
    m, n = 3, 40
    for seed in (0, 7):
        draws = reach._Draws(seed, n, m, n_drifts)
        assert (draws.width // 2) >= 30
        read = [[] for _ in range(n)]
        take, refill = draws._take, draws._refill
        refills = []

        def recorded(lanes, k):
            raw = take(lanes, k)
            for i, r in zip(lanes.tolist(), raw):
                read[i].append(r)
            return raw

        def counted():
            refills.append(int(np.count_nonzero(draws.live)))
            refill()
            # the cohort: every live lane, drawing now or not, has half a block or more
            assert (draws.end - draws.cur)[draws.live].min() >= draws.width // 2

        draws._take, draws._refill = recorded, counted
        pick = np.random.default_rng(seed + 100)
        for r in range(90):
            lanes = np.flatnonzero(draws.live & (pick.random(n) < 0.6))
            if r % 2:  # Generator calls: doubles, then Lemire words
                draws.segments(lanes)
            else:
                draws._take(lanes, (7, 13, 30)[r // 2 % 3])
            if r == 45:  # retire a lane in the middle of a block
                retired = int(np.flatnonzero(draws.live & (draws.cur > 0))[0])
                assert draws.cur[retired] < draws.end[retired]
                draws.live[retired] = False
                frozen = (int(draws.cur[retired]), int(draws.end[retired]))
                seen = len(read[retired])
        assert len(refills) >= 3 and refills[-1] == n - 1
        assert (int(draws.cur[retired]), int(draws.end[retired])) == frozen
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
            row = np.concatenate(read[i])
            assert row.tobytes() == np.random.PCG64(child).random_raw(len(row)).tobytes()
        assert len(read[retired]) == seen


def test_a_negative_oracle_seed_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        reach._Draws(-1, 3, 2, 1)


@pytest.mark.parametrize("n_drifts, rejects", [(2, False), (3, True), (5, True)])
def test_index_draw_rejects_a_low_word_below_the_lemire_floor(n_drifts, rejects):
    # a 32-bit word of 0 maps to index 0 with leftover 0, which Lemire
    # rejects iff 2**32 mod n > 0; the next word (all ones) gives n - 1
    draws = reach._Draws(0, 1, 0, n_drifts)
    lane = np.array([0])
    draws.segments(lane)  # fills the block
    c = int(draws.cur[0])
    draws.has_half[0] = False
    draws.raw[0, c : c + 2] = [0, 0xFFFFFFFF << 32]  # duration, then words 0 and 2**32 - 1
    _, _, idx = draws.segments(lane)
    assert int(idx[0]) == (n_drifts - 1 if rejects else 0)
    assert bool(draws.has_half[0]) == (not rejects)


def test_cross_validate_coverage_matches_the_former_oracle():
    for name in ("planar_shear", "saddle3d", "switched3", "wavy", "mixed3d"):
        system = replace(FAMILIES[name], n_traj=30, horizon=3.0, seed=5)
        stand_in = GlobalVerdict(
            status=STATUS_CONTROLLABLE, points=(), assumptions={}, regularity=None
        )
        report = cross_validate(stand_in, system)
        reversed_system = replace(system, drifts=tuple(d.negate() for d in system.drifts))
        want = []
        for si, entry in enumerate(report["entries"][::2]):
            for sys_ in (system, reversed_system):
                cloud = _reference_cloud(sys_, entry["start"], 3.0, 30, 5 + si)
                want.append(coverage(cloud))
        assert [e["coverage"] for e in report["entries"]] == want
        assert 0.0 < min(want)


def test_cross_validate_witness_matches_the_former_oracle():
    forward = _sys2(["1 + x2^2", "0"], assume_not_dense=True, n_traj=40, horizon=4.0)
    verdict = global_verdict(forward, grid_per_axis=3, leaf_budget=12)
    assert verdict.status == STATUS_UNCONTROLLABLE
    # the grid's center, where the shear below runs both ways along x1
    failing = next(p for p in verdict.points if not np.any(p.base))
    assert failing.witness["kind"] == "separating"
    verdict = replace(verdict, points=(failing,))
    flags = []
    for system in (forward, replace(forward, drifts=(VectorField.parse(["x2", "0"], N2),))):
        report = cross_validate(verdict, system)
        (entry,) = report["entries"]
        cloud = _reference_cloud(system, failing.base, 4.0, 40, system.seed)
        flags.append(entry["respected"])
        assert entry["respected"] == monotone_witness_check(
            cloud, failing.witness["covector"], failing.quotient_frame
        )
    assert flags == [True, False]


# --- coverage and occupancy ------------------------------------------------


def _cloud_from(points, ids, times, n_traj, origin, window) -> ReachCloud:
    """The ReachCloud that stores these points, trajectory ids and times."""
    record_times, rec = np.unique(np.asarray(times, dtype=float), return_inverse=True)
    stored = np.zeros((len(record_times), n_traj), dtype=bool)
    stored[rec, ids] = True
    return ReachCloud(
        origin=np.asarray(origin, dtype=float),
        horizon=1.0,
        n_traj=n_traj,
        points=points,
        record_times=record_times,
        record_bits=np.packbits(stored, axis=1),
        window=tuple(window),
    )


def _synthetic_cloud(points: np.ndarray, window=WIN2) -> ReachCloud:
    m = len(points)
    origin = np.zeros(points.shape[1] if m else len(window))
    return _cloud_from(points, np.arange(m), np.zeros(m), max(m, 1), origin, window)


def test_coverage_empty_cloud_is_zero():
    cloud = _synthetic_cloud(np.zeros((0, 2)))
    assert coverage(cloud) == 0.0


def test_coverage_all_cell_centers_is_one():
    cells = 8
    axes = [np.array([lo + (i + 0.5) * (hi - lo) / cells for i in range(cells)]) for lo, hi in WIN2]
    centers = np.array([[a, b] for a in axes[0] for b in axes[1]])
    cloud = _synthetic_cloud(centers)
    assert coverage(cloud, cells_per_axis=cells) == 1.0


def test_coverage_single_point():
    cloud = _synthetic_cloud(np.array([[0.1, 0.1]]))
    assert np.isclose(coverage(cloud, cells_per_axis=8), 1 / 64)


def test_coverage_equals_occupancy_mean():
    sys_ = _sys2(["x2", "0"])
    cloud = simulate_reach(sys_, [0.0, 0.0], T=5.0, n_traj=100, seed=6)
    occ = cloud.occupancy(8)
    assert np.isclose(coverage(cloud, cells_per_axis=8), occ.mean())


def test_coverage_monotone_in_budget_and_horizon():
    sys_ = _sys2(["x2", "0"])
    small = simulate_reach(sys_, [0.0, 0.0], T=5.0, n_traj=100, seed=7)
    more_traj = simulate_reach(sys_, [0.0, 0.0], T=5.0, n_traj=300, seed=7)
    longer = simulate_reach(sys_, [0.0, 0.0], T=10.0, n_traj=100, seed=7)
    assert coverage(more_traj) >= coverage(small)
    assert coverage(longer) >= coverage(small)


def test_cloud_cells_nested_under_longer_horizon():
    sys_ = _sys2(["x2", "0"])
    short = simulate_reach(sys_, [0.0, 0.0], T=4.0, n_traj=80, seed=8)
    long_ = simulate_reach(sys_, [0.0, 0.0], T=8.0, n_traj=80, seed=8)
    occ_s = short.occupancy(8)
    occ_l = long_.occupancy(8)
    assert bool(np.all(occ_l[occ_s]))


def test_cloud_points_nested_under_more_trajectories():
    sys_ = _sys2(["x2", "0"])
    few = simulate_reach(sys_, [0.0, 0.0], T=3.0, n_traj=40, seed=11)
    many = simulate_reach(sys_, [0.0, 0.0], T=3.0, n_traj=80, seed=11)
    keep = many.traj_ids < 40
    assert np.array_equal(many.points[keep], few.points)


# --- monotone_witness_check ------------------------------------------------


def test_witness_respected_by_forward_system():
    sys_ = _sys2(["1 + x2^2", "0"])
    cloud = simulate_reach(sys_, [0.0, 0.0], T=10.0, n_traj=300, seed=0)
    Q = np.array([[1.0, 0.0]])
    assert monotone_witness_check(cloud, np.array([1.0]), Q)


def test_fabricated_witness_is_refuted():
    sys_ = _sys2(["x2", "0"])
    cloud = simulate_reach(sys_, [0.0, 0.0], T=10.0, n_traj=300, seed=0)
    Q = np.array([[1.0, 0.0]])
    assert not monotone_witness_check(cloud, np.array([1.0]), Q)


def test_empty_cloud_vacuously_respects_witness():
    cloud = _synthetic_cloud(np.zeros((0, 2)))
    assert monotone_witness_check(cloud, np.array([1.0]), np.array([[1.0, 0.0]]))


# --- cross_validate --------------------------------------------------------


def test_cross_validate_agrees_on_controllable_shear():
    sys_ = _sys2(["x2", "0"], assume_not_dense=True, n_traj=400, horizon=10.0)
    verdict = global_verdict(sys_, grid_per_axis=3, leaf_budget=12)
    assert verdict.status == STATUS_CONTROLLABLE
    report = cross_validate(verdict, sys_)
    assert report["mode"] == "coverage"
    assert report["status"] == "AGREE"
    assert len(report["entries"]) == 10  # 5 starts x 2 time directions
    for entry in report["entries"]:
        assert entry["coverage"] >= report["threshold"]


def test_cross_validate_rejects_false_controllable_claim():
    sys_ = _sys2(["1 + x2^2", "0"], assume_not_dense=True, n_traj=300, horizon=10.0)
    fake = GlobalVerdict(
        status=STATUS_CONTROLLABLE,
        points=(),
        assumptions={},
        regularity=None,
    )
    report = cross_validate(fake, sys_)
    assert report["status"] == "DISAGREE"


def test_cross_validate_witness_mode_on_uncontrollable():
    sys_ = _sys2(["1 + x2^2", "0"], assume_not_dense=True, n_traj=300, horizon=10.0)
    verdict = global_verdict(sys_, grid_per_axis=3, leaf_budget=12)
    report = cross_validate(verdict, sys_)
    assert report["mode"] == "witness"
    assert report["status"] == "AGREE"
    assert report["exact"] is True  # one quotient at every point
    entry = report["entries"][0]
    assert "covector" in entry and entry["respected"]


def test_cross_validate_witness_is_not_exact_where_the_quotient_turns():
    # the control (1, 0.1 sin x1) turns with x1, and so does its normal,
    # the quotient, from one grid column to the next
    sys_ = _sys2(["0", "1"], ["1", "0.1*sin(x1)"], assume_not_dense=True, n_traj=300)
    verdict = global_verdict(sys_, grid_per_axis=3)
    assert verdict.status == STATUS_UNCONTROLLABLE
    report = cross_validate(verdict, sys_)
    assert report["mode"] == "witness"
    assert report["status"] == "AGREE"
    assert report["exact"] is False


def test_cross_validate_untested_for_inconclusive():
    verdict = GlobalVerdict(
        status=STATUS_INCONCLUSIVE, points=(), assumptions={}, regularity=None
    )
    sys_ = _sys2(["x2", "0"])
    report = cross_validate(verdict, sys_)
    assert report["status"] == "UNTESTED"


# --- CSV export ------------------------------------------------------------


def test_export_csv_layout(tmp_path):
    sys_ = _sys2(["x2", "0"])
    cloud = simulate_reach(sys_, [0.0, 0.0], T=2.0, n_traj=10, seed=1)
    path = tmp_path / "cloud.csv"
    export_csv(cloud, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["traj_id", "t", "x1", "x2"]
    assert len(rows) == 1 + len(cloud.points)
    for row, tid, t, p in zip(rows[1:], cloud.traj_ids, cloud.times, cloud.points):
        assert int(row[0]) == tid
        assert abs(float(row[1]) - t) < 1e-6
        assert float(row[2]) == p[0] and float(row[3]) == p[1]


def test_export_csv_driftless_constant_column(tmp_path):
    sys_ = _sys2(["0", "0"])
    cloud = simulate_reach(sys_, [0.0, 0.0], T=3.0, n_traj=20, seed=2)
    path = tmp_path / "leaf.csv"
    export_csv(cloud, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    first = {float(r[2]) for r in rows[1:]}
    assert max(abs(v) for v in first) < 1e-6

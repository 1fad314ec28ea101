"""Monte-Carlo reachability oracle and verdict cross-validation."""

import csv
import warnings
from pathlib import Path

import numpy as np
import pytest

from geoctrl import reach
from geoctrl.criterion import (
    STATUS_CONTROLLABLE,
    STATUS_INCONCLUSIVE,
    GlobalVerdict,
    global_verdict,
)
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
        x0 = [(lo + hi) / 2.0 for lo, hi in system.window]
    calls = []
    cloud_arrays = reach._cloud_arrays

    def assemble(*args):
        calls.append((cloud_arrays(*args), _stacked_cloud_arrays(*args)))
        return calls[-1][0]

    monkeypatch.setattr(reach, "_cloud_arrays", assemble)
    cloud = simulate_reach(system, x0, T=3.0, n_traj=60)
    (got, want), = calls
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert all(a is b for a, b in zip((cloud.points, cloud.traj_ids, cloud.times), got))
    assert cloud.traj_ids.dtype == np.int64 and cloud.times.dtype == np.float64
    assert (len(cloud.points) == 0) == (path == "empty")


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


# --- coverage and occupancy ------------------------------------------------


def _synthetic_cloud(points: np.ndarray, window=WIN2) -> ReachCloud:
    m = len(points)
    return ReachCloud(
        origin=np.zeros(points.shape[1] if m else len(window)),
        horizon=1.0,
        n_traj=max(m, 1),
        points=points,
        traj_ids=np.arange(m),
        times=np.zeros(m),
        window=tuple(window),
    )


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
    assert report["exact"] is True  # constant control span
    entry = report["entries"][0]
    assert "covector" in entry and entry["respected"]


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

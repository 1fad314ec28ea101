"""Whole-package acceptance checks.

Each test pins one end-to-end contract: exact tolerances, the systems
they apply to, and a wall-clock budget. Bundled files under systems/
are loaded where a contract names the same system, so these tests
exercise what users actually run.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from det_route import assert_routes_agree, det_route
from flow_reference import flow, pushforward_along
from geoctrl import flows, metrics
from geoctrl.cli import main as cli_main
from geoctrl.criterion import (
    STATUS_CONTROLLABLE,
    STATUS_UNCONTROLLABLE,
    global_verdict,
    interior_convex_test,
    switched_condition,
    verify_supporting_distribution,
)
from geoctrl.expr import differentiate, evaluate, parse_expression
from geoctrl.fields import VectorField, lie_bracket
from geoctrl.metrics import estimate_cost, loop_length, sr_distance
from geoctrl.reach import cross_validate, monotone_witness_check, simulate_reach
from geoctrl.report import run_pipeline
from geoctrl.system import load_spec, loads_spec

SYS_DIR = Path(__file__).resolve().parents[1] / "systems"
N2 = ("x1", "x2")
N3 = ("x1", "x2", "x3")

PURE_DRIFT = """
name = pure_drift
vars = x1, x2
drift = 1, 0
control = 0, 1
window = -2:2, -2:2
"""

SHEAR = """
name = shear
vars = x1, x2
drift = x2, 0
control = 0, 1
window = -2:2, -2:2
assume_not_dense = true
"""

DRIFTLESS = """
name = driftless
vars = x1, x2
drift = 0, 0
control = 1, 0
control = 0, 1
window = -2:2, -2:2
"""


@contextlib.contextmanager
def wall_clock(seconds: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds:.0f}s"


def _nonincreasing(values) -> None:
    # None means no feasible word found yet; treat as +inf
    xs = [math.inf if v is None else v for v in values]
    for a, b in zip(xs, xs[1:]):
        assert b <= a + 1e-12, f"estimate rose with budget: {values}"


# --- symbolic layer --------------------------------------------------------


def test_symbolic_layer_brackets_and_derivatives():
    with wall_clock(10.0):
        X = VectorField.parse(("sin(x2)", "x1"), N2)
        Y = VectorField.parse(("x2", "cos(x1)"), N2)
        Z = VectorField.parse(("x1 * x2", "x2"), N2)
        rng = np.random.default_rng(11)

        # antisymmetry, checked pointwise
        XY = lie_bracket(X, Y)
        YX = lie_bracket(Y, X)
        for _ in range(20):
            p = rng.uniform(-1, 1, size=2)
            assert np.allclose(XY(p), -YX(p), atol=1e-12)

        # Jacobi identity at 100 random points
        S1 = lie_bracket(X, lie_bracket(Y, Z))
        S2 = lie_bracket(Y, lie_bracket(Z, X))
        S3 = lie_bracket(Z, lie_bracket(X, Y))
        for _ in range(100):
            p = rng.uniform(-1, 1, size=2)
            total = S1(p) + S2(p) + S3(p)
            assert np.linalg.norm(total) <= 1e-9

        # symbolic derivative vs central differences
        h = 1e-5
        for src in ("sin(x1) * x2", "x1^3 + cos(x2)", "x1 * x2 + x2^2"):
            e = parse_expression(src, N2)
            for i in range(2):
                de = differentiate(e, i)
                for _ in range(10):
                    p = rng.uniform(-1, 1, size=2)
                    step = np.zeros(2)
                    step[i] = h
                    fd = (evaluate(e, p + step) - evaluate(e, p - step)) / (2 * h)
                    got = evaluate(de, p)
                    assert abs(got - fd) <= 1e-6 * max(1.0, abs(got))

        # commutator flow defect shrinks with t
        B = lie_bracket(X, Y)
        x0 = np.array([0.3, -0.4])
        errs = []
        for t in (1e-2, 1e-3, 1e-4):
            s = np.sqrt(t)
            y = flow(X, x0, s)
            y = flow(Y, y, s)
            y = flow(X, y, -s)
            y = flow(Y, y, -s)
            errs.append(np.linalg.norm((y - x0) / t - B(x0)))
        assert errs[0] > errs[1] > errs[2]


# --- transport layer -------------------------------------------------------


def test_transport_layer_pushforward():
    with wall_clock(10.0):
        h = 1e-5
        rng = np.random.default_rng(31)
        pool = [
            VectorField.parse(("0 - x2", "x1"), N2),
            VectorField.parse(("cos(x3)", "sin(x3)", "0"), N3),
            VectorField.parse(("sin(x2)", "x1"), N2),
        ]
        for case in range(20):
            if case < len(pool):
                V = pool[case]
            else:
                n = int(rng.integers(2, 4))
                A = rng.uniform(-1, 1, size=(n, n))
                b = rng.uniform(-1, 1, size=n)
                comps = tuple(
                    " + ".join([f"{b[i]}"] + [f"{A[i, j]} * x{j + 1}" for j in range(n)])
                    for i in range(n)
                )
                V = VectorField.parse(comps, tuple(f"x{i + 1}" for i in range(n)))
            n = V.dim
            y = rng.uniform(-1, 1, size=n)
            eta = rng.uniform(-1, 1, size=n)
            t = float(rng.uniform(-0.8, 0.8))
            plus = flow(V, y + h * eta, t)
            minus = flow(V, y - h * eta, t)
            fd = (plus - minus) / (2 * h)
            got = pushforward_along(V, y, t, eta)
            assert np.linalg.norm(got - fd) <= 1e-3 * max(1.0, np.linalg.norm(got))

        # rotation field: the differential is the rotation matrix itself
        rot = VectorField.parse(("0 - x2", "x1"), N2)
        for t in (0.3, 1.0, -0.7):
            R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            W = pushforward_along(rot, np.array([0.4, -0.2]), t, np.eye(2))
            assert np.allclose(W, R, atol=1e-6)


# --- planar shear: certified and corroborated ------------------------------


def test_planar_shear_certified_with_coverage():
    with wall_clock(60.0):
        spec = load_spec(SYS_DIR / "planar_shear.sys")
        verdict = global_verdict(spec)
        assert verdict.status == STATUS_CONTROLLABLE
        assert all(p.condition_holds for p in verdict.points)
        oracle = cross_validate(verdict, spec, n_traj=2000, horizon=20.0, cells_per_axis=8)
        assert oracle["status"] == "AGREE"
        dirs = {e["direction"] for e in oracle["entries"]}
        assert dirs == {"forward", "reverse"}
        assert all(e["coverage"] >= 0.9 for e in oracle["entries"])


def test_planar_forward_drift_flagged_with_monotone_witness():
    with wall_clock(60.0):
        spec = load_spec(SYS_DIR / "planar_forward.sys")
        verdict = global_verdict(spec)
        assert verdict.status == STATUS_UNCONTROLLABLE
        failing = [p for p in verdict.points if not p.condition_holds]
        assert failing
        pv = next(p for p in failing if p.witness["kind"] == "separating")
        cloud = simulate_reach(spec, np.zeros(2), T=20.0, n_traj=2000, seed=0)
        assert monotone_witness_check(
            cloud, pv.witness["covector"], pv.quotient_frame, tol=1e-6
        )
        # the raw statement behind the check: x1 never drops below its start
        assert cloud.points[:, 0].min() >= cloud.origin[0] - 1e-6


# --- three-state saddle: both criterion routes -----------------------------


def test_saddle_certified_and_routes_agree():
    with wall_clock(60.0):
        spec = load_spec(SYS_DIR / "saddle3d.sys")
        verdict = global_verdict(spec)
        assert verdict.status == STATUS_CONTROLLABLE
        assert len(verdict.points) == 5**3
        assert all(pv.condition_holds for pv in verdict.points)
        # hull route and determinant sign-change route, independently, on
        # the same leaves
        assert_routes_agree(spec, verdict)


# --- unicycles: codimension-two certificates -------------------------------


def test_unicycle_pair_certificates_and_oracle():
    with wall_clock(120.0):
        spec = load_spec(SYS_DIR / "unicycle.sys")
        verdict = global_verdict(spec)
        assert verdict.status == STATUS_CONTROLLABLE
        for pv in verdict.points:
            assert pv.condition_holds
            assert pv.witness["kind"] == "interior"
            assert pv.witness["max_angular_gap"] < np.pi
        oracle = cross_validate(verdict, spec)
        assert oracle["status"] == "AGREE"
        assert all(e["coverage"] >= 0.9 for e in oracle["entries"])

        off = load_spec(SYS_DIR / "unicycle_offset.sys")
        verdict2 = global_verdict(off)
        assert verdict2.status == STATUS_UNCONTROLLABLE
        assert len(verdict2.points) == 4**3
        for pv in verdict2.points:
            assert not pv.condition_holds
            assert pv.witness["kind"] == "separating"
            ambient = np.asarray(pv.quotient_frame).T @ np.asarray(
                pv.witness["covector"]
            )
            # the forward-speed covector, expressed in state coordinates
            assert ambient[0] > 0.95
            assert abs(ambient[1]) < 0.1 and abs(ambient[2]) < 0.1
        pv = verdict2.points[0]
        cloud = simulate_reach(off, pv.base, T=20.0, n_traj=2000, seed=0)
        assert monotone_witness_check(
            cloud, pv.witness["covector"], pv.quotient_frame
        )


# --- supporting-distribution verifier --------------------------------------


def test_confining_distribution_verifier():
    with wall_clock(30.0):
        off = load_spec(SYS_DIR / "unicycle_offset.sys")
        rep = verify_supporting_distribution(
            off, [VectorField.parse(("0", "1", "0"), N3)]
        )
        assert rep.accepted
        assert rep.clauses == {
            "complement_rank": True,
            "control_invariance": True,
            "one_sided_drift": True,
            "drift_outside_closure": True,
        }
        assert "not globally controllable" in rep.conclusion

        bad = verify_supporting_distribution(
            off, [VectorField.parse(("0", "x3", "0"), N3)]
        )
        assert not bad.accepted
        assert bad.failed_clause == "control_invariance"


# --- switched drift families ------------------------------------------------


def test_switched_family_certifies_and_single_drift_reduces():
    with wall_clock(60.0):
        spec = load_spec(SYS_DIR / "switched_shear.sys")
        assert spec.is_switched
        verdict = global_verdict(spec)
        assert verdict.status == STATUS_CONTROLLABLE
        assert all(p.condition_holds for p in verdict.points)

        # a one-element family takes the grid verdict's per-point path: at
        # a grid point, from that point's seed, the one-point condition is
        # the grid verdict's point exactly
        single = loads_spec(SHEAR, "shear")
        for seed in (0, 3):
            grid = global_verdict(single, grid_per_axis=5, seed=seed)
            point_seeds = flows._spawned_states(seed, len(grid.points))[:, 0].tolist()
            for x in ((0.0, 0.0), (1.0, -1.0), (-2.0, 2.0)):
                i = next(j for j, v in enumerate(grid.points) if v.base.tolist() == list(x))
                a = grid.points[i]
                b = switched_condition(single, x, seed=point_seeds[i])
                assert a.condition_holds == b.condition_holds
                assert a.samples_used == b.samples_used
                assert a.witness == b.witness
                assert np.array_equal(a.quotient_frame, b.quotient_frame)
                assert np.array_equal(a.base, b.base)
                assert a.error is None
                (d,) = det_route(single, [x], [point_seeds[i]])
                assert d.condition_holds == a.condition_holds


# --- exactness of the planar hull test --------------------------------------


def test_angular_gap_matches_dense_direction_scan():
    with wall_clock(10.0):
        angles = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
        D = np.column_stack([np.cos(angles), np.sin(angles)])
        margin = 1e-7
        rng = np.random.default_rng(7)
        compared = 0
        for _ in range(1000):
            m = int(rng.integers(2, 10))
            P = rng.uniform(-1, 1, size=(m, 2))
            brute = bool((P @ D.T).max(axis=0).min() > margin)
            inside, _ = interior_convex_test(P, margin)
            assert inside == brute, f"disagreement on {P!r}"
            compared += 1
        assert compared == 1000


# --- steering-cost and loop estimators --------------------------------------


def test_metric_estimates_bounds_and_monotonicity():
    with wall_clock(120.0):
        drift_only = loads_spec(PURE_DRIFT, "pure_drift")
        fwd = estimate_cost(drift_only, (0.0, 0.0), (1.0, 0.0))
        assert fwd.value is not None and fwd.value <= 1e-3
        rev = estimate_cost(drift_only, (1.0, 0.0), (0.0, 0.0))
        assert rev.unreachable

        shear = loads_spec(SHEAR, "shear")
        for x in ((0.0, 0.0), (0.7, 0.0)):
            est = loop_length(shear, x)
            assert est.value is not None and est.value <= 0.05
        for x in ((0.0, 1.0), (1.0, -1.0)):
            est = loop_length(shear, x)
            assert est.value is not None and est.value >= 0.1

        # larger budgets never report a worse estimate
        uni = load_spec(SYS_DIR / "unicycle.sys")
        ladder = [
            estimate_cost(uni, (0.0, 0.0, 0.0), (0.0, 0.0, np.pi / 2), budget=b).value
            for b in (100, 300, 600)
        ]
        _nonincreasing(ladder)

        driftless = loads_spec(DRIFTLESS, "driftless")
        ladder = [
            sr_distance(driftless, (0.0, 0.0), (1.0, 1.0), budget=b).value
            for b in (100, 300, 600)
        ]
        _nonincreasing(ladder)

        ladder = [
            loop_length(shear, (0.0, 1.0), budget=b).value for b in (200, 400, 800)
        ]
        _nonincreasing(ladder)


STIFF = """
name = stiff
vars = x1, x2
drift = -(exp(x2)), -(sin(x1))
control = tan(x1), 0
window = -1:1, -1:1
"""


def test_a_stiff_shooting_word_fails_at_its_step_cap(tmp_path, capsys):
    # tan(x1) makes some candidate words stiff; each shooting word may
    # take 1,000 steps over all its segments, so such a word fails instead
    # of holding its round of lanes for 100,000
    specfile = tmp_path / "stiff.sys"
    specfile.write_text(STIFF)
    argv = ["dist", str(specfile), "--from", "0.5,-0.25", "--to", "-0.25,0.5", "--budget", "200"]
    with wall_clock(15.0):
        code = cli_main(argv)
    assert code == 0
    doc = json.loads(capsys.readouterr().out)["metrics"]
    for key in ("forward", "reverse", "extended_driftless"):
        assert doc[key]["budget_spent"] == 200


STIFF_LOOP = """
name = stiff_loop
vars = x1, x2
drift = x2, -x2 + 8
control = x2, -x1^3
window = -1:1, -1:1
"""


def test_a_stiff_loop_word_is_capped_over_all_its_segments(monkeypatch):
    # an out-and-back loop word has up to 12 segments; the step cap counts
    # them together, so no word's lane outlives the cap of one word
    lanes = []

    class Recorded(flows._Lane):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            lanes.append(self)

    monkeypatch.setattr(flows, "_Lane", Recorded)
    spec = loads_spec(STIFF_LOOP, "stiff_loop")
    with wall_clock(10.0):
        report = run_pipeline(spec, "loop", {"budget": 40, "grid_per_axis": 2})
    assert report.exit_code == 0
    # some word runs into the cap, none past it
    assert max(lane.steps for lane in lanes) == metrics._MAX_STEPS


# --- deterministic reports ---------------------------------------------------


def test_check_reports_byte_identical(tmp_path):
    with wall_clock(60.0):
        specfile = tmp_path / "shear_fast.sys"
        specfile.write_text(
            SHEAR + "grid = 5\nleaf_budget = 24\ntraj = 300\nhorizon = 15\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SYS_DIR.parent / "src"), env.get("PYTHONPATH")])
        )
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"report_{tag}.json"
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "geoctrl.cli",
                    "check",
                    str(specfile),
                    "--json",
                    str(out),
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        # and the payload parses back to the same verdict either way
        doc = json.loads(outs[0])
        assert doc["verdict"]["status"] in ("CONTROLLABLE_CERTIFIED",)
        assert "timestamp" not in doc

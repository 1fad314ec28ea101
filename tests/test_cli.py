"""Command-line pipeline: reports, exit codes, determinism, exports."""

import csv
import json

import pytest

from geoctrl.cli import main
from geoctrl.report import run_pipeline
from geoctrl.system import load_spec, loads_spec

SHEAR = """\
name = shear
vars = x1, x2
drift = x2, 0
control = 0, 1
window = -2:2, -2:2
assume_not_dense = true
grid = 5
leaf_budget = 24
traj = 300
horizon = 15
"""

NONREG = """\
name = nonreg
vars = x1, x2
drift = 0, 0
control = 1, 0
control = 0, x1
window = -1:1, -1:1
assume_not_dense = true
grid = 7
"""

DRIFTLESS = """\
name = vertical
vars = x1, x2
drift = 0, 0
control = 0, 1
window = -1:1, -1:1
traj = 40
horizon = 4
"""

# the log is undefined on [-1, 1]^n but fine inside the window
OFF_ORIGIN = """\
name = off_origin
vars = x1, x2
drift = 1, 0
control = 0, ln(x1)
window = 2:3, -1:1
assume_not_dense = true
grid = 3
leaf_budget = 4
traj = 20
horizon = 1
"""

# sqrt is undefined on the left half of the window
SQRT_DRIFT = """\
name = sqrt_drift
vars = x1, x2
drift = sqrt(x1), 0
control = 0, 1
window = -2:2, -2:2
assume_not_dense = true
grid = 3
leaf_budget = 4
traj = 20
horizon = 1
"""

PLANE = """\
name = plane
vars = x1, x2
drift = 1, 0
control = 0, 1
window = -2:2, -2:2
assume_not_dense = true
"""


@pytest.fixture
def specfile(tmp_path):
    def write(text, name="case.sys"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ----------------------------------------------------------------- check


def test_check_shear_certifies_and_agrees(specfile, capsys):
    code, doc = run_json(capsys, ["check", specfile(SHEAR)])
    assert code == 0
    assert doc["verdict"]["status"] == "CONTROLLABLE_CERTIFIED"
    assert doc["verdict"]["condition_fails_at"] == 0
    assert doc["oracle"]["status"] == "AGREE"
    assert doc["regularity"]["constant_rank"] is True
    assert doc["assumptions"]
    assert doc["hash"].startswith("sha256:")
    assert doc["version"]


def test_check_nonregular_exits_3(specfile, capsys):
    code, doc = run_json(capsys, ["check", specfile(NONREG)])
    assert code == 3
    assert doc["verdict"]["status"] == "NOT_REGULAR"
    assert doc["regularity"]["constant_rank"] is False
    assert doc["oracle"] is None


def test_check_refuses_without_assumption(specfile, capsys):
    code = main(["check", specfile(DRIFTLESS)])
    err = capsys.readouterr().err
    assert code == 4
    assert json.loads(err)["error"]["code"] == "ASSUMPTION_MISSING"


def test_error_doc_written_to_json_path(specfile, tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["check", specfile(DRIFTLESS), "--json", str(target)])
    capsys.readouterr()
    assert code == 4
    assert json.loads(target.read_text())["error"]["code"] == "ASSUMPTION_MISSING"


def test_domain_error_exits_4_with_json_error(specfile, tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["check", specfile(SQRT_DRIFT), "--json", str(target)])
    err = json.loads(capsys.readouterr().err)
    assert code == 4
    assert err["error"]["code"] == "DOMAIN_ERROR"
    assert "sqrt" in err["error"]["message"]
    assert json.loads(target.read_text()) == err


# ----------------------------------------------------------------- audit


def test_audit_exit_codes_follow_regularity(specfile, capsys):
    code, doc = run_json(capsys, ["audit", specfile(SHEAR)])
    assert code == 0 and doc["regularity"]["constant_rank"] is True
    assert doc["verdict"] is None and doc["oracle"] is None
    code, doc = run_json(capsys, ["audit", specfile(NONREG)])
    assert code == 3
    assert doc["regularity"]["rank_range"] == [1, 2]
    assert doc["regularity"]["singular_points"]


def test_audit_probes_inside_the_window_like_check(specfile):
    spec = load_spec(specfile(OFF_ORIGIN))
    audit = run_pipeline(spec, "audit")
    assert audit.exit_code == 0
    assert audit.payload["regularity"] == run_pipeline(spec, "check").payload["regularity"]


# ----------------------------------------------------------------- reach


def test_reach_driftless_csv_keeps_first_coordinate(specfile, tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    code, doc = run_json(
        capsys, ["reach", specfile(DRIFTLESS), "--csv", str(cloud)]
    )
    assert code == 0
    assert doc["oracle"]["mode"] == "coverage"
    assert 0.0 < doc["oracle"]["coverage"] <= 1.0
    rows = list(csv.DictReader(cloud.open()))
    assert rows
    assert set(rows[0].keys()) == {"traj_id", "t", "x1", "x2"}
    assert {r["x1"] for r in rows} == {"0.0"}


# ------------------------------------------------------------ dist, loop


def test_dist_reports_both_directions(specfile, capsys):
    code, doc = run_json(
        capsys,
        ["dist", specfile(PLANE), "--from", "0,0", "--to", "1,0", "--budget", "120"],
    )
    assert code == 0
    m = doc["metrics"]
    assert m["forward"]["value"] <= 1e-3
    assert m["reverse"]["unreachable"] is True
    assert m["reverse"]["value"] is None
    assert m["forward"]["label"] == "upper bound"
    assert m["extended_driftless"]["value"] >= 0.9


def test_dist_requires_endpoints(specfile, capsys):
    code = main(["dist", specfile(PLANE), "--to", "1,0"])
    err = capsys.readouterr().err
    assert code == 4
    assert json.loads(err)["error"]["code"] == "USAGE"


def test_dist_rejects_wrong_arity(specfile, capsys):
    code = main(["dist", specfile(PLANE), "--from", "0,0,0", "--to", "1,0"])
    err = capsys.readouterr().err
    assert code == 4
    assert "2 coordinates" in json.loads(err)["error"]["message"]


def test_loop_scan_reports_grid_and_max(specfile, capsys):
    code, doc = run_json(
        capsys, ["loop", specfile(DRIFTLESS), "--grid", "2", "--budget", "60"]
    )
    assert code == 0
    m = doc["metrics"]
    assert m["grid_per_axis"] == 2
    assert len(m["entries"]) == 4
    # zero drift: every probe admits a near-stationary loop
    assert all(e["value"] <= 0.05 for e in m["entries"])
    assert m["max_estimate"] <= 0.05
    assert "not conclusive" in m["boundedness_note"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["dist", "--from", "0,0", "--to", "1,0", "--tol", "0"], "--tol"),
        (["loop", "--tol", "-1"], "--tol"),
        (["check", "--grid", "0"], "--grid"),
        (["check", "--leaf-budget", "0"], "--leaf-budget"),
        (["reach", "--traj", "0"], "--traj"),
        (["reach", "--horizon", "-1"], "--horizon"),
        (["dist", "--from", "0,0", "--to", "1,0", "--budget", "3"], "--budget"),
        (["loop", "--budget", "0"], "--budget"),
    ],
    ids=[
        "dist-tol",
        "loop-tol",
        "check-grid",
        "check-leaf-budget",
        "reach-traj",
        "reach-horizon",
        "dist-budget",
        "loop-budget",
    ],
)
def test_inadmissible_overrides_are_usage_errors(specfile, tmp_path, capsys, argv, flag):
    target = tmp_path / "report.json"
    code = main([argv[0], specfile(PLANE), *argv[1:], "--json", str(target)])
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 4
    assert err["code"] == "USAGE"
    assert err["message"].startswith(f"{flag} must be")
    assert json.loads(target.read_text())["error"] == err


# ------------------------------------------------------------ plumbing


def test_missing_specfile(capsys):
    code = main(["audit", "/nonexistent/path.sys"])
    err = capsys.readouterr().err
    assert code == 4
    assert json.loads(err)["error"]["code"] == "SPEC_NOT_FOUND"


def test_invalid_specfile(specfile, capsys):
    code = main(["audit", specfile("vars = x1\ndrift = x9\n")])
    err = capsys.readouterr().err
    assert code == 4
    assert json.loads(err)["error"]["code"] == "SPEC_INVALID"


@pytest.mark.parametrize(
    "line,key",
    [
        ("grid = 1", "grid"),
        ("leaf_budget = 0", "leaf_budget"),
        ("traj = 0", "traj"),
        ("horizon = 0", "horizon"),
        ("horizon = inf", "horizon"),
        ("max_duration = -0.5", "max_duration"),
        ("max_duration = nan", "max_duration"),
    ],
)
def test_out_of_range_spec_values_are_invalid_specs(specfile, tmp_path, capsys, line, key):
    target = tmp_path / "report.json"
    code = main(["check", specfile(SHEAR + line + "\n"), "--json", str(target)])
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 4
    assert err["code"] == "SPEC_INVALID"
    assert err["message"].startswith(f"{key} must be")
    assert json.loads(target.read_text())["error"] == err


def test_json_flag_writes_file_quietly(specfile, tmp_path, capsys):
    target = tmp_path / "audit.json"
    code = main(["audit", specfile(SHEAR), "--json", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["system"]["name"] == "shear"


def test_reports_are_byte_identical(specfile, tmp_path, capsys):
    spec = specfile(SHEAR)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["check", spec, "--json", str(a)]) == 0
    assert main(["check", spec, "--json", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_timestamp_is_appended_and_optional(specfile, capsys):
    spec = specfile(DRIFTLESS)
    _, plain = run_json(capsys, ["reach", spec])
    _, stamped = run_json(capsys, ["reach", spec, "--timestamp"])
    assert "timestamp" not in plain
    assert list(stamped)[-1] == "timestamp"
    del stamped["timestamp"]
    assert stamped == plain


def test_seed_override_changes_hash_and_report(specfile, capsys):
    spec = specfile(DRIFTLESS)
    _, one = run_json(capsys, ["reach", spec, "--seed", "1"])
    _, two = run_json(capsys, ["reach", spec, "--seed", "2"])
    assert one["seed"] == 1 and two["seed"] == 2
    assert one["hash"] != two["hash"]


def test_run_pipeline_rejects_unknown_command():
    spec = loads_spec(PLANE)
    with pytest.raises(ValueError, match="unknown command"):
        run_pipeline(spec, "dance")

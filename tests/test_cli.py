"""Command-line pipeline: reports, exit codes, determinism, exports."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from geoctrl.cli import main
from geoctrl.report import PipelineUsageError, run_pipeline
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


# ln(x1) is undefined on the left half of the window; only check reads
# the drift with domain checks
LN_DRIFT = """\
name = ln_drift
vars = x1, x2
drift = 1, ln(x1) + 2
control = 0.5, x2
window = -1:1, -1:1
assume_not_dense = true
grid = 3
traj = 50
horizon = 2
"""


@pytest.mark.parametrize(
    "command,want",
    [("audit", 0), ("check", 4), ("reach", 0), ("dist", 0), ("loop", 0)],
)
def test_a_drift_undefined_in_the_window_is_refused_by_check_alone(
    specfile, capsys, command, want
):
    argv = [command, specfile(LN_DRIFT)]
    if command == "dist":
        argv += ["--from", "0.2,0.2", "--to", "0.5,0.5"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == want
    if want == 4:
        err = json.loads(captured.err)["error"]
        assert err == {"code": "DOMAIN_ERROR", "message": "ln of nonpositive value -1.0"}
    else:
        assert "error" not in json.loads(captured.out)


# a field undefined at every point, and literals no float holds
UNDEFINED_EVERYWHERE = {
    "control-1/0": (PLANE.replace("control = 0, 1", "control = 0, 1/0"), "DOMAIN_ERROR"),
    "drift-x1/0": (PLANE.replace("drift = 1, 0", "drift = x1/0, 0"), "DOMAIN_ERROR"),
    "drift-ln(0)": (PLANE.replace("drift = 1, 0", "drift = 1, x2*ln(0)"), "DOMAIN_ERROR"),
    "control-1e999": (PLANE.replace("control = 0, 1", "control = 0, 1e999"), "SPEC_INVALID"),
    "window-1e999": (PLANE.replace("window = -2:2", "window = -1e999:2"), "SPEC_INVALID"),
}


@pytest.mark.parametrize("command", ["audit", "check", "reach", "dist", "loop"])
@pytest.mark.parametrize("case", sorted(UNDEFINED_EVERYWHERE))
def test_non_finite_constants_exit_4_on_every_command(specfile, tmp_path, capsys, command, case):
    text, want = UNDEFINED_EVERYWHERE[case]
    target = tmp_path / "report.json"
    argv = [command, specfile(text), "--json", str(target)]
    if command == "dist":
        argv += ["--from", "0,0", "--to", "1,1"]
    code = main(argv)
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 4
    assert err["code"] == want
    assert json.loads(target.read_text())["error"] == err


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


@pytest.mark.parametrize(
    "argv",
    [["loop", "--budget", "50"], ["dist", "--from=-1,0", "--to", "1,1"]],
    ids=["loop", "dist"],
)
def test_shooting_goes_on_where_the_start_frame_is_undefined(specfile, capsys, argv):
    # sqrt(x1) is nan at x1 < 0, so the least-squares words have no frame
    # to aim by; they are left out and the random words still shoot
    code, doc = run_json(capsys, [argv[0], specfile(SQRT_DRIFT), *argv[1:]])
    assert code == 0
    assert doc["metrics"]


def test_a_negative_point_may_follow_its_flag(specfile, capsys):
    spec = specfile(PLANE)
    tail = ["--budget", "40"]
    code = main(["dist", spec, "--from", "-1,0", "--to", "-0.5,-1", *tail])
    spaced = capsys.readouterr().out
    assert code == 0
    code = main(["dist", spec, "--from=-1,0", "--to=-0.5,-1", *tail])
    assert code == 0
    assert capsys.readouterr().out == spaced
    assert json.loads(spaced)["metrics"]["from"] == [-1.0, 0.0]


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
        (["dist", "--from", "nan,0", "--to", "1,0"], "--from"),
        (["dist", "--from", "inf,0", "--to", "1,0"], "--from"),
        (["dist", "--from", "0,0", "--to", "1,nan"], "--to"),
        (["dist", "--from", "0,0", "--to", "5,5"], "--to"),
        (["dist", "--from", "0,3.5", "--to", "1,0"], "--from"),
        (["dist", "--from", "0,0", "--to", "1,0", "--tol", "inf"], "--tol"),
        (["loop", "--tol", "inf"], "--tol"),
        (["check", "--seed", "-1"], "--seed"),
        (["reach", "--seed", "-1"], "--seed"),
        (["loop", "--seed", "-1"], "--seed"),
        (["dist", "--from", "0,0", "--to", "1,0", "--seed", "-1"], "--seed"),
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
        "dist-from-nan",
        "dist-from-inf",
        "dist-to-nan",
        "dist-to-outside",
        "dist-from-outside",
        "dist-tol-inf",
        "loop-tol-inf",
        "check-seed",
        "reach-seed",
        "loop-seed",
        "dist-seed",
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


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["check", "{spec}", "--grid", "two"],
        ["dist", "{spec}", "--from", "a,b", "--to", "0,0"],
        ["verify", "{spec}"],
        [],
    ],
    ids=["no-specfile", "grid-not-int", "point-not-numbers", "unknown-command", "no-command"],
)
def test_command_lines_argparse_refuses_exit_4(specfile, capsys, argv):
    # argparse alone would exit 2, the code of an oracle disagreement
    code = main([a.format(spec=specfile(PLANE)) for a in argv])
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 4
    assert err["code"] == "USAGE"
    assert err["message"].startswith("geoctrl")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--json", "{json}"],
        ["check", "{spec}", "--grid", "two", "--json", "{json}"],
        ["dist", "{spec}", "--json", "{json}", "--from", "a,b", "--to", "0,0"],
        ["verify", "{spec}", "--json", "{json}"],
    ],
    ids=["no-specfile", "grid-not-int", "point-not-numbers", "unknown-command"],
)
def test_command_lines_argparse_refuses_write_their_json(specfile, tmp_path, capsys, argv):
    target = tmp_path / "u.json"
    code = main([a.format(spec=specfile(PLANE), json=target) for a in argv])
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 4
    assert err["code"] == "USAGE"
    assert json.loads(target.read_text())["error"] == err


def test_a_json_flag_without_its_path_is_refused_on_stderr_alone(specfile, tmp_path, capsys):
    code = main(["check", specfile(PLANE), "--json"])
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 4
    assert err["code"] == "USAGE" and "--json" in err["message"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "--leaf-budget" in capsys.readouterr().out


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
        ("seed = -3", "seed"),
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


# run in a child process: `check --grid 2` of a bundled system, then
# the verdict's points; prints [exit code, report status, condition_holds]
_CHECK_AND_POINTS = """
import contextlib, io, json, sys
from geoctrl import global_verdict, load_spec
from geoctrl.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["check", sys.argv[1], "--grid", "2"])
verdict = global_verdict(load_spec(sys.argv[1]), grid_per_axis=2)
status = json.loads(out.getvalue())["verdict"]["status"]
assert status == verdict.status
print(json.dumps([code, status, [p.condition_holds for p in verdict.points]]))
"""


@pytest.mark.parametrize("name", ["planar_shear", "unicycle_offset"])
def test_check_keeps_its_verdict_without_the_widest_simd_paths(name):
    # numpy's dispatcher may round the last bit of some results otherwise
    # on a narrower instruction set, so report bytes may move; the
    # statuses, the points' verdicts and the exit code may not
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    runs = []
    for disabled in (None, "X86_V4 AVX512_ICL AVX512_SPR"):
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        proc = subprocess.run(
            [sys.executable, "-c", _CHECK_AND_POINTS, str(root / "systems" / f"{name}.sys")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert len(runs[0][2]) == 2 ** len(load_spec(root / "systems" / f"{name}.sys").window)


def test_run_pipeline_rejects_unknown_command():
    spec = loads_spec(PLANE)
    with pytest.raises(ValueError, match="unknown command"):
        run_pipeline(spec, "dance")


def test_run_pipeline_rejects_an_unknown_override_and_names_the_known_ones():
    spec = loads_spec(PLANE)
    with pytest.raises(PipelineUsageError, match="unknown override 'grid'") as err:
        run_pipeline(spec, "audit", {"grid": 21})
    for key in (
        "grid_per_axis",
        "leaf_budget",
        "n_traj",
        "horizon",
        "seed",
        "budget",
        "endpoint_tol",
        "from_point",
        "to_point",
    ):
        assert key in str(err.value)


# ------------------------------------------------------- generated specs

_ATOMS = st.sampled_from(["x1", "x2", "0", "1", "2", "0.5", "3"])


def _grow(children):
    unary = st.tuples(
        st.sampled_from(["sin", "cos", "tan", "tanh", "exp", "ln", "sqrt"]), children
    ).map(lambda fa: f"{fa[0]}({fa[1]})")
    binary = st.tuples(children, st.sampled_from(["+", "-", "*", "/"]), children).map(
        lambda t: f"({t[0]}) {t[1]} ({t[2]})"
    )
    powed = st.tuples(children, st.sampled_from(["2", "3", "-1", "0.5"])).map(
        lambda t: f"({t[0]})^{t[1]}"
    )
    return unary | binary | powed | children.map(lambda a: f"-({a})")


_EXPRS = st.recursive(_ATOMS, _grow, max_leaves=6)

# dist and loop shoot at their default budgets: a shooting word takes at
# most metrics._MAX_STEPS steps over all its segments, so one stiff word
# cannot hold its round of lanes for long
_GENERATED_COMMANDS = (
    ["audit"],
    ["check"],
    ["reach"],
    ["dist", "--from", "0.5,-0.25", "--to", "-0.25,0.5"],
    ["loop"],
)


def _generated_spec(drift, control):
    return (
        "name = generated\nvars = x1, x2\n"
        f"drift = {drift[0]}, {drift[1]}\ncontrol = {control[0]}, {control[1]}\n"
        "window = -1:1, -1:1\nassume_not_dense = true\n"
    )


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(drift=st.tuples(_EXPRS, _EXPRS), control=st.tuples(_EXPRS, _EXPRS))
def test_every_command_ends_in_a_documented_exit_on_generated_specs(
    tmp_path, capfd, drift, control
):
    path = tmp_path / "generated.sys"
    path.write_text(_generated_spec(drift, control))
    target = tmp_path / "report.json"
    for command in _GENERATED_COMMANDS:
        target.unlink(missing_ok=True)
        argv = [*command[:1], str(path), *command[1:], "--json", str(target)]
        argv += ["--grid", "2", "--leaf-budget", "4", "--traj", "20", "--horizon", "1"]
        code = main(argv)
        err = capfd.readouterr().err
        if "illegal value" in err:
            event("LAPACK illegal-value lines on stderr")
        event(f"{command[0]} exit {code}")
        assert code in (0, 2, 3, 4), (command[0], code)
        doc = json.loads(target.read_text())
        assert ("error" in doc) == (code == 4), (command[0], code)
        if code == 4:
            assert set(doc["error"]) == {"code", "message"}
            assert doc["error"]["code"] in err

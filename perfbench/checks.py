"""Output checks for every op, and the self-test that keeps them honest.

An op fails when it raises, gives a wrong status, oracle status or exit
code, produces report bytes that differ from an earlier run of the same op
and seed, or fails the independent re-check below. An op listed with a
known defect still counts as failed when it shows exactly that defect; any
other failure marks the run incorrect.

The re-checks run outside the timed region:
- dist/loop: every returned word is re-integrated with
  `scipy.integrate.solve_ivp`, with the fields evaluated from the
  component strings the report echoes (not through geoctrl). The endpoint
  or closure error must be within tolerance and the recomputed cost must
  match the reported value.
- reach: the cloud lies inside the window, and coverage recomputed from
  the cloud matches the report.
- check: the verdict block is consistent with itself and with its status,
  and the oracle status is consistent with its entries.
"""

from __future__ import annotations

import copy
import hashlib
import math

import numpy as np

from workloads import CERTIFIED, EVIDENCE

ENDPOINT_TOL = 0.05  # geoctrl.metrics.DEFAULT_ENDPOINT_TOL, the tolerance users get
LOOP_CLOSURE_FRAC = 0.2  # a loop closes to within a fifth of its own length
INTEGRATION_SLACK = 1e-4  # DP54 at rtol 1e-8 against DOP853 at rtol 1e-11
COST_RTOL = 1e-9
COVERAGE_CELLS = 8  # geoctrl.reach.COVERAGE_CELLS


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


# -- expected answers -----------------------------------------------------------


def answer(op, res) -> tuple:
    """The op's answer in the shape of Op.expect."""
    if op.kind == "check":
        p = res["payload"]
        return (
            (p.get("verdict") or {}).get("status"),
            (p.get("oracle") or {}).get("status"),
            res["exit_code"],
        )
    if op.kind == "verify":
        return (res["support"]["accepted"], res["support"]["failed_clause"])
    return (res["exit_code"],)


def expectation_problem(op, res) -> str | None:
    if res.get("error"):
        return f"raised {res['error']}"
    got = answer(op, res)
    if got != tuple(op.expect):
        return f"answer {got}, expected {tuple(op.expect)}"
    return None


# -- independent re-checks --------------------------------------------------------


def _field_fns(system: dict):
    """Componentwise evaluators compiled from the report's echoed strings."""
    names = system["vars"]
    ns = {k: getattr(math, k) for k in ("sin", "cos", "tan", "exp", "sqrt", "tanh")}
    ns["ln"] = math.log

    def compile_field(comps):
        body = ", ".join("(" + c.replace("^", "**") + ")" for c in comps)
        return eval(f"lambda {', '.join(names)}: ({body},)", dict(ns))  # noqa: S307

    return [compile_field(system["drifts"][0])] + [compile_field(g) for g in system["controls"]]


def _endpoint(fns, start, word) -> np.ndarray:
    from scipy.integrate import solve_ivp

    z = np.asarray(start, dtype=float)
    for seg in word:
        coeffs = seg["coefficients"]

        def rhs(_t, y, coeffs=coeffs):
            out = np.zeros(len(y))
            for c, fn in zip(coeffs, fns):
                if c != 0.0:
                    out += c * np.asarray(fn(*y), dtype=float)
            return out

        sol = solve_ivp(rhs, (0.0, seg["duration"]), z, method="DOP853", rtol=1e-11, atol=1e-12)
        if not sol.success:
            raise ArithmeticError(sol.message)
        z = sol.y[:, -1]
    return z


def _word_cost(word, drift_in_cost: bool) -> float:
    total = 0.0
    for seg in word:
        c = np.asarray(seg["coefficients"], dtype=float)
        total += seg["duration"] * float(np.linalg.norm(c if drift_in_cost else c[1:]))
    return total


def _estimate_problem(fns, block, start, target, drift_in_cost, fixed_drift, loop) -> str | None:
    """None when a returned estimate re-checks; a reason otherwise."""
    if block["value"] is None:
        err = block["endpoint_error"]
        if err is not None and not loop and err <= ENDPOINT_TOL:
            return f"unreachable, yet closest approach {err} is within tolerance"
        return None
    word = block["word"]
    if not word:
        return "finite value with an empty word"
    if fixed_drift and any(seg["coefficients"][0] != 1.0 for seg in word):
        return "drift coefficient is not fixed at 1"
    cost = _word_cost(word, drift_in_cost)
    if abs(cost - block["value"]) > COST_RTOL * max(1.0, abs(cost)):
        return f"reported cost {block['value']} but the word costs {cost}"
    err = float(np.linalg.norm(_endpoint(fns, start, word) - np.asarray(target)))
    limit = min(ENDPOINT_TOL, LOOP_CLOSURE_FRAC * cost) if loop else ENDPOINT_TOL
    if err > limit + INTEGRATION_SLACK:
        return f"re-integrated error {err:.3g} exceeds {limit:.3g}"
    if abs(err - block["endpoint_error"]) > INTEGRATION_SLACK:
        return f"re-integrated error {err:.3g}, reported {block['endpoint_error']:.3g}"
    return None


def estimate_rechecks(op, payload) -> list[tuple[str, str | None, bool]]:
    """(estimate name, problem or None, finite) for each estimate requested."""
    fns = _field_fns(payload["system"])
    m = payload["metrics"]
    out = []
    if op.kind == "dist":
        x, y = m["from"], m["to"]
        for name, start, target, in_cost, fixed in (
            ("forward", x, y, False, True),
            ("reverse", y, x, False, True),
            ("extended_driftless", x, y, True, False),
        ):
            block = m[name]
            prob = _estimate_problem(fns, block, start, target, in_cost, fixed, loop=False)
            out.append((name, prob, block["value"] is not None))
    else:
        for entry in m["entries"]:
            at = entry["at"]
            prob = _estimate_problem(fns, entry, at, at, True, True, loop=True)
            out.append((f"loop at {at}", prob, entry["value"] is not None))
    return out


def _check_problem(payload) -> str | None:
    v = payload["verdict"]
    reg = payload["regularity"]
    if v["condition_holds_at"] + v["condition_fails_at"] != v["points_checked"]:
        return "holds + fails != points checked"
    if v["points_checked"] != reg["grid_points"]:
        return "verdict and audit grids differ"
    if v["status"] == CERTIFIED and v["condition_fails_at"]:
        return "certified with failing points"
    if v["status"] == EVIDENCE:
        seps = [w["witness"] for w in payload["witnesses"] if w["witness"]["kind"] == "separating"]
        if not seps:
            return "evidence without a separating witness"
        for w in seps:
            if abs(float(np.linalg.norm(w["covector"])) - 1.0) > 1e-9:
                return "separating covector is not a unit vector"
    oracle = payload["oracle"]
    if oracle and oracle.get("mode") == "coverage":
        agree = all(e["coverage"] >= oracle["threshold"] for e in oracle["entries"])
        if (oracle["status"] == "AGREE") != agree:
            return "oracle status contradicts its coverage entries"
    if oracle and oracle.get("mode") == "witness":
        if (oracle["status"] == "AGREE") != all(e["respected"] for e in oracle["entries"]):
            return "oracle status contradicts its witness entries"
    return None


def _reach_problem(payload, cloud) -> str | None:
    win = np.asarray(payload["system"]["window"], dtype=float)
    pts = np.asarray(cloud.points, dtype=float)
    if len(pts) != payload["oracle"]["points_stored"]:
        return "points_stored differs from the cloud"
    if len(pts) and not np.all((pts >= win[:, 0]) & (pts <= win[:, 1])):
        return "cloud has points outside the window"
    cells = np.floor((pts - win[:, 0]) / (win[:, 1] - win[:, 0]) * COVERAGE_CELLS)
    cells = np.clip(cells, 0, COVERAGE_CELLS - 1)
    cov = len({tuple(c) for c in cells.astype(int).tolist()}) / COVERAGE_CELLS ** len(win)
    if abs(cov - payload["oracle"]["coverage"]) > 1e-12:
        return f"coverage {payload['oracle']['coverage']} but the cloud covers {cov}"
    return None


def recheck(op, res) -> tuple[str | None, list]:
    """Independent re-check of one op's output: (problem, estimate rows)."""
    if res.get("error"):
        return None, []
    payload = res.get("payload")
    try:
        if op.kind == "check":
            return _check_problem(payload), []
        if op.kind == "reach":
            return _reach_problem(payload, res["cloud"]), []
        if op.kind in ("dist", "loop"):
            rows = estimate_rechecks(op, payload)
            bad = [f"{name}: {prob}" for name, prob, _ in rows if prob]
            return ("; ".join(bad) or None), rows
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        return f"re-check could not read the output: {exc!r}", []
    return None, []


# -- judging a whole run -----------------------------------------------------------------


def judge(ops, passes) -> dict:
    """Failures of every (op, pass), plus found counts for the estimates.

    passes: list over passes of lists over ops of result dicts. Re-checks
    run once per distinct output; later passes must reproduce its bytes.
    """
    failures = []  # (pass index, op label, reason, known)
    found = requested = 0
    for j, op in enumerate(ops):
        first = passes[0][j]
        prob, rows = recheck(op, first)
        requested += len(rows)
        found += sum(1 for _, p, finite in rows if finite and p is None)
        for i, run in enumerate(p[j] for p in passes):
            reasons = []
            exp = expectation_problem(op, run)
            known = op.known_defect is not None and not run.get("error") and (
                answer(op, run) == tuple(op.known_defect)
            )
            if exp:
                reasons.append(exp)
            if prob:
                reasons.append(f"re-check: {prob}")
            if i > 0 and run.get("digest") != first.get("digest"):
                reasons.append("output bytes differ from pass 1 with the same seed")
            if reasons:
                only_known = known and len(reasons) == 1 and exp is not None
                failures.append((i, op.label, "; ".join(reasons), only_known))
    return {"failures": failures, "found": found, "requested": requested}


def self_test(ops, passes) -> tuple[list[str], list[str]]:
    """Corrupt copies of this run's own outputs; the checker must flag each.

    Covers a flipped status, a wrong exit code, a perturbed dist word and
    a non-deterministic second run, for the op kinds the workload has.
    Returns (corruptions tried, corruptions that went unflagged).
    """
    first = passes[0]
    usable = [j for j, op in enumerate(ops) if not first[j].get("error")]
    trials = []  # (name, op index, mutation, as a repeat of the clean output)

    def flip(r):
        v = r["payload"]["verdict"]
        v["status"] = EVIDENCE if v["status"] == CERTIFIED else CERTIFIED

    def wrong_exit(r):
        r["exit_code"] = 2 if r["exit_code"] != 2 else 0

    def other_bytes(r):
        r["digest"] = sha256("not the first pass")

    checks = [j for j in usable if ops[j].kind == "check"]
    if checks:
        trials.append(("flipped status", checks[0], flip, False))
    exits = [j for j in usable if ops[j].kind != "verify"]
    if exits:
        trials.append(("wrong exit code", exits[0], wrong_exit, False))
    found = [
        (j, name)
        for j in usable
        if ops[j].kind == "dist"
        for name in ("forward", "reverse", "extended_driftless")
        if first[j]["payload"]["metrics"][name]["value"] is not None
    ]
    if found:
        j, block_name = found[0]

        def stretch(r):
            # longer segments with the cost rescaled to match: only the
            # re-integration can tell
            block = r["payload"]["metrics"][block_name]
            for seg in block["word"]:
                seg["duration"] *= 1.5
            block["value"] *= 1.5

        trials.append(("perturbed dist word", j, stretch, False))
    if usable:
        trials.append(("non-deterministic second run", usable[0], other_bytes, True))

    missed = []
    for name, j, mutate, repeat in trials:
        bad = copy.deepcopy({k: v for k, v in first[j].items() if k != "cloud"})
        bad["cloud"] = first[j]["cloud"]
        mutate(bad)
        runs = [[first[j]], [bad]] if repeat else [[bad]]
        if not any(not known for *_, known in judge([ops[j]], runs)["failures"]):
            missed.append(name)
    return [t[0] for t in trials], missed

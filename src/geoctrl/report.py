"""Deterministic report assembly for the command-line pipeline.

A report is one JSON document with a fixed top-level field order:

    system, hash, regularity, verdict, witnesses, oracle, metrics,
    assumptions, seed, version

plus a trailing timestamp that is excluded from determinism claims.
Re-running any command with the same spec and seed reproduces the
document byte-for-byte up to that timestamp. Point clouds always go to
sibling CSV files, never into the JSON.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .criterion import (
    STATUS_NOT_REGULAR,
    GlobalVerdict,
    _prepare,
    global_verdict,
)
from .expr import check_constant_parts
from .lie import window_grid
from .flows import inflate_window
from .metrics import SHOOTING_INFLATION, loop_lengths, steering_costs
# the one-search estimators stay importable here, where the benchmark's
# tracer (perfbench/tracing.py) looks them up; the commands call the
# batched forms above
from .metrics import estimate_cost, loop_length, sr_distance  # noqa: F401
from .reach import coverage, cross_validate, simulate_reach
from .system import RANGES, SystemSpec, _positive_finite, serialize_spec

__all__ = [
    "Report",
    "AssumptionMissingError",
    "PipelineUsageError",
    "run_pipeline",
    "COMMANDS",
]

COMMANDS = ("audit", "check", "reach", "dist", "loop")

EXIT_OK = 0
EXIT_DISAGREE = 2
EXIT_NOT_REGULAR = 3
EXIT_ERROR = 4

_MAX_WITNESSES = 8


class AssumptionMissingError(ValueError):
    """check mode needs the spec to assert assume_not_dense explicitly."""


class PipelineUsageError(ValueError):
    """Command invoked without a required argument (machine code in args[0])."""


@dataclass(frozen=True)
class Report:
    payload: dict
    exit_code: int
    cloud: object | None = None  # reach command keeps the cloud for CSV export

    def to_json(self, timestamp: bool = False) -> str:
        doc = dict(self.payload)
        if timestamp:
            doc["timestamp"] = datetime.now(timezone.utc).isoformat()
        return json.dumps(doc, indent=2) + "\n"


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def _system_echo(spec: SystemSpec) -> dict:
    return {
        "name": spec.name,
        "vars": list(spec.var_names),
        "drifts": [list(d.component_strings()) for d in spec.drifts],
        "controls": [list(g.component_strings()) for g in spec.controls],
        "window": [[lo, hi] for lo, hi in spec.window],
        "assume_not_dense": spec.assume_not_dense,
        "leaf_budget": spec.leaf_budget,
        "grid_per_axis": spec.grid_per_axis,
        "n_traj": spec.n_traj,
        "horizon": spec.horizon,
        "max_duration": spec.max_duration,
    }


def _regularity_block(reg) -> dict:
    ranks = reg.ranks
    return {
        "constant_rank": bool(reg.constant_rank),
        "rank": reg.rank,
        "codimension": reg.codim,
        "grid_points": int(len(reg.grid_points)),
        "rank_range": [int(ranks.min()), int(ranks.max())] if len(ranks) else [],
        "singular_points": _json_safe(reg.singular_points[:_MAX_WITNESSES]),
        "note": reg.note,
    }


def _verdict_block(gv: GlobalVerdict) -> dict:
    holds = sum(1 for p in gv.points if p.condition_holds)
    return {
        "status": gv.status,
        "points_checked": len(gv.points),
        "condition_holds_at": holds,
        "condition_fails_at": len(gv.points) - holds,
        "assumptions": _json_safe(gv.assumptions),
    }


def _witness_block(gv: GlobalVerdict) -> list:
    failing = [p for p in gv.points if not p.condition_holds and p.witness]
    picked = failing if failing else [p for p in gv.points if p.witness]
    out = []
    for p in picked[:_MAX_WITNESSES]:
        out.append({"base": _json_safe(p.base), "witness": _json_safe(p.witness)})
    return out


def _estimate_block(est, extra: dict | None = None) -> dict:
    block = {
        "value": est.value,
        "label": "upper bound",
        "unreachable": est.unreachable,
        "endpoint_error": _json_safe(est.endpoint_error)
        if np.isfinite(est.endpoint_error)
        else None,
        "budget_spent": est.budget_spent,
        "word": [
            {"duration": t, "coefficients": list(c)} for t, c in est.best_word
        ],
    }
    if extra:
        block = {**extra, **block}
    return block


# override -> (command-line flag, admissible, requirement)
_OVERRIDE_RULES = {
    "grid_per_axis": ("--grid", *RANGES["grid_per_axis"]),
    "leaf_budget": ("--leaf-budget", *RANGES["leaf_budget"]),
    "n_traj": ("--traj", *RANGES["n_traj"]),
    "horizon": ("--horizon", *RANGES["horizon"]),
    "seed": ("--seed", *RANGES["seed"]),
    "endpoint_tol": ("--tol", _positive_finite, "positive and finite"),
}

# `estimate_cost` evaluates four fixed candidates before it shoots, so a
# smaller `dist` budget could not be kept; `loop` raises a smaller positive
# budget to one checkpoint on each leg
_MIN_BUDGET = {"dist": 4, "loop": 1}


# the override keys `run_pipeline` reads, which are those the CLI passes;
# the spec ones replace spec fields
_SPEC_OVERRIDES = ("grid_per_axis", "leaf_budget", "n_traj", "horizon", "seed")
_OVERRIDE_KEYS = _SPEC_OVERRIDES + ("budget", "endpoint_tol", "from_point", "to_point")


def _apply_overrides(spec: SystemSpec, overrides: dict) -> SystemSpec:
    unknown = sorted(set(overrides) - set(_OVERRIDE_KEYS))
    if unknown:
        raise PipelineUsageError(
            f"unknown override {', '.join(map(repr, unknown))}; "
            f"the known ones are {', '.join(_OVERRIDE_KEYS)}"
        )
    for key, (flag, admissible, requirement) in _OVERRIDE_RULES.items():
        value = overrides.get(key)
        if value is not None and not admissible(value):
            raise PipelineUsageError(f"{flag} must be {requirement}, got {value}")
    updates = {k: v for k, v in overrides.items() if k in _SPEC_OVERRIDES and v is not None}
    return dataclasses.replace(spec, **updates) if updates else spec


def _search_kwargs(command: str, overrides: dict, seed: int) -> dict:
    """The shooting arguments of `dist` or `loop`: the seed, plus the
    --budget and --tol overrides that were given."""
    budget = overrides.get("budget")
    if budget is not None and budget < _MIN_BUDGET[command]:
        raise PipelineUsageError(
            f"--budget must be at least {_MIN_BUDGET[command]}, got {budget}"
        )
    kwargs = {"seed": seed}
    if budget is not None:
        kwargs["budget"] = budget
    tol = overrides.get("endpoint_tol")
    if tol is not None:
        kwargs["endpoint_tol"] = tol
    return kwargs


def _parse_point(value, spec: SystemSpec, flag: str) -> np.ndarray:
    """A `dist` endpoint: finite, and inside the box every shooting flow
    must stay in, since each word from outside it escapes at once."""
    if value is None:
        raise PipelineUsageError(f"{flag} is required for this command")
    pt = np.asarray(value, dtype=float)
    if pt.shape != (spec.dim,):
        raise PipelineUsageError(f"{flag} needs {spec.dim} coordinates")
    if not np.isfinite(pt).all():
        raise PipelineUsageError(f"{flag} must be finite, got {pt.tolist()}")
    box = inflate_window(spec.window, SHOOTING_INFLATION)
    if not all(lo <= v <= hi for v, (lo, hi) in zip(pt.tolist(), box)):
        bounds = ", ".join(f"{lo:g}:{hi:g}" for lo, hi in box)
        raise PipelineUsageError(
            f"{flag} must be inside {bounds}, the window inflated by half, "
            f"which every shooting flow stays in; got {pt.tolist()}"
        )
    return pt


def run_pipeline(spec: SystemSpec, command: str, overrides: dict | None = None) -> Report:
    """Run one command over a spec and assemble the ordered report.

    audit: bracket-closure regularity over the window grid.
    check: audit, then the convex-position verdict, then the independent
           reachability oracle; refuses without the assume_not_dense
           assertion because necessity claims depend on it.
    reach: trajectory cloud from the window center plus its coverage.
    dist:  steering-cost estimates between two points, both directions,
           plus the extended driftless distance.
    loop:  drifted-loop length estimates over a probe grid, with the
           non-conclusive boundedness summary.

    `overrides` maps the keys the CLI passes (grid_per_axis, leaf_budget,
    n_traj, horizon, seed, budget, endpoint_tol, from_point, to_point) to
    values, None for one not given; any other key is a PipelineUsageError.
    """
    if command not in COMMANDS:
        raise PipelineUsageError(f"unknown command {command!r}")
    # a field undefined at every point fails every command alike, before
    # any kernel runs on it
    for field in spec.drifts + spec.controls:
        for component in field.components:
            check_constant_parts(component)
    overrides = dict(overrides or {})
    spec = _apply_overrides(spec, overrides)
    seed = spec.seed

    payload: dict = {
        "system": _system_echo(spec),
        "hash": "sha256:" + hashlib.sha256(serialize_spec(spec).encode()).hexdigest(),
        "regularity": None,
        "verdict": None,
        "witnesses": [],
        "oracle": None,
        "metrics": None,
        "assumptions": [],
        "seed": seed,
        "version": __version__,
    }
    exit_code = EXIT_OK
    cloud = None

    if command == "audit":
        _, reg = _prepare(spec, None, None, None)
        payload["regularity"] = _regularity_block(reg)
        if not reg.constant_rank:
            exit_code = EXIT_NOT_REGULAR

    elif command == "check":
        if not spec.assume_not_dense:
            raise AssumptionMissingError(
                "check mode decides necessity only under the assumption that "
                "accessible sets are closed or dense; set assume_not_dense = true "
                "in the spec to assert it"
            )
        payload["assumptions"].append(
            "accessible sets assumed closed or dense (asserted by the spec); "
            "necessity of the convex-position condition relies on it"
        )
        gv = global_verdict(spec)
        if gv.regularity is not None:
            payload["regularity"] = _regularity_block(gv.regularity)
        payload["verdict"] = _verdict_block(gv)
        payload["witnesses"] = _witness_block(gv)
        if gv.status == STATUS_NOT_REGULAR:
            exit_code = EXIT_NOT_REGULAR
        else:
            oracle = cross_validate(gv, spec)
            payload["oracle"] = _json_safe(oracle)
            if oracle.get("status") == "DISAGREE":
                exit_code = EXIT_DISAGREE

    elif command == "reach":
        center = np.array([(lo + hi) / 2.0 for lo, hi in spec.window])
        cloud = simulate_reach(spec, center)
        cov = coverage(cloud)
        payload["oracle"] = {
            "mode": "coverage",
            "start": _json_safe(center),
            "n_traj": spec.n_traj,
            "horizon": spec.horizon,
            "points_stored": int(len(cloud.points)),
            "coverage": cov,
        }

    elif command == "dist":
        x = _parse_point(overrides.get("from_point"), spec, "--from")
        y = _parse_point(overrides.get("to_point"), spec, "--to")
        forward, reverse, extended = steering_costs(
            spec, x, y, **_search_kwargs(command, overrides, seed)
        )
        payload["metrics"] = {
            "kind": "steering_cost",
            "from": _json_safe(x),
            "to": _json_safe(y),
            "forward": _estimate_block(forward),
            "reverse": _estimate_block(reverse),
            "extended_driftless": _estimate_block(extended),
        }
        payload["assumptions"].append(
            "metric values are shooting upper bounds, not certificates"
        )

    elif command == "loop":
        kwargs = _search_kwargs(command, overrides, seed)
        per_axis = min(spec.grid_per_axis, 3)
        probes = window_grid(spec.window, per_axis)
        entries = []
        values = []
        for p, est in zip(probes, loop_lengths(spec, probes, **kwargs)):
            entries.append(_estimate_block(est, extra={"at": _json_safe(p)}))
            if est.value is not None:
                values.append(est.value)
        payload["metrics"] = {
            "kind": "loop_lengths",
            "grid_per_axis": per_axis,
            "entries": entries,
            "max_estimate": max(values) if values else None,
            "boundedness_note": (
                "upper-bound estimates only; a bounded maximum here is "
                "suggestive, not conclusive"
            ),
        }
        payload["assumptions"].append(
            "metric values are shooting upper bounds, not certificates"
        )

    return Report(payload=_json_safe(payload), exit_code=exit_code, cloud=cloud)

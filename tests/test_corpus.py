"""Metamorphic relations, and the corpus of specs with known answers.

Each relation maps a spec to the same system written in other
coordinates: y = phi(x), the fields pushed forward by phi and the window
mapped onto its image. `check` at the spec's own grid and seed must then
give the transformed spec the same status, the same count of grid
points where the condition holds, the same oracle status and the same
exit code as the spec itself.

The specs of `tests/corpus/` each get the answer the theory gives them
from `check` at a stated grid and their own seed. A spec that gets a
wrong answer today is a strict expected failure, its reason the
ROADMAP item that fixes it.
"""

from __future__ import annotations

import re
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

from geoctrl.fields import VectorField
from geoctrl.report import run_pipeline
from geoctrl.system import load_spec

SYS_DIR = Path(__file__).resolve().parents[1] / "systems"
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"


def _rewrite(spec, names, components, window):
    """The spec with every variable v of every field component read as
    names[v], the components then passed through `components` and the
    window through `window`."""
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, spec.var_names)) + r")\b")

    def push(V):
        read = [pattern.sub(lambda m: names.get(m[1], m[1]), c) for c in V.component_strings()]
        return VectorField.parse(components(read), spec.var_names)

    return replace(
        spec,
        drifts=tuple(map(push, spec.drifts)),
        controls=tuple(map(push, spec.controls)),
        window=window(list(spec.window)),
    )


def _reversed(spec):
    """y_i = x_(n+1-i): the variables in reverse order."""
    v = spec.var_names
    names = dict(zip(v, reversed(v)))
    return _rewrite(spec, names, lambda c: c[::-1], lambda w: tuple(w[::-1]))


def _first_axis(spec, x1, dy1, axis):
    """y1 = phi(x1), the other variables kept. `x1` writes the old first
    variable in the new one, `dy1` maps the first component to its
    push-forward and `axis` maps the bounds of the first window axis."""
    return _rewrite(
        spec,
        {spec.var_names[0]: x1},
        lambda c: [dy1(c[0])] + c[1:],
        lambda w: (axis(*w[0]), *w[1:]),
    )


def _translated(spec):
    """y1 = x1 + 3."""
    y1 = spec.var_names[0]
    return _first_axis(spec, f"({y1} - 3)", lambda c: c, lambda lo, hi: (lo + 3, hi + 3))


def _mirrored(spec):
    """y1 = -x1."""
    y1 = spec.var_names[0]
    return _first_axis(spec, f"(0 - {y1})", lambda c: f"0 - ({c})", lambda lo, hi: (-hi, -lo))


def _stretched(spec):
    """y1 = 3 x1, the window stretched with it."""
    y1 = spec.var_names[0]
    return _first_axis(
        spec, f"({y1} / 3)", lambda c: f"3 * ({c})", lambda lo, hi: (3 * lo, 3 * hi)
    )


RELATIONS = {
    "reversed": _reversed,
    "translated": _translated,
    "mirrored": _mirrored,
    "stretched": _stretched,
}
SYSTEMS = ("planar_shear", "unicycle", "planar_forward", "saddle3d")


def _answers(spec):
    """What `check` at the spec's own grid and seed says."""
    rep = run_pipeline(spec, "check")
    verdict = rep.payload["verdict"]
    return {
        "status": verdict["status"],
        "condition_holds_at": verdict["condition_holds_at"],
        "oracle": rep.payload["oracle"]["status"],
        "exit_code": rep.exit_code,
    }


@lru_cache(maxsize=None)
def _own_answers(name):
    return _answers(load_spec(SYS_DIR / f"{name}.sys"))


def test_the_relations_are_coordinate_changes():
    spec = load_spec(SYS_DIR / "saddle3d.sys")
    x = (0.5, -1.0, 1.5)
    f = spec.drifts[0](x)
    # each relation's y = phi(x) and its derivative, applied to f at x
    pushed = {
        "reversed": ((1.5, -1.0, 0.5), f[::-1]),
        "translated": ((3.5, -1.0, 1.5), f),
        "mirrored": ((-0.5, -1.0, 1.5), f * (-1, 1, 1)),
        "stretched": ((1.5, -1.0, 1.5), f * (3, 1, 1)),
    }
    for name, relation in RELATIONS.items():
        moved = relation(spec)
        y, want = pushed[name]
        assert list(moved.drifts[0](y)) == pytest.approx(list(want), abs=1e-12), name
    assert _stretched(spec).window[0] == (-6.0, 6.0)
    assert _mirrored(spec).window[0] == (-2.0, 2.0)
    assert _translated(spec).window[0] == (1.0, 5.0)


@pytest.mark.parametrize("relation", sorted(RELATIONS))
@pytest.mark.parametrize("name", SYSTEMS)
def test_a_change_of_coordinates_keeps_every_answer(name, relation):
    spec = load_spec(SYS_DIR / f"{name}.sys")
    assert _answers(RELATIONS[relation](spec)) == _own_answers(name)


# Shooting under a rewrite that leaves the system unchanged (ROADMAP item
# 12): with u unbounded, g -> c * g is the same system, so whether `dist`
# finds each estimate and how many points `loop` closes should not move.
# A cost legitimately scales as 1/c; shooting draws its amplitudes and
# durations in absolute units, so where it does not keep an answer the
# relation is a strict expected failure.
ITEM_12 = "ROADMAP item 12: shooting draws amplitudes in absolute units"


def _scaled_controls(spec, c):
    """Every control field times c."""
    return replace(
        spec,
        controls=tuple(
            VectorField.parse([f"{c} * ({s})" for s in V.component_strings()], spec.var_names)
            for V in spec.controls
        ),
    )


def _steering_answers(spec, command):
    """At seed 0: which `dist` estimates between two fixed window points
    have a value, or how many points `loop --grid 2` closes."""
    if command == "dist":
        lo = [a for a, _ in spec.window]
        hi = [b for _, b in spec.window]
        ends = {
            "from_point": [a + 0.3 * (b - a) for a, b in zip(lo, hi)],
            "to_point": [a + 0.6 * (b - a) for a, b in zip(lo, hi)],
        }
        m = run_pipeline(spec, "dist", {"seed": 0, **ends}).payload["metrics"]
        return [m[k]["value"] is not None for k in ("forward", "reverse", "extended_driftless")]
    m = run_pipeline(spec, "loop", {"seed": 0, "grid_per_axis": 2}).payload["metrics"]
    return sum(e["value"] is not None for e in m["entries"])


@lru_cache(maxsize=None)
def _own_steering(command):
    return _steering_answers(load_spec(SYS_DIR / "planar_shear.sys"), command)


@pytest.mark.parametrize(
    "command,scale",
    [
        # at x0.1 the drifted and extended searches find estimates that the
        # spec's own searches miss
        pytest.param("dist", 0.1, marks=pytest.mark.xfail(strict=True, reason=ITEM_12)),
        ("dist", 10),
        ("loop", 0.1),
        ("loop", 10),
    ],
)
def test_scaling_the_controls_keeps_what_shooting_finds(command, scale):
    spec = _scaled_controls(load_spec(SYS_DIR / "planar_shear.sys"), scale)
    assert _steering_answers(spec, command) == _own_steering(command)


CERTIFIED = "CONTROLLABLE_CERTIFIED"
EVIDENCE = "UNCONTROLLABLE_EVIDENCE"
ITEM_4 = "ROADMAP item 4: certificates hold at grid points, not over the window"
ITEM_13 = "ROADMAP item 13: regularity is checked at grid points, not over the window"


def _corpus_answers(name, grid):
    """What `check` says of a corpus spec at the grid (its own where None)."""
    spec = load_spec(CORPUS_DIR / f"{name}.sys")
    rep = run_pipeline(spec, "check", {"grid_per_axis": grid})
    status = rep.payload["verdict"]["status"] if "verdict" in rep.payload else None
    oracle = rep.payload.get("oracle", {})
    return {
        "status": status,
        "certified": status == CERTIFIED,
        "oracle": oracle.get("status"),
        "exact": oracle.get("exact"),
        "exit_code": rep.exit_code,
    }


@pytest.mark.parametrize(
    "name,grid,want",
    [
        # a non-constant control: the framed ODE walks end to end
        ("wavy", 3, {"status": CERTIFIED, "oracle": "AGREE", "exit_code": 0}),
        (
            "wavy_up",
            3,
            {"status": EVIDENCE, "oracle": "AGREE", "exit_code": 0, "exact": False},
        ),
        # today CERTIFIED, DISAGREE and exit 2: the band falls between
        # two grid columns
        pytest.param(
            "band", 11, {"certified": False}, marks=pytest.mark.xfail(strict=True, reason=ITEM_4)
        ),
        # today exit 2: the rank drop at x1 = 0.13 falls between grid points
        pytest.param(
            "notch", None, {"exit_code": 3}, marks=pytest.mark.xfail(strict=True, reason=ITEM_13)
        ),
    ],
)
def test_a_corpus_spec_gets_its_answer(name, grid, want):
    got = _corpus_answers(name, grid)
    assert {key: got[key] for key in want} == want

"""Print a sha256 digest of every report of a fixed set of geoctrl runs.

    python3 tools/report_digests.py [--root CHECKOUT]

One line per run, tab-separated: command, system, seed, exit code, the
sha256 of the report's JSON bytes and, for `reach`, of the cloud bytes.
The runs are `audit`, `check --grid 2`, `reach`, `dist` between two fixed
points of the window and `loop --grid 2` on every `systems/*.sys`, plus
two `verify` runs of unicycle_offset at grid 3 (the candidate
S = (0, 1, 0), which is accepted, and S = (0, x3, 0), which is not), each
at seeds 0, 3 and 7, and `check` at each spec's own grid at seed 0.
Then come `dist` from the first of those points to itself and `loop` at
each spec's own grid, on every system at seeds 0, 3 and 7. Last come the
leaf walks `check` draws (`sample_leaves` at every point of the grid-3
window grid, with the spec's leaf budget, walk duration and step control,
each point from the seed `check` gives it), digested over every visit's
point and word and every leaf's discard count, on every system at seeds
0, 3 and 7: a `check` report shows only the walks up to the one that
closes a hull, these lines show them all. Last of all come the verdicts
(`global_verdict` at grid 2 and at the spec's own grid), digested over
every point's `condition_holds`, `samples_used` and `error`, on every
system at seeds 0, 3 and 7: a change that moves report bytes but keeps
these lines keeps every verdict. After them come the
oracle runs (`cross_validate` under a stand-in CONTROLLABLE verdict, so
all 10 coverage runs at the spec's own trajectory count and horizon),
digested over the whole oracle report, on every system at seeds 0, 3
and 7: `check` reaches coverage mode on the certified systems only.
Last of all come the ops of the benchmark's `steer` workload
(`perfbench/workloads.py`: `dist` of planar_shear and unicycle between
the endpoints drawn from the seed, `loop` of planar_shear and
`loop --grid 2` of unicycle) and then those of its `refute` workload
(`check planar_forward --grid 2`, `check unicycle_offset --grid 2` and
the two `verify` runs above), each at seeds 1 to 12, the seeds its runs
use. After everything else come the oracle runs, as above, and then
the `reach` runs of two specs written out in this script, at seeds 0, 3
and 7: `wavy` (drift = 0, x1 and the non-constant control
1, 0.1*sin(x1)) and `mixed3d` (a non-constant control ahead of a
constant one), since every bundled system's controls are constant. An
oracle line sees coverage fractions only; a `reach` line sees every bit
of the cloud. After them come `audit` and the verdicts at grid 3 of
the same two specs, at seeds 0, 3 and 7: the lines that see the bracket
family, the regularity audit and the per-point frames of a
non-constant control family. After those come the ops of the benchmark's
`certify` workload (`check planar_shear --grid 3`, `check saddle3d --grid
2` and `reach unicycle`), each at seeds 1 to 12: the one workload whose
failed ops turn with the seed (saddle3d's oracle reads AGREE at seed 8
alone). After those come the `found` lines: the ops of the `steer`
workload again, each at seeds 1 to 12, each line naming the estimates
that have a value (for `dist`, which of forward, reverse and
extended_driftless; for `loop`, how many grid points of how many, and
which, by index) in plain text, so that a change to shooting shows how
its answers moved in one diff. Each group of lines was appended after
all the lines before it, so the lines before a group are those of a
run that lacks it.

The first line is a header: numpy's version and the CPU features its
dispatcher enabled. numpy's vectorized math may round the last bit of
some results differently on another instruction set, so compare two
digest files only when their headers match.

geoctrl and the specs are taken from CHECKOUT (default: this script's
checkout), so two checkouts compare with one diff:

    python3 tools/report_digests.py --root A > a.txt
    python3 tools/report_digests.py --root B > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import sys
from pathlib import Path

import numpy as np

SEEDS = (0, 3, 7)
BENCH_SEEDS = tuple(range(1, 13))
VERIFY_CANDIDATES = (("0", "1", "0"), ("0", "x3", "0"))
# specs with non-constant controls for the last oracle and reach lines,
# written here and not read from the checkout, so that every checkout
# runs the same ones
INLINE_SPECS = {
    # at the default horizon every coverage run reads 1.0
    "wavy": """vars = x1, x2
drift = 0, x1
control = 1, 0.1*sin(x1)
window = -2:2, -2:2
horizon = 3
""",
    "mixed3d": """vars = x1, x2, x3
drift = x2, 0 - x1, sin(x1)
control = cos(x3), sin(x3), 0.5*x1
control = 0, 1, 0.3
window = -2:2, -2:2, -3.141592653589793:3.141592653589793
""",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _plain(obj):
    return obj.item() if hasattr(obj, "item") else str(obj)


def _verify_command(candidate) -> str:
    return "verify S=(" + ",".join(candidate) + ")"


def _header() -> str:
    """numpy's version and the CPU features its dispatcher enabled."""
    from numpy._core._multiarray_umath import __cpu_features__

    enabled = [name for name, on in __cpu_features__.items() if on]
    return f"# numpy {np.__version__}\tcpu features: {' '.join(enabled)}"


def _runs(systems: list[str], workload):
    """(command, system, seed, grid, dist endpoints) of every run, in print
    order; `workload(name, seed)` gives that benchmark workload's ops."""
    for seed in SEEDS:
        for name in systems:
            yield "audit", name, seed, None, None
            yield "check", name, seed, 2, None
            yield "reach", name, seed, None, None
            yield "dist", name, seed, None, None
            yield "loop", name, seed, 2, None
        for cand in VERIFY_CANDIDATES:
            yield _verify_command(cand), "unicycle_offset", seed, 3, None
    for name in systems:
        yield "check", name, SEEDS[0], None, None
    for seed in SEEDS:
        for name in systems:
            yield "dist --to = --from", name, seed, None, None
            yield "loop", name, seed, None, None
    for seed in SEEDS:
        for name in systems:
            yield "walks", name, seed, 3, None
    for seed in SEEDS:
        for name in systems:
            yield "verdict", name, seed, 2, None
            yield "verdict", name, seed, None, None
    for seed in SEEDS:
        for name in systems:
            yield "oracle", name, seed, None, None
    for name in ("steer", "refute"):
        for seed in BENCH_SEEDS:
            for op in workload(name, seed):
                command = op.kind if op.candidate is None else _verify_command(op.candidate)
                yield command, op.system, seed, op.grid, op.points
    for command in ("oracle", "reach"):
        for seed in SEEDS:
            for name in INLINE_SPECS:
                yield command, name, seed, None, None
    for command, grid in (("audit", None), ("verdict", 3)):
        for seed in SEEDS:
            for name in INLINE_SPECS:
                yield command, name, seed, grid, None
    for seed in BENCH_SEEDS:
        for op in workload("certify", seed):
            yield op.kind, op.system, seed, op.grid, op.points
    for seed in BENCH_SEEDS:
        for op in workload("steer", seed):
            yield "found " + op.kind, op.system, seed, op.grid, op.points


def _walk_digest(spec, seed: int, grid: int) -> str:
    """sha256 of the leaf samples `check` draws on a grid of `grid` per axis."""
    criterion = importlib.import_module("geoctrl.criterion")
    lie = importlib.import_module("geoctrl.lie")
    family, _ = criterion._prepare(spec, None, None, grid)
    points = lie.window_grid(spec.window, grid)
    children = np.random.SeedSequence(seed).spawn(len(points))
    leaves = criterion.sample_leaves(
        family,
        points,
        spec.leaf_budget,
        spec.walk_duration(),
        [int(c.generate_state(1, np.uint64)[0]) for c in children],
        criterion._step_control(spec),
    )
    h = hashlib.sha256()
    for leaf in leaves:
        h.update(leaf.base.tobytes())
        for y, word in leaf.visits:
            h.update(y.tobytes())
            h.update(repr([(s.field_index, s.sign, s.duration) for s in word]).encode())
        h.update(str(leaf.discarded).encode())
    return h.hexdigest()


def _verdict_digest(g, spec, seed: int, grid: int | None) -> str:
    """sha256 of what every point of `global_verdict` decided."""
    verdict = g.global_verdict(spec, grid_per_axis=grid, seed=seed)
    points = [(p.condition_holds, p.samples_used, p.error) for p in verdict.points]
    return _sha(repr((verdict.status, points)).encode())


def _found(payload) -> str:
    """The estimates of a `dist` or `loop` report that have a value."""
    m = payload["metrics"]
    if m["kind"] == "steering_cost":
        names = ("forward", "reverse", "extended_driftless")
        return ",".join(k for k in names if m[k]["value"] is not None) or "none"
    found = [str(i) for i, e in enumerate(m["entries"]) if e["value"] is not None]
    return f"{len(found)}/{len(m['entries'])} " + (",".join(found) or "none")


def _digest(g, spec, command: str, seed: int, grid: int | None, points) -> tuple[str, str]:
    """(exit code, digests) of one run; `points` are given `dist` endpoints."""
    if command == "walks":
        return "-", _walk_digest(spec, seed, grid)
    if command == "verdict":
        return "-", _verdict_digest(g, spec, seed, grid)
    if command == "oracle":
        stand_in = g.GlobalVerdict(
            status="CONTROLLABLE_CERTIFIED", points=(), assumptions={}, regularity=None
        )
        oracle = g.cross_validate(stand_in, spec, seed=seed)
        return "-", _sha(json.dumps(oracle, default=_plain).encode())
    if command.startswith("verify"):
        cand = command[len("verify S=(") : -1].split(",")
        S = [g.VectorField.parse(cand, spec.var_names)]
        rep = g.verify_supporting_distribution(spec, S, grid_per_axis=grid, seed=seed)
        text = json.dumps(dataclasses.asdict(rep), indent=2, default=_plain) + "\n"
        return "-", _sha(text.encode())
    overrides: dict = {"seed": seed}
    if grid:
        overrides["grid_per_axis"] = grid
    found = command.startswith("found")
    if found:
        command = command.split()[1]
    if command.startswith("dist"):
        lo = [a for a, _ in spec.window]
        hi = [b for _, b in spec.window]
        overrides["from_point"] = [a + 0.3 * (b - a) for a, b in zip(lo, hi)]
        overrides["to_point"] = [a + 0.6 * (b - a) for a, b in zip(lo, hi)]
        if command.endswith("= --from"):
            overrides["to_point"] = overrides["from_point"]
        if points is not None:
            overrides["from_point"], overrides["to_point"] = map(list, points)
    rep = g.run_pipeline(spec, command.split()[0], overrides)
    if found:
        return str(rep.exit_code), _found(rep.payload)
    out = _sha(rep.to_json().encode())
    if rep.cloud is not None:
        c = rep.cloud
        out += "\t" + _sha(c.points.tobytes() + c.traj_ids.tobytes() + c.times.tobytes())
    return str(rep.exit_code), out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]))
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "perfbench"))
    g = importlib.import_module("geoctrl")
    workloads = importlib.import_module("workloads")
    systems = sorted(p.stem for p in (root / "systems").glob("*.sys"))

    def load(name: str):
        if name in INLINE_SPECS:
            return importlib.import_module("geoctrl.system").loads_spec(INLINE_SPECS[name], name)
        return g.load_spec(root / "systems" / f"{name}.sys")

    def workload(name: str, seed: int):
        return workloads.WORKLOADS[name](seed, load)

    print(_header(), flush=True)
    for command, name, seed, grid, points in _runs(systems, workload):
        spec = load(name)
        label = command if grid is None else f"{command} --grid {grid}"
        if points is not None:
            label += " --from {} --to {}".format(*(",".join(map(repr, p)) for p in points))
        try:
            code, digest = _digest(g, spec, command, seed, grid, points)
        except Exception as exc:  # a run that raises prints its error
            code, digest = "error", f"{type(exc).__name__}: {exc}"
        print(f"{label}\t{name}\t{seed}\t{code}\t{digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

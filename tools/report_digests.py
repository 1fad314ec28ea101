"""Print a sha256 digest of every report of a fixed set of geoctrl runs.

    python3 tools/report_digests.py [--root CHECKOUT]

One line per run, tab-separated: command, system, seed, exit code, the
sha256 of the report's JSON bytes and, for `reach`, of the cloud bytes.
The runs are `audit`, `check --grid 2`, `reach`, `dist` between two fixed
points of the window and `loop --grid 2` on every `systems/*.sys`, plus
two `verify` runs of unicycle_offset at grid 3 (the candidate
S = (0, 1, 0), which is accepted, and S = (0, x3, 0), which is not), each
at seeds 0, 3 and 7, and `check` at each spec's own grid at seed 0.
Last come `dist` from the first of those points to itself and `loop` at
each spec's own grid, on every system at seeds 0, 3 and 7.

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

SEEDS = (0, 3, 7)
VERIFY_CANDIDATES = (("0", "1", "0"), ("0", "x3", "0"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _plain(obj):
    return obj.item() if hasattr(obj, "item") else str(obj)


def _runs(systems: list[str]):
    """(command, system, seed, grid) of every run, in print order."""
    for seed in SEEDS:
        for name in systems:
            yield "audit", name, seed, None
            yield "check", name, seed, 2
            yield "reach", name, seed, None
            yield "dist", name, seed, None
            yield "loop", name, seed, 2
        for cand in VERIFY_CANDIDATES:
            yield "verify S=(" + ",".join(cand) + ")", "unicycle_offset", seed, 3
    for name in systems:
        yield "check", name, SEEDS[0], None
    for seed in SEEDS:
        for name in systems:
            yield "dist --to = --from", name, seed, None
            yield "loop", name, seed, None


def _digest(g, spec, command: str, seed: int, grid: int | None) -> tuple[str, str]:
    """(exit code, digests) of one run."""
    if command.startswith("verify"):
        cand = command[len("verify S=(") : -1].split(",")
        S = [g.VectorField.parse(cand, spec.var_names)]
        rep = g.verify_supporting_distribution(spec, S, grid_per_axis=grid, seed=seed)
        text = json.dumps(dataclasses.asdict(rep), indent=2, default=_plain) + "\n"
        return "-", _sha(text.encode())
    overrides: dict = {"seed": seed}
    if grid:
        overrides["grid_per_axis"] = grid
    if command.startswith("dist"):
        lo = [a for a, _ in spec.window]
        hi = [b for _, b in spec.window]
        overrides["from_point"] = [a + 0.3 * (b - a) for a, b in zip(lo, hi)]
        overrides["to_point"] = [a + 0.6 * (b - a) for a, b in zip(lo, hi)]
        if command.endswith("= --from"):
            overrides["to_point"] = overrides["from_point"]
    rep = g.run_pipeline(spec, command.split()[0], overrides)
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
    g = importlib.import_module("geoctrl")
    systems = sorted(p.stem for p in (root / "systems").glob("*.sys"))
    for command, name, seed, grid in _runs(systems):
        spec = g.load_spec(root / "systems" / f"{name}.sys")
        label = command if grid is None else f"{command} --grid {grid}"
        try:
            code, digest = _digest(g, spec, command, seed, grid)
        except Exception as exc:  # a run that raises prints its error
            code, digest = "error", f"{type(exc).__name__}: {exc}"
        print(f"{label}\t{name}\t{seed}\t{code}\t{digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

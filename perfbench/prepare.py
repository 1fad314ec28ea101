"""Set-up of a benchmark run: import geoctrl from the checkout's sources and
parse the specs of the workload's ops.

Run as a script it does exactly that, samples the speed probe (speed.py),
prints the sample as JSON and exits, so that run.py can time set-up in a
fresh interpreter:

    python3 perfbench/prepare.py <workload> <seed>
"""

from __future__ import annotations

import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SYSTEMS = ROOT / "systems"


class MissingSources(RuntimeError):
    """The checkout does not hold geoctrl's sources and bundled systems."""


def prepare(workload: str, seed: int):
    """Return (geoctrl package, ops, {system name: SystemSpec})."""
    if not (SRC / "geoctrl" / "__init__.py").is_file() or not SYSTEMS.is_dir():
        raise MissingSources(f"no geoctrl sources under {SRC} or systems under {SYSTEMS}")
    sys.path.insert(0, str(SRC))
    import geoctrl

    if Path(geoctrl.__file__).resolve().parent != (SRC / "geoctrl").resolve():
        raise MissingSources(f"geoctrl was imported from {geoctrl.__file__}, not {SRC}")
    specs = {}

    def load(name):
        if name not in specs:
            specs[name] = geoctrl.load_spec(SYSTEMS / f"{name}.sys")
        return specs[name]

    ops = WORKLOADS[workload](seed, load)
    for op in ops:
        load(op.system)
    return geoctrl, ops, specs


if __name__ == "__main__":
    import json

    from speed import rate_now

    # probe before and after, so the samples bracket geoctrl's import and
    # the spec parsing (numpy is already imported by then)
    rate0, spent0 = rate_now(10)
    prepare(sys.argv[1], int(sys.argv[2]))
    rate1, spent1 = rate_now(10)
    print(json.dumps({"rate": (rate0 + rate1) / 2, "probe_s": spent0 + spent1}))

"""Median, quartiles and spread of each metric over the recorded runs.

    python3 perfbench/summarize.py [--json perfbench/baseline.json]

Reads the run records in perfbench/out/ (one per workload, seed and trace
mode). For every untraced metric it prints the median over seeds, the first
and third quartiles (statistics.quantiles, n=4) and the spread, which is
the distance between the quartiles as a share of the median. Traced
per-layer metrics are summarised the same way.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "spread": spread}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--json", help="also write the summary to this file")
    args = ap.parse_args()
    table: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(OUT.glob("*-trace*.json")):
        rec = json.loads(path.read_text())
        key = rec["workload"] + (" (traced)" if rec["trace"] else "")
        metrics = rec["per_layer"] if rec["trace"] else {**rec["end_to_end"], **rec["extra"]}
        for name, value in metrics.items():
            table[key][name].append(value)
    summary = {w: {m: summarize(v) for m, v in ms.items()} for w, ms in table.items()}
    for w, ms in summary.items():
        print(w)
        for m, s in ms.items():
            print(
                f"  {m:32s} n={s['n']:2d} median {s['median']:12.6g}  "
                f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:.4f}"
            )
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()

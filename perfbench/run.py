"""geoctrl benchmark: closed-loop workloads through the public API.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. One client runs the workload's ops one
after another (closed loop) in this process, in passes, until the next
pass would end after --seconds; at least one pass runs. Every pass repeats
the same ops under the same seed, and every op's report bytes must repeat.
Every output is checked after the timed passes (checks.py). Timings are
medians over passes, with the sample count printed; the declared ones are
rescaled to a reference machine speed (speed.py).

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs
one untraced pass and two traced passes (tracing.py) and prints the
per-layer metrics; the work counts of the two traced passes must match.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when the
run is correct. Spans and a full record of the run go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from statistics import median
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import judge, self_test, sha256  # noqa: E402
from prepare import ROOT, SYSTEMS, MissingSources, prepare  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracing import Tracer, kernel_microbench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
OUT = HERE / "out"


def _plain(obj):
    return obj.item() if hasattr(obj, "item") else str(obj)


def run_op(g, op, seed: int, tracer: Tracer | None, speedo: Speedometer) -> dict:
    """One op, timed from load_spec to the report's bytes."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    res: dict = {"error": None, "cloud": None}
    start = speedo.mark()
    t0 = time.perf_counter()
    try:
        with span("report.op"):
            with span("system.load_spec"):
                spec = g.load_spec(SYSTEMS / f"{op.system}.sys")
            if op.kind == "verify":
                cand = [g.VectorField.parse(op.candidate, spec.var_names)]
                with span("criterion.verify_supporting_distribution"):
                    rep = g.verify_supporting_distribution(
                        spec, cand, grid_per_axis=op.grid, seed=seed
                    )
                with span("report.to_json"):
                    text = json.dumps(dataclasses.asdict(rep), indent=2, default=_plain) + "\n"
                res["support"] = {"accepted": rep.accepted, "failed_clause": rep.failed_clause}
            else:
                overrides = {"seed": seed, "grid_per_axis": op.grid}
                if op.points is not None:
                    overrides["from_point"] = list(op.points[0])
                    overrides["to_point"] = list(op.points[1])
                with span("report.run_pipeline"):
                    rep = g.run_pipeline(spec, op.kind, overrides)
                with span("report.to_json"):
                    text = rep.to_json()
                res.update(payload=rep.payload, exit_code=rep.exit_code, cloud=rep.cloud)
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        res["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
        text = ""
    res["seconds"], res["ref_seconds"] = speedo.settle(time.perf_counter() - t0, start)
    res["sha256"] = sha256(text) if text else None
    digest = text
    if res["cloud"] is not None:
        c = res["cloud"]
        digest += sha256(c.points.tobytes() + c.traj_ids.tobytes() + c.times.tobytes())
    res["digest"] = sha256(digest)
    return res


def run_pass(g, ops, seed: int, tracer: Tracer | None) -> dict:
    """One pass over the ops, with the speed probe sampling throughout."""
    with Speedometer() as speedo:
        if tracer is None:
            results = [run_op(g, op, seed, None, speedo) for op in ops]
        else:
            results = []
            tracer.install()
            try:
                for i, op in enumerate(ops):
                    tracer.op_id = i
                    results.append(run_op(g, op, seed, tracer, speedo))
            finally:
                tracer.uninstall()
    return {
        "results": results,
        "wall_s": sum(r["seconds"] for r in results),
        "ref_s": sum(r["ref_seconds"] for r in results),
        "traced": tracer is not None,
    }


def time_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up in a fresh interpreter, several times: import plus spec parsing.

    Returns wall seconds and reference-speed seconds; the child samples the
    speed probe around its set-up and reports it, and its probing time is
    not counted.
    """
    wall, ref = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), workload, str(seed)],
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        seconds = time.perf_counter() - t0
        speed = json.loads(out.splitlines()[-1])
        wall.append(seconds - speed["probe_s"])
        ref.append(wall[-1] * speed["rate"])
    return wall, ref


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0 (it becomes the spec seed)")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    try:
        g, ops, specs = prepare(args.workload, args.seed)
    except MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_wall, setup = time_setup(args.workload, args.seed)

    passes = []
    tracers = []
    start = time.perf_counter()
    if args.trace:
        passes.append(run_pass(g, ops, args.seed, None))
        for _ in range(2):
            tracers.append(Tracer(g))
            passes.append(run_pass(g, ops, args.seed, tracers[-1]))
    else:
        while True:
            passes.append(run_pass(g, ops, args.seed, None))
            last = passes[-1]["wall_s"]
            if time.perf_counter() - start + last > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks, outside the timed region ------------------------------------
    results = [p["results"] for p in passes]
    verdict = judge(ops, results)
    failures = verdict["failures"]
    problems = [f"pass {i + 1}: {label}: {why}" for i, label, why, known in failures if not known]
    tried, missed = self_test(ops, results)
    problems += [f"self-test: a {m} went unflagged" for m in missed]
    if tracers:
        c1, c2 = (t.work_counts() for t in tracers)
        if c1 != c2:
            diff = sorted(k for k in set(c1) | set(c2) if c1.get(k) != c2.get(k))
            problems.append(f"work counts differ between traced passes: {diff}")
    attempted = len(ops) * len(passes)
    failed = len(failures)

    # -- metrics ---------------------------------------------------------------
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    e2e = {
        "pass_ref_s": median([p["ref_s"] for p in untraced]),
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    by_kind = {}
    for kind in dict.fromkeys(op.kind for op in ops):
        per_pass = [
            sum(r["seconds"] for op, r in zip(ops, p["results"]) if op.kind == kind)
            for p in untraced
        ]
        by_kind[f"{kind}_s"] = median(per_pass)
    extra = {"wall_s": median([p["wall_s"] for p in untraced]), "setup_wall_s": median(setup_wall)}
    extra.update(by_kind)
    extra["ops_failed_ratio"] = failed / attempted
    if verdict["requested"]:
        extra["found_ratio"] = verdict["found"] / verdict["requested"]

    layer = {}
    if traced:
        per_pass = [t.layer_metrics() for t in tracers]
        for key in per_pass[0]:
            layer[key] = median([m[key] for m in per_pass])
        layer.update(kernel_microbench(list(specs.values())))
        layer["trace.overhead_s"] = median([p["ref_s"] for p in traced]) - e2e["pass_ref_s"]
        OUT.mkdir(exist_ok=True)
        for k, t in enumerate(tracers, start=1):
            t.dump(OUT / f"spans-{args.workload}-seed{args.seed}-traced{k}.jsonl")

    # -- report ------------------------------------------------------------------
    n_u, n_t = len(untraced), len(traced)
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, {len(ops)} ops/pass")
    print(f"passes: {n_u} untraced, {n_t} traced")
    for j, op in enumerate(ops):
        secs = [p["results"][j]["seconds"] for p in untraced]
        first = passes[0]["results"][j]
        print(
            f"  {op.label:60s} {median(secs):8.3f} s (median of {len(secs)})  "
            f"sha256 {first['sha256']}"
        )
    print("end-to-end (tracing off; *_ref_s and setup_s at the probe's reference speed):")
    units = {"peak_rss_mb": "MB"}
    counts = {"setup_s": len(setup), "setup_wall_s": len(setup), "peak_rss_mb": 1}
    for k, v in {**e2e, **extra}.items():
        if k.endswith("_ratio"):
            continue
        print(f"  {k:18s} {v:12.4f} {units.get(k, 's'):6s} median of {counts.get(k, n_u)}")
    print(f"  {'ops_failed_ratio':18s} {extra['ops_failed_ratio']:12.4f} ratio  {failed}/{attempted} ops")
    if "found_ratio" in extra:
        print(
            f"  {'found_ratio':18s} {extra['found_ratio']:12.4f} ratio  "
            f"{verdict['found']}/{verdict['requested']} estimates"
        )
    for i, label, why, known in failures:
        tag = "known defect" if known else "FAILED"
        print(f"  {tag}: pass {i + 1}: {label}: {why}")
    print(f"self-test: {len(tried) - len(missed)}/{len(tried)} corruptions flagged ({', '.join(tried)})")
    if layer:
        self_sum = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        print(f"per-layer (median of {n_t} traced passes):")
        for k, v in layer.items():
            print(f"  {k:32s} {v:14.6g}")
        print(
            f"  self times sum to {self_sum:.4f} s of traced wall {layer['trace.wall_s']:.4f} s"
        )
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    section = "per_layer" if args.trace else "end_to_end"
    available = {**layer} if args.trace else {**e2e, **extra}
    metrics = {}
    for m in declared[section]:
        if m["name"] not in available:
            raise KeyError(f"BENCHMARK.json declares {m['name']}, which this run did not measure")
        metrics[m["name"]] = {"value": float(available[m["name"]]), "unit": m["unit"]}

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s_samples": setup,
        "setup_wall_s_samples": setup_wall,
        "ops": [
            {
                "op": op.label,
                "seconds": [p["results"][j]["seconds"] for p in passes],
                "ref_seconds": [p["results"][j]["ref_seconds"] for p in passes],
                "sha256": [p["results"][j]["sha256"] for p in passes],
            }
            for j, op in enumerate(ops)
        ],
        "passes": [
            {"wall_s": p["wall_s"], "ref_s": p["ref_s"], "traced": p["traced"]} for p in passes
        ],
        "failures": [
            {"pass": i + 1, "op": label, "reason": why, "known_defect": known}
            for i, label, why, known in failures
        ],
        "self_test": {"tried": tried, "missed": missed},
        "problems": problems,
        "end_to_end": e2e,
        "extra": extra,
        "per_layer": layer,
        "work_counts": tracers[0].work_counts() if tracers else None,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=_plain) + "\n"
    )
    correct = not problems
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

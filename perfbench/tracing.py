"""Spans and work counts around geoctrl's public calls, for the traced pass.

Wrappers are installed at the attribute each caller resolves (the name a
module imported with `from .x import f` lives in the importing module), so
they see every call that the untraced run makes and change no result.

A span records name, start, end, parent span and op id. Spans stay in
memory and are written out when the run ends. A span's self time is
its duration minus the time its child spans cover. Counts are read from the
public objects the wrapped calls return, and from the compiled kernels of
`VectorField`, which are counted but not spanned (there are ~10^5 calls).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (module attribute, span name); several attributes can share a span name
# when two modules import the same function
WRAPPED = (
    ("report.global_verdict", "criterion.global_verdict"),
    ("report.cross_validate", "reach.cross_validate"),
    ("report.simulate_reach", "reach.simulate_reach"),
    ("report.coverage", "reach.coverage"),
    ("report.estimate_cost", "metrics.estimate_cost"),
    ("report.sr_distance", "metrics.sr_distance"),
    ("report.loop_length", "metrics.loop_length"),
    ("criterion.sample_leaf", "flows.sample_leaf"),
    ("criterion.interior_convex_test", "criterion.interior_convex_test"),
    ("criterion.quotient_projection", "criterion.quotient_projection"),
    ("criterion.sign_change_on_leaf", "criterion.sign_change_on_leaf"),
    ("criterion.audit_regularity", "lie.audit_regularity"),
    ("criterion.generate_bracket_basis", "lie.generate_bracket_basis"),
    ("reach.simulate_reach", "reach.simulate_reach"),
    ("reach.coverage", "reach.coverage"),
)

LAYERS = ("system", "lie", "flows", "criterion", "reach", "metrics", "report")


class Tracer:
    """Records spans and counts while installed; restores geoctrl on uninstall."""

    def __init__(self, geoctrl_pkg):
        self.pkg = geoctrl_pkg
        self.spans: list[list] = []  # [name, start, end, parent, op_id]
        self.stack: list[int] = []
        self.op_id: int | None = None
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        rec = [name, time.perf_counter(), None, parent, self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name: str, fn):
        on_result = _RESULT_HOOKS.get(name)
        sig = inspect.signature(fn) if name == "flows.sample_leaf" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                bound = sig.bind(*args, **kwargs) if sig is not None else None
                on_result(self, out, bound)
            return out

        return wrapper

    # -- install / uninstall -------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import importlib

        for target, name in WRAPPED:
            mod_name, attr = target.split(".")
            mod = importlib.import_module(f"{self.pkg.__name__}.{mod_name}")
            self._patch(mod, attr, self._wrap(name, getattr(mod, attr)))
        VF = self.pkg.VectorField
        counts = self.counts
        orig_compiled, orig_jac, orig_call = VF.compiled, VF.compiled_jacobian, VF.__call__

        def compiled(field):
            fn = orig_compiled(field)
            n = field.dim

            def kernel(X):
                counts["fields.rhs_calls"] += 1
                counts["fields.rhs_rows"] += np.size(X) // n
                return fn(X)

            return kernel

        def compiled_jacobian(field):
            fn = orig_jac(field)

            def kernel(X):
                counts["fields.jac_calls"] += 1
                return fn(X)

            return kernel

        def tree_call(field, p):
            counts["fields.tree_calls"] += 1
            return orig_call(field, p)

        self._patch(VF, "compiled", compiled)
        self._patch(VF, "compiled_jacobian", compiled_jacobian)
        self._patch(VF, "__call__", tree_call)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- results -------------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op_id}
                    )
                    + "\n"
                )

    def span_totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed duration, summed self time, call count."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        dur: dict = defaultdict(float)
        self_t: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            dur[name] += end - start
            self_t[name] += end - start - child_time[i]
            calls[name] += 1
        return dur, self_t, calls

    def work_counts(self) -> dict:
        """Every count that must repeat exactly for the same seed."""
        _, _, calls = self.span_totals()
        out = {f"calls.{k}": v for k, v in calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def layer_metrics(self) -> dict:
        dur, self_t, calls = self.span_totals()
        c = self.counts
        m = {
            "fields.rhs_calls": c["fields.rhs_calls"],
            "fields.rhs_rows": c["fields.rhs_rows"],
            "fields.jac_calls": c["fields.jac_calls"],
            "fields.tree_calls": c["fields.tree_calls"],
            "flows.sample_leaf_s": dur["flows.sample_leaf"],
            "flows.sample_leaf_calls": calls["flows.sample_leaf"],
            "flows.walks_drawn": c["flows.walks_drawn"],
            "flows.visits": c["flows.visits"],
            "flows.segments_escaped": c["flows.segments_escaped"],
            "criterion.verdict_s": dur["criterion.global_verdict"],
            "criterion.verdict_self_s": self_t["criterion.global_verdict"],
            "criterion.points": c["criterion.points"],
            "criterion.points_errored": c["criterion.points_errored"],
            "criterion.samples_used": c["criterion.samples_used"],
            "criterion.samples_per_visit": (
                c["criterion.samples_used"] / c["flows.visits_in_verdict"]
                if c["flows.visits_in_verdict"]
                else 0.0
            ),
            "criterion.hull_s": dur["criterion.interior_convex_test"],
            "criterion.hull_calls": calls["criterion.interior_convex_test"],
            "criterion.projection_s": dur["criterion.quotient_projection"],
            "criterion.det_route_s": dur["criterion.sign_change_on_leaf"],
            "criterion.verify_s": dur["criterion.verify_supporting_distribution"],
            "reach.cross_validate_s": dur["reach.cross_validate"],
            "reach.simulate_s": dur["reach.simulate_reach"],
            "reach.simulate_calls": calls["reach.simulate_reach"],
            "reach.trajectories": c["reach.trajectories"],
            "reach.points_stored": c["reach.points_stored"],
            "reach.coverage_s": dur["reach.coverage"],
            "metrics.estimate_cost_s": dur["metrics.estimate_cost"],
            "metrics.sr_distance_s": dur["metrics.sr_distance"],
            "metrics.loop_length_s": dur["metrics.loop_length"],
            "metrics.evaluations": c["metrics.evaluations"],
            "metrics.found": c["metrics.found"],
            "lie.closure_s": dur["lie.generate_bracket_basis"],
            "lie.audit_s": dur["lie.audit_regularity"],
            "lie.family_size": c["lie.family_size"],
            "system.load_s": dur["system.load_spec"],
            "trace.wall_s": dur["report.op"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in self_t.items() if k.split(".")[0] == layer)
        return m


# -- counts read from returned objects -----------------------------------------


def _leaf(tr: Tracer, leaf, bound) -> None:
    bound.apply_defaults()
    tr.counts["flows.walks_drawn"] += int(bound.arguments["budget"])
    tr.counts["flows.visits"] += len(leaf.visits)
    tr.counts["flows.segments_escaped"] += leaf.discarded
    if any(tr.spans[i][0] == "criterion.global_verdict" for i in tr.stack):
        tr.counts["flows.visits_in_verdict"] += len(leaf.visits)


def _verdict(tr: Tracer, gv, _) -> None:
    tr.counts["criterion.points"] += len(gv.points)
    tr.counts["criterion.points_errored"] += sum(p.error is not None for p in gv.points)
    tr.counts["criterion.samples_used"] += sum(p.samples_used for p in gv.points)


def _cloud(tr: Tracer, cloud, _) -> None:
    tr.counts["reach.trajectories"] += cloud.n_traj
    tr.counts["reach.points_stored"] += len(cloud.points)


def _estimate(tr: Tracer, est, _) -> None:
    tr.counts["metrics.evaluations"] += est.budget_spent
    tr.counts["metrics.found"] += est.value is not None


def _family(tr: Tracer, family, _) -> None:
    tr.counts["lie.family_size"] += len(family.fields)


_RESULT_HOOKS = {
    "flows.sample_leaf": _leaf,
    "criterion.global_verdict": _verdict,
    "reach.simulate_reach": _cloud,
    "metrics.estimate_cost": _estimate,
    "metrics.sr_distance": _estimate,
    "metrics.loop_length": _estimate,
    "lie.generate_bracket_basis": _family,
}


def kernel_microbench(specs) -> dict:
    """Per-call cost of the compiled kernels on the workload's fields.

    Medians over fields of the best of 5 repeats: one point through the
    rhs kernel, one point through the Jacobian kernel, and a 1024-row
    batch through the rhs kernel divided by its rows.
    """
    fields = [V for s in specs for V in s.drifts + s.controls]

    def per_call(fn, arg, calls):
        fn(arg)  # codegen and first-call costs stay out of the figure
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(arg)
            best = min(best, (time.perf_counter() - t0) / calls)
        return best * 1e6

    rng = np.random.default_rng(0)
    eval_us, jac_us, batch_us = [], [], []
    for V in fields:
        p = rng.uniform(-1.0, 1.0, size=V.dim)
        X = rng.uniform(-1.0, 1.0, size=(1024, V.dim))
        eval_us.append(per_call(V.compiled(), p, 200))
        jac_us.append(per_call(V.compiled_jacobian(), p, 100))
        batch_us.append(per_call(V.compiled(), X, 20) / len(X))
    return {
        "fields.eval_us": float(np.median(eval_us)),
        "fields.jac_us": float(np.median(jac_us)),
        "fields.eval_batch_us_per_row": float(np.median(batch_us)),
    }

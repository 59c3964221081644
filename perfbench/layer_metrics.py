"""Per-layer metrics of a traced run, computed from its spans.

``install`` puts the span wrappers in place with the tags this benchmark
needs: the size class of each conjugation and the set name of each
detector or farthest-point search. It also records each probe budget the
projections layer creates, under the span that created it, so probes can
be counted against ``_Budget.limit`` from span parentage alone.
"""

from __future__ import annotations

import statistics

from legendrelab import projections
from legendrelab.experiments import EXPERIMENT_NAMES

from tracing import HOT_FUNCTIONS, LAYERS, SpanTable, Tracer
from workloads import CONJ_CLASSES

SEARCHES = ("projections.convexity_detector",
            "projections.farthest_point_experiment")
PROBE = "projections.solve_relative_projection"

_CLASS_OF_SHAPES = {((n,) * dim, (m,) * dim): label
                    for label, dim, n, m, _ in CONJ_CLASSES}


def size_class(f, dual_grid, *args, **kwargs) -> str | None:
    """The conjugate-sweep size class of a (primal, dual) pair, if any."""
    return _CLASS_OF_SHAPES.get((f.grid.shape, dual_grid.shape))


def set_name(S, *args, **kwargs) -> str:
    return S.name


def install(tracer: Tracer, budgets: list[tuple[int, int]]) -> None:
    """Wrap every layer; append (enclosing span, limit) for each budget."""
    tracer.install({"conjugate.conjugate_fast": size_class,
                    "conjugate.biconjugate": size_class,
                    SEARCHES[0]: set_name, SEARCHES[1]: set_name})
    budget_init = projections._Budget.__init__

    def recording_init(self, limit):
        budgets.append((tracer.current, int(limit)))
        budget_init(self, limit)

    tracer.patch(projections._Budget, "__init__", recording_init)


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(spans: SpanTable, budgets: list[tuple[int, int]]) -> dict:
    """Every per-layer metric the spans give, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    totals = spans.layer_totals()
    for layer in LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s, "s")
    for name in HOT_FUNCTIONS:
        calls, busy = spans.function_totals(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_s"] = (busy, "s")
    for exp in EXPERIMENT_NAMES:
        runner = "experiments.run_" + exp.replace("-", "_")
        out[f"experiments.{exp}_s"] = (spans.function_totals(runner)[1], "s")
    fast = spans.durations_by_tag("conjugate.conjugate_fast",
                                  exclude_under="conjugate.biconjugate")
    bicon = spans.durations_by_tag("conjugate.biconjugate")
    for label, *_ in CONJ_CLASSES:
        out[f"conjugate.{label}.fast_p50_ms"] = (_p50(fast.get(label, [])), "ms")
        out[f"conjugate.{label}.bicon_p50_ms"] = (_p50(bicon.get(label, [])), "ms")

    limits = {span: limit for span, limit in budgets}
    searches = {i for i, n in enumerate(spans.names)
                if n in SEARCHES and i in limits}
    probes = spans.count_under(PROBE, searches)
    per_set = [(spans.tags.get(i, "?"), spans.names[i], probes[i], limits[i])
               for i in sorted(searches)]
    used = sum(p for _, _, p, _ in per_set)
    base = sum(lim for _, _, _, lim in per_set)
    out["projections.budget_frac"] = (used / base if base else 0.0, "ratio")
    out["trace.spans"] = (len(spans), "count")
    layer_self = sum(self_s for _, self_s in totals.values())
    out["trace.layer_self_s"] = (layer_self, "s")
    return {"metrics": {k: [v, u] for k, (v, u) in out.items()},
            "probes_per_set": per_set}

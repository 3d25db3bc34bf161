"""Per-layer metrics of the traced run, computed from the recorded spans.

Every workload prints every metric below (a layer a workload does not
reach reads 0), so the names are the same everywhere.  ``X.s`` sums the
outermost spans named ``X`` over all traced processes, ``X.calls`` counts
them, and ``X.self_s`` subtracts the part of each span covered by its
direct child spans.  Counters of the program itself (``engine.hits`` ...)
come from the program's own reports and validate the span counts.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

from harness import check

#: Experiments with their own unit-time metric; others sum into ``other``.
EXPERIMENTS = (
    "table1", "table2", "fig13", "fig14", "fig15_table3", "fig16", "table4",
    "fig17", "fig18", "fig19", "fig20", "timing", "traffic", "goldens",
)

#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = (
    ("arch.choose_layer_tiling.calls", "count"),
    ("arch.choose_layer_tiling.s", "s"),
    ("arch.run_layer.calls", "count"),
    ("arch.run_layer.self_s", "s"),
    ("timing.run_network.calls", "count"),
    ("timing.run_network.s", "s"),
    ("engine.search_tasks.calls", "count"),
    ("engine.search_tasks.s", "s"),
    ("engine.hits", "count"),
    ("engine.misses", "count"),
    ("engine.coalesced", "count"),
    ("engine.batched", "count"),
    ("engine.grid_evaluations", "count"),
    ("engine.hit_rate", "ratio"),
    ("engine.grid_eval_us", "us"),
    ("engine.save.calls", "count"),
    ("engine.save.s", "s"),
    ("dse.co_search_families.s", "s"),
    ("dse.score_config_rows.self_s", "s"),
    ("dse.pareto_frontier.s", "s"),
    ("dse.candidates", "count"),
    ("dse.grid_evaluations_per_candidate", "ratio"),
    ("dse.candidate_us", "us"),
    *((f"orchestration.unit.{name}.s", "s") for name in EXPERIMENTS + ("other",)),
    ("orchestration.write_text_atomic.calls", "count"),
    ("orchestration.write_text_atomic.s", "s"),
    ("orchestration.manifest.s", "s"),
    ("fleet.worker_idle_share", "ratio"),
    ("fleet.claim.calls", "count"),
    ("fleet.claim.s", "s"),
    ("fleet.complete.s", "s"),
    ("fleet.heartbeat.calls", "count"),
    ("fleet.stolen_claims", "count"),
    ("server.requests", "count"),
    ("server.warm_share", "ratio"),
    ("server.search.self_ms", "ms"),
    ("server.http_ms", "ms"),
    ("server.batch_size", "tasks"),
    ("server.cold_latency_p50_ms", "ms"),
    ("server.daemon_cpu_ms_per_request", "ms"),
    ("server.latency_p90_ms", "ms"),
    ("server.latency_p99_ms", "ms"),
    ("workloads.get_workload_spec.calls", "count"),
    ("workloads.get_workload_spec.s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
)

#: Counters every program reports the same way (``CacheStats.as_dict``).
ENGINE_COUNTERS = ("hits", "misses", "coalesced", "batched", "grid_evaluations")


class Span:
    __slots__ = ("name", "start", "end", "key", "parent", "rid", "tag", "children", "outermost")

    def __init__(self, pid, record):
        name, start, end, span_id, parent, rid, tag = record
        self.name = name
        self.start = start / 1e9
        self.end = end / 1e9
        self.key = (pid, span_id)
        self.parent = (pid, parent) if parent is not None else None
        self.rid = rid
        self.tag = tag
        self.children = []
        self.outermost = True

    @property
    def seconds(self) -> float:
        return self.end - self.start


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for left, right in sorted(intervals):
        left, right = max(left, reach), min(right, end)
        if right > left:
            total += right - left
            reach = right
    return total


class Trace:
    """All spans written to one trace directory."""

    def __init__(self, trace_dir: str):
        self.spans = []
        for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
            self.spans.extend(Span(document["pid"], record) for record in document["spans"])
        by_key = {span.key: span for span in self.spans}
        for span in self.spans:
            parent = by_key.get(span.parent)
            if parent is not None:
                parent.children.append(span)
            while parent is not None:
                if parent.name == span.name:
                    span.outermost = False
                    break
                parent = by_key.get(parent.parent)

    def named(self, name: str) -> list:
        return [span for span in self.spans if span.name == name and span.outermost]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def seconds(self, name: str) -> float:
        return sum(span.seconds for span in self.named(name))

    def self_seconds(self, name: str) -> float:
        return sum(
            span.seconds
            - covered([(child.start, child.end) for child in span.children], span.start, span.end)
            for span in self.named(name)
        )


def engine_totals(stats_documents) -> dict:
    """Sum ``CacheStats`` dicts (one per engine, backend or worker)."""
    return {
        counter: sum(document.get(counter, 0) for document in stats_documents)
        for counter in ENGINE_COUNTERS
    }


def span_metrics(trace: Trace, engine: dict) -> dict:
    """Every per-layer metric that spans and engine counters determine;
    workload-specific ones start at 0 and are filled in by the workload."""
    metrics = {name: 0 for name, _ in PER_LAYER}
    for prefix in (
        "arch.choose_layer_tiling",
        "timing.run_network",
        "engine.search_tasks",
        "engine.save",
        "orchestration.write_text_atomic",
        "workloads.get_workload_spec",
        "fleet.claim",
    ):
        if f"{prefix}.calls" in metrics:
            metrics[f"{prefix}.calls"] = trace.calls(prefix)
        if f"{prefix}.s" in metrics:
            metrics[f"{prefix}.s"] = trace.seconds(prefix)
    metrics["arch.run_layer.calls"] = trace.calls("arch.run_layer")
    metrics["arch.run_layer.self_s"] = trace.self_seconds("arch.run_layer")
    for name in ("dse.co_search_families", "dse.pareto_frontier", "orchestration.manifest", "fleet.complete"):
        metrics[f"{name}.s"] = trace.seconds(name)
    metrics["dse.score_config_rows.self_s"] = trace.self_seconds("dse.score_config_rows")
    metrics["fleet.heartbeat.calls"] = trace.calls("fleet.heartbeat")
    for span in trace.named("orchestration.unit"):
        experiment = span.tag if span.tag in EXPERIMENTS else "other"
        metrics[f"orchestration.unit.{experiment}.s"] += span.seconds
    for counter in ENGINE_COUNTERS:
        metrics[f"engine.{counter}"] = engine[counter]
    lookups = engine["hits"] + engine["misses"]
    metrics["engine.hit_rate"] = engine["hits"] / lookups if lookups else 0.0
    grids = trace.named("engine.grid")
    if grids:
        metrics["engine.grid_eval_us"] = 1e6 * sum(span.seconds for span in grids) / len(grids)
    metrics["trace.spans"] = len(trace.spans)
    return metrics


def validate_engine(trace: Trace, engine: dict, workload: str) -> None:
    """Wrapped ``search_tasks`` and grid calls must equal ``CacheStats``."""
    submitted = sum(span.tag for span in trace.named("engine.search_tasks"))
    check(
        submitted == engine["hits"] + engine["misses"],
        f"{workload}-trace-tasks-equal-cachestats",
        f"{submitted} traced tasks vs hits+misses {engine['hits'] + engine['misses']}",
    )
    grids = trace.calls("engine.grid")
    check(
        grids == engine["grid_evaluations"],
        f"{workload}-trace-grids-equal-cachestats",
        f"{grids} traced grid evaluations vs {engine['grid_evaluations']}",
    )


def validate_units(trace: Trace, elapsed: dict, workload: str) -> None:
    """One unit span per executed unit; their sum within 5% of the
    ``status/`` ``elapsed_seconds`` the program recorded."""
    spans = trace.named("orchestration.unit")
    check(
        sorted(span.rid for span in spans) == sorted(elapsed),
        f"{workload}-trace-units-equal-status",
        f"{len(spans)} unit spans vs {len(elapsed)} status files",
    )
    traced = sum(span.seconds for span in spans)
    recorded = sum(elapsed.values())
    check(
        abs(traced - recorded) <= 0.05 * recorded,
        f"{workload}-trace-unit-seconds-match-status",
        f"sum of unit spans {traced:.3f} s vs status elapsed {recorded:.3f} s",
    )


def overhead(traced_wall: float, untraced_wall: float) -> float:
    return traced_wall / untraced_wall - 1.0


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0

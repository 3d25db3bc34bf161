"""The ``dse`` workload: one exhaustive design-space sweep per repetition.

The 20,634-candidate tiny-workload space under a 64 KiB budget (the space
``benchmarks/bench_dse.py`` pins for its smart-explorer gate), numpy
backend, one worker, a cold in-memory engine.  Its time is family
co-search (grid evaluations) plus the Pareto scan: no accelerator tiling,
no artifact I/O.  It stays exhaustive so that removing an explorer cannot
remove the workload.

One operation is one scored candidate.  A sweep is one request, so its
latency median is taken over the sweeps of a run; while one sweep fills
the run it is the sweep time.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

import layers
from harness import (
    LAUNCH,
    Result,
    check,
    fresh_dir,
    measured_run,
    program_env,
    reference,
    require_success,
    run_program,
    sample_setup,
)

CANDIDATES = 20_634


class Sweep:
    """One fresh-interpreter run of ``launch.py dse``."""

    def __init__(self, name: str, trace_dir: str = None):
        work = fresh_dir(name)
        path = os.path.join(work, "result.json")
        self.finished = run_program([sys.executable, LAUNCH, "dse", path], work, program_env(trace_dir))
        require_success(self.finished, "dse-sweep-exits-0")
        with open(path, encoding="utf-8") as handle:
            self.result = json.load(handle)

    @property
    def candidates(self) -> int:
        return self.result["config_count"] + self.result["infeasible_count"]

    def check(self) -> None:
        pinned = reference()
        check(
            self.result["config_count_total"] == CANDIDATES and self.candidates == CANDIDATES,
            "dse-scores-every-candidate",
            f"{self.candidates} scored of {self.result['config_count_total']}",
        )
        check(self.result["frontier"] == pinned["dse_frontier"], "dse-frontier-matches-reference")
        check(
            self.result["payload_sha256"] == pinned["dse_payload_sha256"],
            "dse-payload-digest-matches-reference",
            self.result["payload_sha256"],
        )


def measure(seed: int, seconds: float) -> Result:
    """``setup_s`` plus sweeps for ``seconds``; the space does not depend on
    ``seed``."""
    setup_s, sweeps = measured_run(
        seconds, lambda count: sample_setup("dse", CANDIDATES, count), lambda index: Sweep(f"dse-{index}")
    )
    for sweep in sweeps:
        sweep.check()
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(sweep.finished.wall_s for sweep in sweeps),
        "cpu_s": statistics.median(sweep.finished.cpu_s for sweep in sweeps),
        "peak_rss_mib": statistics.median(sweep.finished.rss_mib for sweep in sweeps),
        "throughput_rps": statistics.median(sweep.candidates / sweep.finished.wall_s for sweep in sweeps),
        "latency_p50_ms": statistics.median(1e3 * sweep.result["sweep_s"] for sweep in sweeps),
    }
    return Result(CANDIDATES * len(sweeps), 0, metrics)


def trace(seed: int, seconds: float) -> Result:
    """One untraced and one traced sweep; per-layer metrics."""
    untraced = Sweep("dse-untraced")
    trace_dir = fresh_dir("dse-spans")
    traced = Sweep("dse-traced", trace_dir)
    untraced.check()
    traced.check()

    spans = layers.Trace(trace_dir)
    engine = layers.engine_totals([traced.result["engine"]])
    layers.validate_engine(spans, engine, "dse")
    metrics = layers.span_metrics(spans, engine)
    metrics["dse.candidates"] = traced.candidates
    metrics["dse.grid_evaluations_per_candidate"] = engine["grid_evaluations"] / traced.candidates
    metrics["dse.candidate_us"] = 1e6 * untraced.result["sweep_s"] / untraced.candidates
    metrics["trace.overhead_share"] = layers.overhead(traced.finished.wall_s, untraced.finished.wall_s)
    return Result(2 * CANDIDATES, 0, metrics)

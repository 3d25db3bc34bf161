"""The ``reproduce`` and ``fleet`` workloads: orchestrated artifact runs.

``reproduce`` is ``repro-experiments reproduce-all`` with its defaults, the
command paper users run; its time is dominated by the accelerator model's
tiling (``arch``) and the timing walk.  ``fleet`` runs a manifest of many
short units through the SQLite work queue with two worker processes, the
only path through ``orchestration/scheduler.py`` and ``fleet.py``.

One operation is one manifest unit.  Each repetition starts from a fresh
out-dir with cold caches.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

import layers
from harness import (
    GOLDENS,
    Result,
    check,
    fresh_dir,
    measured_run,
    program_env,
    reference,
    repro_argv,
    require_success,
    run_program,
    sample_setup,
    tree_digest,
)
from launch import MANIFEST_WORKLOADS

#: Fleet worker processes; the load stays within the 2 cores the baselines
#: were measured on.
FLEET_WORKERS = 2

COMMANDS = {
    "reproduce": ["reproduce-all"],
    "fleet": ["fleet", "--workloads", *MANIFEST_WORKLOADS["fleet"], "--fleet-workers", str(FLEET_WORKERS)],
}

#: Units in each workload's manifest.
UNITS = {"reproduce": 40, "fleet": 27}


class Iteration:
    """One fresh-interpreter run of the workload's command."""

    def __init__(self, kind: str, name: str, trace_dir: str = None):
        work = fresh_dir(name)
        self.out_dir = os.path.join(work, "out")
        argv = repro_argv([*COMMANDS[kind], "--out-dir", self.out_dir, "--json"], traced=trace_dir is not None)
        self.finished = run_program(argv, work, program_env(trace_dir))
        require_success(self.finished, f"{kind}-exits-0")
        self.report = json.loads(self.finished.stdout)
        self.elapsed = {}
        for path in glob.glob(os.path.join(self.out_dir, "status", "*.json")):
            with open(path, encoding="utf-8") as handle:
                status = json.load(handle)
            if status["state"] == "completed":
                self.elapsed[status["unit_id"]] = status["elapsed_seconds"]
        self.units_digest = tree_digest(os.path.join(self.out_dir, "units"))

    @property
    def failed(self) -> int:
        return self.report["units_failed"] + self.report["units_pending"]

    def engine(self) -> dict:
        """Summed ``CacheStats`` of every engine the run reported."""
        if "engine_stats" in self.report:
            documents = list(self.report["engine_stats"].values())
        else:  # fleet: one attempt report per worker
            documents = []
            for path in glob.glob(os.path.join(self.out_dir, "shards", "fleet-worker-*.json")):
                with open(path, encoding="utf-8") as handle:
                    documents.extend(json.load(handle)["engine_stats"].values())
        return layers.engine_totals(documents)


def check_goldens(iteration: Iteration) -> None:
    """Every unit completed and ``merge --diff-goldens`` is clean."""
    report = iteration.report
    check(
        report["units_completed"] == UNITS["reproduce"] and iteration.failed == 0,
        "reproduce-all-units-complete",
        f"{report['units_completed']} completed, {report['units_failed']} failed, "
        f"{report['units_pending']} pending",
    )
    merged = os.path.join(os.path.dirname(iteration.out_dir), "merged")
    finished = run_program(
        repro_argv(["merge", iteration.out_dir, "--out-dir", merged, "--diff-goldens", GOLDENS, "--json"]),
        os.path.dirname(iteration.out_dir),
    )
    document = json.loads(finished.stdout) if finished.stdout.strip() else {}
    mismatches = {name: problems for name, problems in document.get("goldens", {}).items() if problems}
    check(
        finished.returncode == 0 and document.get("ok") and not mismatches,
        "reproduce-merge-diff-goldens-clean",
        f"exit code {finished.returncode}, mismatches {str(mismatches)[:400]}",
    )


def _check_reproduce(iteration: Iteration) -> None:
    check_goldens(iteration)
    check(
        iteration.units_digest == reference()["reproduce_units_sha256"],
        "reproduce-units-digest-matches-reference",
        iteration.units_digest,
    )


def _check_fleet(iteration: Iteration, expected_digest: str) -> None:
    report = iteration.report
    check(
        report["units_completed"] == UNITS["fleet"] and iteration.failed == 0,
        "fleet-units-complete",
        f"{report['units_completed']} completed, {report['units_failed']} failed, "
        f"{report['units_pending']} pending",
    )
    check(report["audit_problems"] == [], "fleet-audit-clean", str(report["audit_problems"])[:400])
    check(
        report["worker_exit_codes"] == [0] * FLEET_WORKERS,
        "fleet-workers-exit-0",
        str(report["worker_exit_codes"]),
    )
    check(
        iteration.units_digest == expected_digest,
        "fleet-units-identical-to-one-process-run",
        f"{iteration.units_digest} != {expected_digest}",
    )


def one_process_digest() -> str:
    """``units/`` digest of the fleet manifest run by one static process."""
    work = fresh_dir("fleet-one-process")
    out_dir = os.path.join(work, "out")
    args = ["run", *COMMANDS["fleet"][1:-2], "--out-dir", out_dir]
    require_success(run_program(repro_argv(args), work), "fleet-one-process-run-exits-0")
    return tree_digest(os.path.join(out_dir, "units"))


def _checker(kind: str):
    if kind == "reproduce":
        return _check_reproduce
    digest = reference()["fleet_one_process_units_sha256"]
    return lambda iteration: _check_fleet(iteration, digest)


def measure(kind: str, seed: int, seconds: float) -> Result:
    """``setup_s`` plus repetitions for ``seconds``; the manifest does not
    depend on ``seed``."""
    setup_s, iterations = measured_run(
        seconds,
        lambda count: sample_setup(kind, UNITS[kind], count),
        lambda index: Iteration(kind, f"{kind}-{index}"),
    )
    checker = _checker(kind)
    for iteration in iterations:
        checker(iteration)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(it.finished.wall_s for it in iterations),
        "cpu_s": statistics.median(it.finished.cpu_s for it in iterations),
        "peak_rss_mib": statistics.median(it.finished.rss_mib for it in iterations),
        "throughput_rps": statistics.median(len(it.elapsed) / it.finished.wall_s for it in iterations),
        # The request is the whole command: single units are too short to
        # time steadily on a shared host (see README.md).
        "latency_p50_ms": statistics.median(1e3 * it.finished.wall_s for it in iterations),
    }
    attempted = UNITS[kind] * len(iterations)
    return Result(attempted, sum(it.failed for it in iterations), metrics)


def trace(kind: str, seed: int, seconds: float) -> Result:
    """One untraced and one traced repetition; per-layer metrics."""
    untraced = Iteration(kind, f"{kind}-untraced")
    trace_dir = fresh_dir(f"{kind}-spans")
    traced = Iteration(kind, f"{kind}-traced", trace_dir)
    checker = _checker(kind)
    checker(untraced)
    checker(traced)

    spans = layers.Trace(trace_dir)
    engine = traced.engine()
    layers.validate_engine(spans, engine, kind)
    layers.validate_units(spans, traced.elapsed, kind)
    metrics = layers.span_metrics(spans, engine)
    metrics["trace.overhead_share"] = layers.overhead(traced.finished.wall_s, untraced.finished.wall_s)
    if kind == "fleet":
        claims = [span for span in spans.named("fleet.claim") if span.tag]
        stolen = traced.report["stolen_claims"]
        check(
            len(claims) == UNITS["fleet"] + stolen,
            "fleet-trace-claims-equal-units",
            f"{len(claims)} granted claims vs {UNITS['fleet']} units + {stolen} steals",
        )
        metrics["fleet.stolen_claims"] = stolen
        metrics["fleet.worker_idle_share"] = 1.0 - sum(untraced.elapsed.values()) / (
            FLEET_WORKERS * untraced.finished.wall_s
        )
    attempted = 2 * UNITS[kind]
    return Result(attempted, untraced.failed + traced.failed, metrics)

"""Host-time benchmark of the repro modelling tool, end to end and per layer.

Usage (from the repository root)::

    python3 hostbench/run.py --workload {reproduce,dse,serve,fleet} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` runs one untraced and one traced repetition and prints the
per-layer metrics, the tracing overhead and the tracer's agreement with the
program's own counters.  Either way the workload's correctness gate runs
first: a failed check is named on stderr, no metric is printed, and the
exit code is 1.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

import dse_sweep
import layers
import orchestrated
import serve_load
from harness import SRC, WORK, CheckFailed, remove_work

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
)

#: workload -> (untraced run, traced run), each called as ``f(seed, seconds)``.
WORKLOADS = {
    "reproduce": (partial(orchestrated.measure, "reproduce"), partial(orchestrated.trace, "reproduce")),
    "dse": (dse_sweep.measure, dse_sweep.trace),
    "serve": (serve_load.measure, serve_load.trace),
    "fleet": (partial(orchestrated.measure, "fleet"), partial(orchestrated.trace, "fleet")),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    measure, trace = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    try:
        result = (trace if args.trace else measure)(args.seed, args.seconds)
    except CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        remove_work()

    names = layers.PER_LAYER if args.trace else END_TO_END
    missing = {name for name, _ in names} ^ set(result.metrics)
    if missing:
        raise RuntimeError(f"{args.workload} metrics do not match the declared set: {sorted(missing)}")
    for name, unit in names:
        print(f"{args.workload:>9}  {name:<40} {result.metrics[name]:>16.6f} {unit}")
    print(f"{args.workload:>9}  {'operations attempted':<40} {result.attempted:>16d}")
    print(f"{args.workload:>9}  {'operations failed':<40} {result.failed:>16d}")
    metrics = {name: {"value": result.metrics[name], "unit": unit} for name, unit in names}
    print(
        json.dumps(
            {"correct": True, "attempted": result.attempted, "failed": result.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

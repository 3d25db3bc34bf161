"""Start one program of the benchmark in this fresh interpreter.

Usage::

    python hostbench/launch.py cli ARGS...        # repro-experiments ARGS...
    python hostbench/launch.py setup WORKLOAD     # build WORKLOAD's state, print "ready N"
    python hostbench/launch.py dse RESULT.json    # the dse workload's sweep

With ``HOSTBENCH_TRACE=DIR`` in the environment the public functions listed
in :mod:`tracer` are wrapped before the entry point runs, and the spans are
written to ``DIR`` at exit.  The wrapping happens at module level on
purpose: fleet workers are ``multiprocessing`` spawn children, which import
the parent's ``__main__`` file (this one) as ``__mp_main__`` before they
unpickle their target, so they are traced too.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

if os.environ.get("HOSTBENCH_TRACE"):
    import tracer

    tracer.install(os.environ["HOSTBENCH_TRACE"])

#: The exhaustive dse workload: the > 10^4-candidate space that
#: ``benchmarks/bench_dse.py`` pins for its smart-explorer gate.
DSE_BUDGET_KIB = 64.0
DSE_WORKLOAD = "tiny"
DSE_SPACE = {
    "pe_dims": tuple(range(4, 100, 4)),
    "lreg_words": (8, 12, 16, 24, 32, 48, 64, 96),
    "igbuf_words": (256, 384, 512, 768, 1024, 1536),
    "wgbuf_words": (64, 96, 128, 192, 256, 384),
}

#: Manifest workloads of the orchestrated workloads (``None``: the
#: ``reproduce-all`` defaults).
MANIFEST_WORKLOADS = {"reproduce": None, "fleet": ("tiny", "alexnet")}


def _manifest_ready(workloads) -> int:
    """What ``repro-experiments run`` does before its first unit: import
    the CLI, resolve workloads and backend, expand the manifest."""
    import repro.cli  # noqa: F401 - the console entry point's imports
    from repro.engine import resolve_backend
    from repro.orchestration.manifest import ManifestSpec, RunManifest
    from repro.workloads.registry import get_workload_spec

    spec = ManifestSpec() if workloads is None else ManifestSpec(workloads=workloads)
    for workload in spec.workloads:
        get_workload_spec(workload)
    resolve_backend("auto")
    return len(RunManifest.from_spec(spec).units)


def _dse_ready():
    """Layers, engine and candidate list of the dse workload."""
    from repro.core.layer import kib_to_words
    from repro.dse.space import CandidateSpace, enumerate_configs
    from repro.engine import SearchEngine
    from repro.workloads.registry import resolve_layers

    space = CandidateSpace(**DSE_SPACE)
    layers = resolve_layers(DSE_WORKLOAD)
    engine = SearchEngine(workers=1, backend="numpy")
    configs = enumerate_configs(kib_to_words(DSE_BUDGET_KIB), space, backend=engine.backend)
    return space, layers, engine, len(configs)


def setup(workload: str) -> int:
    if workload == "dse":
        count = _dse_ready()[3]
    else:
        count = _manifest_ready(MANIFEST_WORKLOADS[workload])
    print(f"ready {count}", flush=True)
    return 0


def dse(result_path: str) -> int:
    from repro.dse.explore import design_space_exploration

    space, layers, engine, _ = _dse_ready()
    start = time.perf_counter()
    payload = design_space_exploration(
        budget_kib=DSE_BUDGET_KIB, layers=layers, engine=engine, space=space
    )
    sweep_s = time.perf_counter() - start
    text = json.dumps(payload, sort_keys=True)
    document = {
        "sweep_s": sweep_s,
        "payload_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "frontier": payload["frontier"],
        "config_count_total": payload["config_count_total"],
        "config_count": payload["config_count"],
        "infeasible_count": payload["infeasible_count"],
        "engine": engine.stats.as_dict(),
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
    return 0


def main(argv: list) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    target, rest = argv[0], argv[1:]
    if target == "cli":
        from repro.cli import main as cli_main

        return cli_main(rest)
    if target == "setup" and len(rest) == 1:
        return setup(rest[0])
    if target == "dse" and len(rest) == 1:
        return dse(rest[0])
    print(f"unknown launch target {argv!r}\n{__doc__}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

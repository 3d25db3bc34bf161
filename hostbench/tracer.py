"""In-process span recorder for the traced benchmark run.

:func:`install` wraps the public functions listed in :data:`TARGETS` so each
call records one span: ``[name, start_ns, end_ns, span_id, parent_id,
request_id, tag]``.  The parent is the innermost enclosing wrapped call in
the same context (``contextvars``, so asyncio tasks nest correctly and a
thread starts with no parent).  The request id is the enclosing unit id
(orchestrated units) or the client-supplied ``request_id`` (daemon
searches), so the spans of one request share it.

Spans stay in memory and are written once, at interpreter exit, to
``<trace_dir>/spans-<pid>.json``.  Nothing under ``src/`` changes: the
wrappers replace attributes on the classes and modules after import.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

#: (span name, module, attribute path, how to tag the span).  Tags:
#: ``tasks`` -- number of tasks submitted (``search_tasks``); ``unit`` -- the
#: unit's experiment, and the unit id becomes the request id; ``found`` --
#: whether the call returned something (a claim); ``request`` -- the span
#: takes the current daemon request id.
TARGETS = (
    ("arch.choose_layer_tiling", "repro.arch.accelerator", "AcceleratorModel.choose_layer_tiling", None),
    ("arch.run_layer", "repro.arch.accelerator", "AcceleratorModel.run_layer", None),
    ("timing.run_network", "repro.timing.simulator", "TimingSimulator.run_network", None),
    ("engine.search_tasks", "repro.engine.engine", "SearchEngine.search_tasks", "tasks"),
    ("engine.grid", "repro.dataflows.base", "Dataflow.traffic_grid", None),
    ("engine.grid", "repro.dataflows.ours", "OptimalDataflow.traffic_grid", None),
    ("engine.save", "repro.engine.engine", "SearchEngine.save", None),
    ("dse.co_search_families", "repro.dse.explore", "co_search_families", None),
    ("dse.score_config_rows", "repro.dse.explore", "score_config_rows", None),
    ("dse.pareto_frontier", "repro.dse.pareto", "pareto_frontier", None),
    ("orchestration.unit", "repro.orchestration.runner", "UnitExecutor.execute", "unit"),
    ("orchestration.write_text_atomic", "repro.orchestration.runner", "write_text_atomic", None),
    ("orchestration.manifest", "repro.orchestration.manifest", "RunManifest.from_spec", None),
    ("fleet.claim", "repro.orchestration.scheduler", "WorkQueue.claim", "found"),
    ("fleet.complete", "repro.orchestration.scheduler", "WorkQueue.complete", None),
    ("fleet.heartbeat", "repro.orchestration.scheduler", "WorkQueue.heartbeat", None),
    ("server.search", "repro.server.service", "SearchService.search", "request"),
    ("workloads.get_workload_spec", "repro.workloads.registry", "get_workload_spec", None),
)

_CURRENT = contextvars.ContextVar("hostbench_span", default=(None, None))
_REQUEST = contextvars.ContextVar("hostbench_request", default=None)
_SPANS = []
_IDS = itertools.count(1)
_LOCK = threading.Lock()


def _enter(request_id=None):
    parent, inherited = _CURRENT.get()
    span_id = next(_IDS)
    rid = inherited if request_id is None else request_id
    token = _CURRENT.set((span_id, rid))
    return span_id, parent, rid, token


def _leave(name, start, span_id, parent, rid, tag, token):
    end = time.perf_counter_ns()
    _CURRENT.reset(token)
    with _LOCK:
        _SPANS.append([name, start, end, span_id, parent, rid, tag])


def _wrap(name, function, tagging):
    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def traced_async(*args, **kwargs):
            span_id, parent, rid, token = _enter(_REQUEST.get() if tagging == "request" else None)
            start = time.perf_counter_ns()
            try:
                return await function(*args, **kwargs)
            finally:
                _leave(name, start, span_id, parent, rid, None, token)

        return traced_async

    @functools.wraps(function)
    def traced(*args, **kwargs):
        tag, request_id = None, None
        if tagging == "tasks":
            # search_tasks(self, tasks): materialise an iterator once so its
            # length can be recorded; the engine lists it anyway.
            args = (args[0], list(args[1])) + args[2:]
            tag = len(args[1])
        elif tagging == "unit":
            tag, request_id = args[1].experiment, args[1].unit_id
        span_id, parent, rid, token = _enter(request_id)
        start = time.perf_counter_ns()
        try:
            result = function(*args, **kwargs)
            if tagging == "found":
                tag = result is not None
            return result
        finally:
            _leave(name, start, span_id, parent, rid, tag, token)

    return traced


def _replace_everywhere(original, replacement) -> None:
    """Point every loaded ``repro`` module name bound to ``original`` at
    ``replacement`` (``from x import f`` copies the binding at import)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _patch(name, module_name, path, tagging) -> None:
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    raw = vars(owner)[attribute]
    if isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(_wrap(name, raw.__func__, tagging)))
    elif owners:
        setattr(owner, attribute, _wrap(name, raw, tagging))
    else:
        _replace_everywhere(raw, _wrap(name, raw, tagging))


def _tag_daemon_requests() -> None:
    """The daemon's ``/search`` handler resolves the request document's
    dataflow first; remember the client's ``request_id`` for the rest of
    that connection task, so the service span carries it."""
    daemon = importlib.import_module("repro.server.daemon")
    resolve = daemon.resolve_dataflow

    @functools.wraps(resolve)
    def resolve_dataflow(document):
        _REQUEST.set(document.get("request_id") if isinstance(document, dict) else None)
        return resolve(document)

    daemon.resolve_dataflow = resolve_dataflow


def dump(trace_dir: str) -> None:
    path = os.path.join(trace_dir, f"spans-{os.getpid()}.json")
    with _LOCK:
        spans = list(_SPANS)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"pid": os.getpid(), "argv": sys.argv, "spans": spans}, handle)


def install(trace_dir: str) -> None:
    """Wrap every target and write the spans to ``trace_dir`` at exit."""
    for target in TARGETS:
        _patch(*target)
    _tag_daemon_requests()
    atexit.register(dump, trace_dir)

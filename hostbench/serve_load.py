"""The ``serve`` workload: a closed-loop Zipf load on a real search daemon.

The daemon (``repro-experiments serve``) runs as a subprocess with a fresh
SQLite cache and the default micro-batch window.  One single-threaded
asyncio client in this process holds :data:`CONNECTIONS` keep-alive
connections; each sends its next request only after the previous answer,
like a sweep driver waiting on its searches.  Requests are drawn from a
seeded Zipf stream over vgg16 (dataflow x layer x capacity) tasks: about
97% repeat an earlier task (a cache read) and about 3% are first seen
(a computation plus a SQLite write).  It is the only path through
``server/``.

One operation is one ``/search`` request.  A request that errors, is
refused or times out counts as failed, and its latency as the timeout.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import signal
import statistics
import sys
import time

import layers
from harness import (
    SRC,
    Result,
    check,
    fresh_dir,
    measured_run,
    program_env,
    quantile,
    reap,
    repro_argv,
    start_until_ready,
)

CONNECTIONS = 2
#: Requests per block; ``wall_s`` and ``cpu_s`` are per block.
BLOCK = 1000
REQUEST_TIMEOUT_S = 10.0
WORKLOAD = "vgg16"
DATAFLOWS = ("Ours", "OutR-A", "OutR-B", "WtR-A", "WtR-B", "InR-A", "InR-B", "InR-C")
LAYER_INDICES = tuple(range(13))
CAPACITIES_KIB = (16, 32, 48, 64, 66.5, 128, 173.5, 256)
#: With 832 tasks this exponent makes ~3% of a ~6,000-request run first-seen.
ZIPF_EXPONENT = 1.7
#: Fixes the task-to-rank order (see :func:`zipf_stream`).
HOT_SET_SEED = 2020


def zipf_stream(seed: int):
    """Endless task stream drawn with ``seed``.

    Which tasks are hot is part of the workload, not of the seed: the top
    task alone draws about half of the requests, so letting the seed pick
    it would make runs differ by the cost of one task.
    """
    universe = list(itertools.product(DATAFLOWS, LAYER_INDICES, CAPACITIES_KIB))
    random.Random(HOT_SET_SEED).shuffle(universe)
    generator = random.Random(seed)
    cumulative = list(itertools.accumulate(1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(universe) + 1)))
    while True:
        yield from generator.choices(universe, cum_weights=cumulative, k=1024)


class Daemon:
    """A daemon subprocess with its own fresh cache and work dir."""

    def __init__(self, name: str, trace_dir: str = None):
        work = fresh_dir(name)
        args = [
            "serve", "--port", "0",
            "--cache-file", os.path.join(work, "cache.sqlite"),
            "--work-dir", os.path.join(work, "runs"),
        ]
        self.ready_s, line, self.process = start_until_ready(
            repro_argv(args, traced=trace_dir is not None), program_env(trace_dir)
        )
        try:
            announcement = json.loads(line)
        except ValueError:
            announcement = {}
        if announcement.get("event") != "listening":
            self.process.kill()
            reap(self.process, 60.0)
            check(False, "serve-daemon-listens", f"first line {line!r}")
        self.port = announcement["port"]

    def cpu_seconds(self) -> float:
        """CPU time of the whole daemon, all threads, in nanosecond steps
        (``/proc/PID/stat`` ticks are too coarse for one block): the
        kernel's process CPU clock id is ``(~pid << 3) | CPUCLOCK_SCHED``."""
        return time.clock_gettime((~self.process.pid << 3) | 2)

    def shutdown(self):
        """SIGTERM, wait, and return the rusage; the daemon must exit 0."""
        self.process.send_signal(signal.SIGTERM)
        usage = reap(self.process, 60.0)
        self.stderr = self.process.stderr.read()
        self.process.stdout.close()
        self.process.stderr.close()
        check(
            self.process.returncode == 0,
            "serve-daemon-exits-0-on-sigterm",
            f"exit code {self.process.returncode}; stderr tail {self.stderr[-400:]!r}",
        )
        return usage


async def _exchange(reader, writer, head: bytes, body: bytes = b"") -> tuple:
    writer.write(head + body)
    header = await reader.readuntil(b"\r\n\r\n")
    lines = header.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


def _search_head(length: int) -> bytes:
    return (
        "POST /search HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {length}\r\n\r\n"
    ).encode("latin-1")


class Load:
    """Client-side record of one closed-loop load.

    The answers are cut, in completion order, into blocks of :data:`BLOCK`
    requests; the end-to-end numbers are medians over the blocks, so a
    burst of host noise in one block moves them less.
    """

    def __init__(self, daemon: Daemon):
        self.daemon = daemon
        self.latencies = []  # seconds in completion order; failed at the timeout
        self.cold = []  # latencies of first-seen tasks
        self.by_id = {}  # request id -> latency, answered requests
        self.answers = {}  # task -> body of its first answer
        self.mismatched = []  # tasks answered differently on a repeat
        self.failed = 0
        self.seconds = 0.0
        self.marks = []  # (perf_counter, daemon CPU seconds) at each block edge

    @property
    def answered(self) -> int:
        return len(self.by_id)

    def mark(self) -> None:
        self.marks.append((time.perf_counter(), self.daemon.cpu_seconds()))

    def record(self, latency: float) -> None:
        self.latencies.append(latency)
        if len(self.latencies) % BLOCK == 0:
            self.mark()

    def blocks(self) -> list:
        """``(seconds, daemon CPU seconds, latencies)`` of every full block."""
        return [
            (end[0] - start[0], end[1] - start[1], self.latencies[index * BLOCK : (index + 1) * BLOCK])
            for index, (start, end) in enumerate(zip(self.marks, self.marks[1:]))
        ]


async def _drive(daemon: Daemon, seed: int, seconds: float) -> Load:
    load = Load(daemon)
    stream = enumerate(zipf_stream(seed))
    seen = set()
    loop = asyncio.get_running_loop()
    deadline = loop.time() + seconds

    async def connection():
        reader = writer = None
        while loop.time() < deadline:
            request_id, task = next(stream)
            dataflow, layer_index, kib = task
            cold = task not in seen
            seen.add(task)
            body = json.dumps(
                {
                    "dataflow": dataflow,
                    "workload": WORKLOAD,
                    "layer_index": layer_index,
                    "capacity_kib": kib,
                    "request_id": request_id,
                }
            ).encode("utf-8")
            started = time.perf_counter()
            try:
                if writer is None:
                    reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
                status, answer = await asyncio.wait_for(
                    _exchange(reader, writer, _search_head(len(body)), body), REQUEST_TIMEOUT_S
                )
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                status, answer = None, b""
            latency = time.perf_counter() - started
            if status != 200:
                load.failed += 1
                load.record(REQUEST_TIMEOUT_S)
                if writer is not None:
                    writer.close()
                reader = writer = None
                continue
            load.record(latency)
            load.by_id[request_id] = latency
            if cold:
                load.cold.append(latency)
            first = load.answers.setdefault(task, answer)
            if first != answer:
                load.mismatched.append(task)
        if writer is not None:
            writer.close()
            await writer.wait_closed()

    load.mark()
    started = time.perf_counter()
    await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
    load.seconds = time.perf_counter() - started
    return load


async def _stats(port: int) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = b"GET /stats HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
        status, body = await _exchange(reader, writer, head)
    finally:
        writer.close()
        await writer.wait_closed()
    check(status == 200, "serve-stats-answers", f"HTTP {status}")
    return json.loads(body)


class Session:
    """One daemon under one load: the client record, daemon CPU and stats."""

    def __init__(self, name: str, seed: int, seconds: float, trace_dir: str = None):
        daemon = Daemon(name, trace_dir)
        try:
            cpu_before = daemon.cpu_seconds()
            self.load = asyncio.run(_drive(daemon, seed, seconds))
            self.cpu_s = daemon.cpu_seconds() - cpu_before
            self.stats = asyncio.run(_stats(daemon.port))
        finally:
            usage = daemon.shutdown()
        self.rss_mib = usage.ru_maxrss / 1024.0
        check(not self.load.mismatched, "serve-repeat-answers-identical", str(self.load.mismatched[:5]))
        check(self.load.blocks(), "serve-load-fills-a-block", f"{len(self.load.latencies)} requests")

    def per_request(self, seconds: float) -> float:
        return seconds / self.load.answered


def _check_answers(load: Load) -> None:
    """Every task's answer equals an in-process ``SearchEngine`` answer."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.core.layer import kib_to_words
    from repro.dataflows.registry import get_dataflow
    from repro.engine import SearchEngine
    from repro.server.protocol import result_to_wire
    from repro.workloads.registry import get_workload_spec

    engine = SearchEngine(backend="numpy")
    network = get_workload_spec(WORKLOAD)
    for (dataflow, layer_index, kib), answer in sorted(load.answers.items()):
        result = engine.try_search(get_dataflow(dataflow), network[layer_index], kib_to_words(kib))
        expected = (
            {"feasible": False, "result": None}
            if result is None
            else {"feasible": True, "result": result_to_wire(result)}
        )
        check(
            json.loads(answer) == json.loads(json.dumps(expected)),
            "serve-answers-equal-in-process-engine",
            f"task {(dataflow, layer_index, kib)}",
        )


def _setup_samples(count: int) -> list:
    """Daemon start-to-listening times of ``count`` fresh daemons."""
    samples = []
    for index in range(count):
        daemon = Daemon(f"serve-setup-{index}")
        daemon.shutdown()
        samples.append(daemon.ready_s)
    return samples


def measure(seed: int, seconds: float) -> Result:
    setup_s, (session,) = measured_run(
        seconds, _setup_samples, lambda index: Session("serve-load", seed, seconds)
    )
    load = session.load
    _check_answers(load)
    blocks = load.blocks()
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(block[0] for block in blocks),
        "cpu_s": statistics.median(block[1] for block in blocks),
        "peak_rss_mib": session.rss_mib,
        "throughput_rps": BLOCK / statistics.median(block[0] for block in blocks),
        "latency_p50_ms": 1e3 * statistics.median(quantile(block[2], 0.5) for block in blocks),
    }
    return Result(len(load.latencies), load.failed, metrics)


def _service_self_ms(trace: layers.Trace) -> float:
    """Median ``SearchService.search`` span minus the engine batches that
    ran during it (the engine thread's spans have no parent link), i.e. the
    flush-window wait plus the thread hop."""
    engine = {}
    for span in trace.named("engine.search_tasks"):
        engine.setdefault(span.key[0], []).append((span.start, span.end))
    return 1e3 * layers.median_or_zero(
        [
            span.seconds - layers.covered(engine.get(span.key[0], []), span.start, span.end)
            for span in trace.named("server.search")
        ]
    )


def trace(seed: int, seconds: float) -> Result:
    """An untraced and a traced daemon under the same stream."""
    untraced = Session("serve-untraced", seed, seconds)
    trace_dir = fresh_dir("serve-spans")
    traced = Session("serve-traced", seed, seconds, trace_dir)
    _check_answers(untraced.load)
    _check_answers(traced.load)

    spans = layers.Trace(trace_dir)
    engine = layers.engine_totals([traced.stats["engine"]])
    layers.validate_engine(spans, engine, "serve")
    searches = spans.named("server.search")
    service = {span.rid: span.seconds for span in searches}
    sent = len(traced.load.latencies)
    check(
        len(searches) == sent and set(service) == set(traced.load.by_id),
        "serve-trace-searches-equal-requests",
        f"{len(searches)} service spans, {traced.load.answered} answered of {sent} sent",
    )
    check(
        traced.stats["requests_served"] == sent + 1,
        "serve-trace-requests-equal-daemon-stats",
        f"daemon served {traced.stats['requests_served']} vs {sent} searches + 1 stats request",
    )

    metrics = layers.span_metrics(spans, engine)
    batches = spans.named("engine.search_tasks")
    warm = engine["hits"] + engine["coalesced"]
    untraced_load = untraced.load
    metrics.update(
        {
            "server.requests": sent,
            "server.warm_share": warm / (warm + engine["misses"]),
            "server.search.self_ms": _service_self_ms(spans),
            "server.http_ms": 1e3 * statistics.median(
                latency - service[request_id] for request_id, latency in traced.load.by_id.items()
            ),
            "server.batch_size": sum(span.tag for span in batches) / len(batches),
            "server.cold_latency_p50_ms": 1e3 * layers.median_or_zero(untraced_load.cold),
            "server.daemon_cpu_ms_per_request": 1e3 * untraced.per_request(untraced.cpu_s),
            "server.latency_p90_ms": 1e3 * quantile(untraced_load.latencies, 0.9),
            "server.latency_p99_ms": 1e3 * quantile(untraced_load.latencies, 0.99),
            "trace.overhead_share": layers.overhead(
                traced.per_request(traced.load.seconds), untraced.per_request(untraced_load.seconds)
            ),
        }
    )
    return Result(sent + len(untraced_load.latencies), traced.load.failed + untraced_load.failed, metrics)

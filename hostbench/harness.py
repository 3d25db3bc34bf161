"""Process timing, statistics and checks shared by the workloads.

Every measured repetition is a fresh interpreter, timed from outside:
wall time around the child's whole life, CPU time and peak RSS from
``wait4`` (which include the child's reaped descendants, e.g. fleet
workers).  Set-up time is sampled over several fresh interpreters that stop
as soon as they are ready.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDENS = os.path.join(ROOT, "tests", "goldens")
LAUNCH = os.path.join(HERE, "launch.py")
#: Scratch space of this run (out-dirs, caches, traces); removed at exit.
WORK = os.path.join(ROOT, ".hostbench_work", f"run-{os.getpid()}")

#: Fresh interpreter starts per run whose median is ``setup_s``.
SETUP_SAMPLES = 8

#: A single program invocation is killed after this long.
PROGRAM_TIMEOUT_S = 150.0


class CheckFailed(Exception):
    """A correctness or tracer-validation check failed; the message names it."""


def check(condition: bool, name: str, detail: str = "") -> None:
    if not condition:
        raise CheckFailed(f"{name}: {detail}" if detail else name)


def program_env(trace_dir: str = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("HOSTBENCH_TRACE", None)
    if trace_dir is not None:
        env["HOSTBENCH_TRACE"] = trace_dir
    return env


def repro_argv(args: list, traced: bool = False) -> list:
    """``repro-experiments ARGS`` as users start it, or through the launcher."""
    if traced:
        return [sys.executable, LAUNCH, "cli", *args]
    return [sys.executable, "-m", "repro.cli", *args]


@dataclass
class Finished:
    wall_s: float
    cpu_s: float
    rss_mib: float
    returncode: int
    stdout: str
    stderr: str


def reap(process: subprocess.Popen, timeout: float):
    """``wait4`` the child (killing it after ``timeout``); returns rusage."""
    timer = threading.Timer(timeout, process.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(process.pid, 0)
    finally:
        timer.cancel()
    process.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_program(argv: list, work_dir: str, env: dict = None, timeout: float = PROGRAM_TIMEOUT_S) -> Finished:
    """Run one program to completion in a fresh interpreter, timed from outside."""
    out_path = os.path.join(work_dir, "stdout.txt")
    err_path = os.path.join(work_dir, "stderr.txt")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        process = subprocess.Popen(argv, cwd=ROOT, env=env or program_env(), stdout=out, stderr=err)
        usage = reap(process, timeout)
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    return Finished(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024.0,
        returncode=process.returncode,
        stdout=stdout,
        stderr=stderr,
    )


def require_success(finished: Finished, name: str) -> None:
    check(
        finished.returncode == 0,
        name,
        f"exit code {finished.returncode}; stderr tail: {finished.stderr[-800:]!r}",
    )


def start_until_ready(argv: list, env: dict = None):
    """Start a program and block until it prints its first stdout line.

    Returns ``(seconds to that line, the line, the running process)``.
    """
    start = time.perf_counter()
    process = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env or program_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    timer = threading.Timer(PROGRAM_TIMEOUT_S, process.kill)  # a program that never gets ready
    timer.start()
    try:
        line = process.stdout.readline()
    finally:
        timer.cancel()
    ready = time.perf_counter() - start
    return ready, line, process


def stop(process: subprocess.Popen, timeout: float = 60.0) -> None:
    """Wait for a process (killing it after ``timeout``) and close its pipes."""
    try:
        process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()


def sample_setup(workload: str, expected_units: int, samples: int) -> list:
    """Ready times of ``samples`` fresh ``launch.py setup`` interpreters
    (imports plus manifest expansion or space build)."""
    times = []
    for _ in range(samples):
        ready, line, process = start_until_ready([sys.executable, LAUNCH, "setup", workload])
        stop(process)
        check(
            process.returncode == 0 and line.startswith("ready "),
            f"{workload}-setup-starts",
            f"exit code {process.returncode}, first line {line!r}",
        )
        count = int(line.split()[1])
        check(count == expected_units, f"{workload}-setup-size", f"{count} != {expected_units}")
        times.append(ready)
    return times


def measured_run(seconds: float, setup, iteration) -> tuple:
    """``setup_s`` and the repetitions of one untraced run.

    Half of the :data:`SETUP_SAMPLES` set-up samples are taken before the
    repetitions and half after, so a burst of host noise in either phase
    moves the median less; ``setup(count)`` returns ``count`` samples.
    """
    half = SETUP_SAMPLES // 2
    samples = setup(half)
    repetitions = repeat_for(seconds, iteration)
    samples += setup(SETUP_SAMPLES - half)
    return statistics.median(samples), repetitions


def fresh_dir(name: str) -> str:
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def tree_digest(path: str) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(path):
        subdirs.sort()
        for name in sorted(files):
            full = os.path.join(directory, name)
            digest.update(os.path.relpath(full, path).encode("utf-8") + b"\0")
            with open(full, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return digest.hexdigest()


def quantile(values, share: float) -> float:
    """Nearest-rank quantile: the smallest value with ``share`` of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def repeat_for(seconds: float, iteration) -> list:
    """Call ``iteration(index)`` while another call still fits in
    ``seconds`` at the mean pace so far (always at least once)."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(iteration(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def reference() -> dict:
    """Outputs pinned by ``record.py`` (digests and the dse frontier)."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Result:
    """One run's outcome: operations attempted and failed, metric values."""

    attempted: int
    failed: int
    metrics: dict


def remove_work() -> None:
    """Delete this run's scratch dir (and the shared parent once empty)."""
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(WORK))
    except OSError:
        pass  # another run's scratch dir is still there

"""Measurement machinery shared by the workloads.

Everything here runs outside ``src/``: spans are recorded around calls
into the package's public API, never inside it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

#: The checkout the benchmark runs in; the program is imported from
#: its ``src`` directory, so every run measures the source as it is.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run outputs (span dumps, service journal and cache directories).
OUT = ROOT / ".ipetbench"


def program_env() -> dict:
    """Environment for child interpreters: the checkout's sources, and
    no bytecode files written, so every start compiles the same way."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: recorded before and after
    every run so that host drift can be told apart from a regression."""
    started = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    elapsed = time.perf_counter() - started
    if total != 1_999_998:
        raise RuntimeError("host probe loop miscounted")
    return elapsed


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def nearest_rank(values, share: float) -> float:
    """The nearest-rank percentile: a value that was observed."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def peak_rss_mb_self() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _descendants(pid: int) -> list[int]:
    found = []
    for child in _children(pid):
        found.append(child)
        found.extend(_descendants(child))
    return found


def peak_rss_mb_tree(pid: int) -> float:
    """Sum of the peak resident memory (``VmHWM``) of a process and of
    every process below it, in MiB; read before they are stopped."""
    total_kb = 0
    for member in [pid] + _descendants(pid):
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
#: Seconds the processes still running at the end of a run get to end
#: on their own before they are killed.
STOP_GRACE = 30.0


def adopt_orphans() -> None:
    """Make this process the reaper of every process started below it
    (Linux ``PR_SET_CHILD_SUBREAPER``): a process whose parent ends
    first, such as the resource tracker of a ``repro serve`` pool, is
    then this process's child, and ``stop_children`` waits for it."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_children() -> None:
    """Wait until every child of this process has ended, killing those
    still running after STOP_GRACE seconds; run on every way out."""
    import signal
    from multiprocessing import resource_tracker

    # The tracker started by a spawn pool runs until its pipe closes.
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop",
                           None)
    if stop_tracker is not None:
        stop_tracker()
    deadline = time.monotonic() + STOP_GRACE
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children(os.getpid()):
                with contextlib.suppress(OSError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.01)


def _children(pid: int) -> list[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(c) for c in handle.read().split())
        except OSError:
            continue
    return found


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span recorder for the traced run.

    A span is ``[name, start, end, parent, item, counts]``; ``parent``
    is the index of the enclosing span on the same thread.  Counts are
    recorded on the span whose call did the work.
    """

    def __init__(self):
        self.records: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, item=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if item is None and parent is not None:
            item = self.records[parent][4]
        record = [name, 0.0, 0.0, parent, item, {}]
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield record[5]
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def layers(self) -> dict:
        """{name: {"self": s, "total": s, "calls": n, counts...}}.

        Self time is a span's duration minus the time its direct
        children cover (children of one span never overlap: a thread
        runs them one after another)."""
        child_time = [0.0] * len(self.records)
        for name, start, end, parent, _, _ in self.records:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _, _, counts) in \
                enumerate(self.records):
            entry = out.setdefault(name, {"self": 0.0, "total": 0.0,
                                          "calls": 0})
            entry["total"] += end - start
            entry["self"] += end - start - child_time[index]
            entry["calls"] += 1
            for key, value in counts.items():
                entry[key] = entry.get(key, 0) + value
        return out

    def dump(self, path: Path) -> None:
        """Write every span once, at the end of the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "item", "counts")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, record))
                       for record in self.records], handle)


# ----------------------------------------------------------------------
# Set-up measured over fresh interpreters
# ----------------------------------------------------------------------
class SetupProbes:
    """Set-up timed over fresh interpreters.

    Each probe starts a fresh interpreter that sets the workload up and
    reports ready.  ``run(n)`` is called once before and once after the
    timed phase, so that the probes see the host in more than one
    state; ``result()`` gives the median wall time to ready and the
    median of each set-up phase."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.args = (workload, seed, seconds)
        self.walls: list[float] = []
        self.phases: dict[str, list] = {}

    def run(self, probes: int) -> None:
        for _ in range(probes):
            self._one(*self.args)

    def result(self) -> dict:
        return {"setup_s": statistics.median(self.walls),
                "walls": self.walls,
                "phases": {name: statistics.median(values)
                           for name, values in self.phases.items()}}

    def _one(self, workload: str, seed: int, seconds: float) -> None:
        import subprocess

        script = str(Path(__file__).resolve().parent / "run.py")
        walls, phases = self.walls, self.phases
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, script, "--setup-probe", "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds)],
            cwd=str(ROOT), env=program_env(), stdout=subprocess.PIPE,
            text=True)
        ready = None
        try:
            for line in child.stdout:
                if line.startswith("READY "):
                    walls.append(time.perf_counter() - started)
                    ready = json.loads(line[len("READY "):])
                    break
        finally:
            child.stdout.close()
            code = child.wait(timeout=120)
        if ready is None or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed "
                               f"(exit {code})")
        for name, value in ready.items():
            phases.setdefault(name, []).append(value)


class Phases:
    """Times the named phases of one set-up."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - started)


# ----------------------------------------------------------------------
# The timed phase of an in-process workload
# ----------------------------------------------------------------------
class Outcome:
    """What one timed phase did: per-item latencies, per-round
    throughputs, results for the checks, and failures."""

    def __init__(self):
        self.latencies: list[float] = []
        self.traced_latencies: list[float] = []
        self.round_rates: list[float] = []
        self.done: list[tuple] = []          # (item, result)
        self.traced: list[tuple] = []        # (item, traced result)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wall = 0.0

    def fail(self, item, error: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{item!r}: {type(error).__name__}: "
                               f"{error}")


def run_rounds(workload, seconds: float, limit: int | None = None,
               spans: Spans | None = None) -> Outcome:
    """Run whole rounds of items until the next round would overrun
    `seconds` (at least one round).

    Untraced, each item is one call of ``workload.run_item``.  With
    `spans`, each item runs twice, untraced and as a traced
    stage-by-stage replay, in alternating order so that host drift
    falls on both sides alike; the checks then require the replay to
    reproduce the untraced result.
    """
    outcome = Outcome()
    round_walls: list[float] = []
    started = time.perf_counter()
    index = 0
    for number in itertools.count():
        elapsed = time.perf_counter() - started
        if round_walls and (elapsed + statistics.median(round_walls)
                            > seconds):
            break
        if limit is not None and outcome.attempted >= limit:
            break
        items = workload.round_items(number)
        if limit is not None:
            items = items[:limit - outcome.attempted]
        round_started = time.perf_counter()
        for item in items:
            outcome.attempted += 1
            traced_first = spans is not None and index % 2 == 1
            index += 1
            try:
                if traced_first:
                    traced, traced_wall = _traced(workload, item, spans)
                clock = time.perf_counter()
                result = workload.run_item(item)
                wall = time.perf_counter() - clock
                if spans is not None and not traced_first:
                    traced, traced_wall = _traced(workload, item, spans)
            except Exception as error:  # one failed operation
                outcome.fail(item, error)
                continue
            outcome.latencies.append(wall)
            outcome.done.append((item, result))
            if spans is not None:
                outcome.traced_latencies.append(traced_wall)
                outcome.traced.append((item, traced))
        round_walls.append(time.perf_counter() - round_started)
        if items:
            outcome.round_rates.append(len(items) / round_walls[-1])
    outcome.wall = time.perf_counter() - started
    return outcome


class InProcess:
    """Defaults for the workloads that run inside the benchmark's own
    process: one set-up phase, the round loop above, own memory."""

    def setup(self, phases: "Phases") -> None:
        with phases.phase("inputs"):
            self.make_inputs()

    def run(self, seconds: float, limit: int | None = None,
            spans: Spans | None = None) -> Outcome:
        return run_rounds(self, seconds, limit, spans)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_self()

    def close(self) -> None:
        pass


def _traced(workload, item, spans: Spans):
    clock = time.perf_counter()
    with spans.span("item", item=repr(item)):
        result = workload.trace_item(item, spans)
    return result, time.perf_counter() - clock


def latency_metrics(outcome: Outcome) -> dict:
    """items_per_s (median over rounds) and item latency percentiles."""
    lat = outcome.latencies
    return {
        "items_per_s": statistics.median(outcome.round_rates),
        "item_p50_ms": 1000.0 * statistics.median(lat),
        "item_p95_ms": 1000.0 * nearest_rank(lat, 0.95),
    }

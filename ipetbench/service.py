"""The ``service-replay`` workload: a closed loop against ``repro serve``.

CLIENTS client threads (one connection each) submit a seeded stream of
``small``-grade generated source jobs to a ``repro serve`` process with
a process pool of CLIENTS workers, ``--journal`` and ``--cache-dir``.
Every REPEAT_EVERY-th job repeats an earlier spec of the stream, so the
cache serves reads next to the writes of fresh jobs.

The repeat share is an assumption, not an observed one: the only
traffic the repository replays (the CI corpus replay) submits distinct
specs.  One job in four gives cache reads a quarter of the jobs, enough
for a change to the read path to move the median latency, while fresh
jobs (cache writes and journal frames) keep three quarters.

Latency runs from just before the submit to the arrival of the job's
terminal event on the ``/v1/events`` stream, which one listener thread
reads; ``ServiceClient.wait()`` is not used, because its 50 ms poll
would quantize latencies of about 20 ms.
"""

from __future__ import annotations

import http.client
import itertools
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from .harness import OUT, Outcome, peak_rss_mb_tree, program_env

CLIENTS = max(1, min(2, os.cpu_count() or 1))
REPEAT_EVERY = 4
#: A repeat names a spec at least this many places earlier, which has
#: almost always completed by then.
REPEAT_DISTANCE = 8
#: Completions per throughput window; items_per_s is the median window.
WINDOW = 50
#: Jobs generated in set-up per second of the timed phase (about 1.7
#: times the rate of a 2-vCPU host); a faster host extends the stream
#: in the timed phase, outside the latency window.
STREAM_PER_SECOND = 160
WAIT_SECONDS = 60.0


class Listener(threading.Thread):
    """Reads the ``/v1/events`` stream and records, per job id, the
    arrival time and payload of its terminal event."""

    def __init__(self, port: int):
        super().__init__(name="ipetbench-events", daemon=True)
        self.port = port
        self.terminal: dict[str, tuple] = {}
        self.cond = threading.Condition()
        self.connected = threading.Event()
        self.error: BaseException | None = None

    def run(self):
        from repro.obs.stream import parse_sse_stream

        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=None)
        try:
            connection.request("GET", "/v1/events",
                               headers={"Accept": "text/event-stream"})
            response = connection.getresponse()
            self.connected.set()
            for event in parse_sse_stream(response):
                if event.get("type") in ("job_done", "job_failed"):
                    now = time.perf_counter()
                    with self.cond:
                        self.terminal[event["job"]] = (now, event)
                        self.cond.notify_all()
        except (OSError, http.client.HTTPException) as error:
            self.error = error
        finally:
            self.connected.set()
            connection.close()
            with self.cond:
                self.cond.notify_all()

    def wait_for(self, job: str, timeout: float) -> tuple:
        deadline = time.monotonic() + timeout
        with self.cond:
            while job not in self.terminal:
                left = deadline - time.monotonic()
                if left <= 0 or not self.is_alive():
                    raise TimeoutError(f"no terminal event for {job}"
                                       f" (event stream: {self.error})")
                self.cond.wait(left)
            return self.terminal[job]


class ServiceReplay:
    name = "service-replay"

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.server = None
        self.listener = None
        self.rundir = OUT / f"service-{os.getpid()}"

    # -- set-up ---------------------------------------------------------
    def imports(self):
        import repro.obs.stream  # noqa: F401
        import repro.service.client  # noqa: F401
        import repro.synth  # noqa: F401

    def make_inputs(self):
        """The start of the seeded job stream."""
        self.rng = random.Random(f"stream:{self.seed}")
        self.fresh = 0
        self.stream: list[tuple] = []
        self.extend_stream(int(self.seconds * STREAM_PER_SECOND) + WINDOW)

    def extend_stream(self, length: int) -> None:
        """Extend the stream, (program seed, spec) per job, to `length`
        jobs; the same seed always gives the same stream."""
        from repro.synth import generate

        while len(self.stream) < length:
            index = len(self.stream)
            if index % REPEAT_EVERY == REPEAT_EVERY - 1 \
                    and index >= REPEAT_DISTANCE:
                entry = self.stream[self.rng.randrange(
                    index - REPEAT_DISTANCE + 1)]
            else:
                pseed = self.seed * 10_000_000 + self.fresh
                self.fresh += 1
                entry = (pseed, generate(pseed, "small").job_spec())
            self.stream.append(entry)

    def start_server(self):
        shutil.rmtree(self.rundir, ignore_errors=True)
        self.rundir.mkdir(parents=True)
        self.log = open(self.rundir / "serve.log", "w")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(CLIENTS),
             "--journal", str(self.rundir / "journal"),
             "--cache-dir", str(self.rundir / "cache")],
            env=program_env(), stdout=subprocess.PIPE,
            stderr=self.log, text=True)
        marker = "listening on http://"
        for line in self.server.stdout:
            if marker in line:
                self.port = int(line.split(marker)[1].split()[0]
                                .rsplit(":", 1)[1])
                break
        else:
            raise RuntimeError("repro serve exited before listening: "
                               + self._log_tail())
        # Keep draining the server's stdout so it can never block.
        threading.Thread(target=self.server.stdout.read, daemon=True,
                         name="ipetbench-serve-stdout").start()
        from repro.service.client import ServiceClient

        self.client = ServiceClient(port=self.port, timeout=WAIT_SECONDS)
        self.client.wait_ready()

    def warm_pool(self):
        """One warm-up job per pool worker, submitted together so that
        every worker starts; their specs are not in the timed stream."""
        from repro.synth import generate

        self.listener = Listener(self.port)
        self.listener.start()
        self.listener.connected.wait(WAIT_SECONDS)
        jobs = [self.client.submit(generate(-1 - k, "small").job_spec())
                ["id"] for k in range(CLIENTS)]
        for job in jobs:
            self.listener.wait_for(job, WAIT_SECONDS)

    def setup(self, phases):
        with phases.phase("inputs"):
            self.make_inputs()
        with phases.phase("server"):
            self.start_server()
        with phases.phase("pool_warm"):
            self.warm_pool()

    def prepare_trace(self):
        """Nothing beyond the untraced set-up."""

    def _log_tail(self) -> str:
        try:
            return (self.rundir / "serve.log").read_text()[-2000:]
        except OSError:
            return ""

    # -- timed phase ----------------------------------------------------
    def run(self, seconds: float, limit: int | None = None,
            spans=None) -> Outcome:
        from repro.service.client import ServiceClient

        outcome = Outcome()
        self.before = self.client.metricz()
        prepared = len(self.stream)
        lock = threading.Lock()
        cursor = itertools.count() if limit is None else iter(range(limit))
        clients = [count_requests(ServiceClient(port=self.port,
                                                timeout=WAIT_SECONDS))
                   for _ in range(CLIENTS)]
        started = time.perf_counter()
        deadline = started + seconds
        results: list[tuple] = []

        def client_loop(client):
            try:
                while time.perf_counter() < deadline:
                    with lock:
                        index = next(cursor, None)
                        if index is not None:
                            self.extend_stream(index + 1)
                    if index is None:
                        return
                    # Whole blocks of REPEAT_EVERY jobs alternate, so
                    # that repeats fall on both sides alike.
                    traced = (spans is not None
                              and index // REPEAT_EVERY % 2 == 1)
                    try:
                        results.append(self._one(client, index, spans
                                                 if traced else None))
                    except Exception as error:  # one failed operation
                        with lock:
                            outcome.fail(index, error)
            finally:
                client.close()

        threads = [threading.Thread(target=client_loop, args=(client,),
                                    name=f"ipetbench-client-{k}")
                   for k, client in enumerate(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        outcome.wall = time.perf_counter() - started
        self.after = self.client.metricz()
        self.requests = sum(client.requests for client in clients)
        if len(self.stream) > prepared:
            print(f"# job stream extended from {prepared} to "
                  f"{len(self.stream)} jobs in the timed phase", flush=True)

        results.sort(key=lambda r: r[3])
        outcome.attempted = len(results) + outcome.failed
        for index, job, submitted, finished, event, traced in results:
            if event.get("type") != "job_done":
                outcome.fail(index, RuntimeError(event.get("error")))
                continue
            latency = finished - submitted
            if traced:
                outcome.traced_latencies.append(latency)
            else:
                outcome.latencies.append(latency)
            outcome.done.append((index, (job, submitted, finished, event)))
        ends = [started] + [f for _, (_, _, f, _) in outcome.done]
        for k in range(WINDOW, len(ends), WINDOW):
            outcome.round_rates.append(WINDOW / (ends[k] - ends[k - WINDOW]))
        if not outcome.round_rates and outcome.done:
            outcome.round_rates.append(len(outcome.done)
                                       / (ends[-1] - started))
        return outcome

    def _one(self, client, index: int, spans) -> tuple:
        spec = self.stream[index][1]
        if spans is None:
            submitted = time.perf_counter()
            job = client.submit(spec)["id"]
            finished, event = self.listener.wait_for(job, WAIT_SECONDS)
            return index, job, submitted, finished, event, False
        with spans.span("item", item=index):
            submitted = time.perf_counter()
            with spans.span("service.submit"):
                job = client.submit(spec)["id"]
            with spans.span("service.wait"):
                finished, event = self.listener.wait_for(job,
                                                         WAIT_SECONDS)
        return index, job, submitted, finished, event, True

    # -- after the timed phase ------------------------------------------
    def peak_rss_mb(self) -> float:
        return peak_rss_mb_tree(self.server.pid)

    def close(self):
        if self.server is not None and self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait(timeout=30)
        if self.listener is not None:
            self.listener.join(timeout=10)
        if self.server is not None:
            self.log.close()
        shutil.rmtree(self.rundir, ignore_errors=True)

    def check(self, outcome, layers) -> list[str]:
        """Served intervals against in-process HiGHS analyses of the
        same specs; repeats of a completed spec must be cache hits with
        the identical interval."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        problems = []
        first: dict[int, tuple] = {}
        served = sorted({self.stream[index][0] for index, _ in outcome.done})
        with ProcessPoolExecutor(
                CLIENTS, mp_context=multiprocessing.get_context("spawn")) \
                as pool:
            oracle = dict(zip(served, pool.map(highs_interval, served,
                                               chunksize=32)))
        for index, (job, submitted, finished, event) in sorted(
                outcome.done, key=lambda d: d[1][1]):
            pseed = self.stream[index][0]
            interval = (event["best"], event["worst"])
            if interval != oracle[pseed]:
                problems.append(f"job {job}: served {interval} != HiGHS "
                                f"{oracle[pseed]}")
            earlier = first.get(pseed)
            if earlier is None:
                first[pseed] = (finished, interval)
            elif earlier[0] < submitted and not event.get("cache_hit"):
                problems.append(f"job {job}: repeat of a completed spec "
                                "was not a cache hit")
        return problems

    def layer_metrics(self, outcome, layers: dict) -> dict:
        def delta(name):
            return (self.after.get(name, {}).get("value", 0)
                    - self.before.get(name, {}).get("value", 0))

        hits = delta("engine.cache.hits.job")
        misses = delta("engine.cache.misses.job")
        records = [self.client.job(job)
                   for _, (job, _, _, _) in outcome.done]
        jobs = outcome.attempted
        queue_s = statistics.fmean(r["queue_seconds"] or 0.0
                                   for r in records)
        run_s = statistics.fmean(r["run_seconds"] or 0.0 for r in records)
        submit_s = layers["service.submit"]["total"] \
            / layers["service.submit"]["calls"]
        return {
            "engine.cache_hits": hits,
            "engine.cache_misses": misses,
            "engine.cache_hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            "service.queue_s": queue_s,
            "service.run_s": run_s,
            # Requests the client threads sent in the timed phase,
            # reconnect retries included.
            "service.http_requests": self.requests / jobs,
            "service.journal_frames": delta("service.journal.records")
            / jobs,
            "service.journal_write_s":
            delta("service.journal.write_seconds") / jobs,
            # The workers' own stage timings and solver counters
            # (``/metricz``); the compile stage includes the front end.
            "codegen.compile_s": delta("engine.stage_seconds.compile")
            / jobs,
            "cfg.build_s": delta("engine.stage_seconds.cfg") / jobs,
            "constraints.build_s":
            delta("engine.stage_seconds.constraints") / jobs,
            "constraints.sets_solved": delta("engine.sets.solved") / jobs,
            "ilp.solve_s": delta("engine.stage_seconds.solve") / jobs,
            "ilp.lp_calls": delta("engine.lp_calls") / jobs,
            "ilp.simplex_iterations": delta("engine.simplex_iterations")
            / jobs,
            "ilp.bb_nodes": delta("engine.nodes") / jobs,
            # No layer is timed inside the benchmark's process: the
            # covered share of a job is its submit, queue and run time.
            "trace.coverage": (submit_s + queue_s + run_s)
            / statistics.fmean(outcome.latencies),
        }


def count_requests(client):
    """Make a ``ServiceClient`` count, in ``client.requests``, the HTTP
    requests it sends, the retry of a request on a fresh connection
    included; returns it.  The client must be used by one thread."""
    connection_for = client._connection
    client.requests = 0

    def counted_connection():
        connection = connection_for()
        if not getattr(connection, "ipetbench_counted", False):
            send = connection.request

            def request(*args, **kwargs):
                client.requests += 1
                return send(*args, **kwargs)

            connection.request = request
            connection.ipetbench_counted = True
        return connection

    client._connection = counted_connection
    return client


def highs_interval(pseed: int) -> tuple:
    """The in-process HiGHS-backed interval of one stream program."""
    from repro.synth import generate

    return generate(pseed, "small").analysis(
        backend="scipy").estimate().interval

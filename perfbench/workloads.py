"""The four workloads (see README.md for why each exists).

Each workload builds the system under test through the public API,
drives it from one client thread, and checks every result it receives
against the oracle.  The workload seed drives a private RNG that picks
the order of benchmark rows and a fresh run seed for every operation;
the system only ever sees the generated requests.
"""

from __future__ import annotations

import http.client
import itertools
import json
import multiprocessing
import os
import random
import shutil
import threading
import time
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from metrics import TOOLS, JobSeen, Sample
from oracle import SCALE_BENCHMARK
from tracing import Tracer

from repro.api import (
    ApiError,
    BenchmarkService,
    JobStatus,
    RunRequest,
    RunResponse,
    make_server,
)
from repro.cluster import run_agent
from repro.core.stages import Pipeline
from repro.exec import FleetJobManager
from repro.middleware import build_chain
from repro.suite.registry import TABLE2_ORDER

#: the row every set-up completes as its first operation
WARMUP = ("open", "spade")
#: client poll intervals: in-process manager, fleet backlog, HTTP
POLL_S = 0.002
FLEET_POLL_S = 0.05
HTTP_POLL_S = 0.005
#: a fleet worker's idle poll (the FleetJobManager default)
WORKER_POLL_S = 0.05
HTTP_TOKEN = "perfbench-token"
#: finished records a long-running fleet keeps; the fill brings it there
FINISHED_CAP = FleetJobManager.MAX_FINISHED_JOBS
#: jobs a tiny run fills and sends per burst
TINY_FILL = 6
FILL_TIMEOUT_S = 120.0

Case = Tuple[str, str]

#: every CPU this process may use, the one its Python threads share,
#: and the ones left for a fleet's worker processes
ALL_CPUS = frozenset(os.sched_getaffinity(0))
ONE_CPU = frozenset({min(ALL_CPUS)})
OTHER_CPUS = ALL_CPUS - ONE_CPU or ALL_CPUS


def pin(cpus, pid: int = 0) -> None:
    """Run the calling thread (or process ``pid``), and every thread and
    process it starts from now on, on ``cpus``.

    The benchmark process's threads take turns on one interpreter lock.
    On a virtual machine, a hand-off to a thread on another, idle CPU
    wakes that CPU through the hypervisor, and how long that takes
    follows the host's load rather than the program.  On one CPU the
    hand-offs stay local (see README.md for the figures).
    """
    os.sched_setaffinity(pid, cpus)


def table2_cases() -> List[Case]:
    return [(name, tool) for name in TABLE2_ORDER for tool in TOOLS]


class Workload:
    """Build / measure / tear down one system under test."""

    name = ""
    #: set-ups per run; the first ones are torn down, the last measured
    setup_repeats = 15
    #: seconds set-up spent bringing the system to its measured state
    #: before the first set-up (the fleet workloads' spool fill)
    fill_s = 0.0

    def __init__(self, seed: int, oracle, workdir: Path, tiny: bool = False):
        self.rng = random.Random(seed)
        self.oracle = oracle
        self.workdir = Path(workdir)
        self.tiny = tiny
        self.setup: List[float] = []
        #: operations completed while setting up (verified too)
        self.warm = Sample()
        self._planes = itertools.count()

    def fresh_seed(self) -> int:
        return self.rng.randrange(1, 2 ** 31)

    def passes(self, cases: List[Case]) -> Iterator[Case]:
        """Every case once per pass, each pass in a fresh order."""
        while True:
            order = list(cases)
            self.rng.shuffle(order)
            yield from order

    def plane(self) -> Path:
        path = self.workdir / f"plane{next(self._planes)}"
        path.mkdir(parents=True)
        return path

    def prepare(self) -> None:
        # this process's threads share one CPU from the first set-up on
        # (a fleet's fill before it uses every CPU; see pin)
        pin(ONE_CPU)
        repeats = 1 if self.tiny else self.setup_repeats
        for attempt in range(repeats):
            if attempt:
                self.stop()
            self.setup.append(self.start())

    def start(self, tracer: Optional[Tracer] = None) -> float:
        """Build the system and complete its first operation; returns
        the seconds that took.  ``tracer`` instruments what only
        set-up exercises."""
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer: Tracer) -> Sample:
        raise NotImplementedError


class _InProcess(Workload):
    """Shared parts of the two workloads that run the pipeline in this
    process: a service per set-up and a direct or job-manager op."""

    service: Optional[BenchmarkService] = None

    def stop(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def instrument(self, tracer: Tracer) -> None:
        tracer.wrap(
            self.service, "run", "api.service.run",
            before=lambda request, progress=None: {"seed": request.seed},
        )
        tracer.wrap(Pipeline, "run", "core.stages.pipeline")


class Table2Sweep(_InProcess):
    """Every Table 2 row x tool as a single-row async job, closed loop."""

    name = "table2-sweep"

    def start(self, tracer: Optional[Tracer] = None) -> float:
        began = time.perf_counter()
        self.service = BenchmarkService()
        self._op(WARMUP, self.warm, Tracer(False), {})
        return time.perf_counter() - began

    def measure(self, seconds: float, tracer: Tracer) -> Sample:
        sample = Sample()
        self.instrument(tracer)
        tracer.wrap(self.service.jobs, "submit", "api.jobs.submit")
        traces: dict = {}
        cases = table2_cases()
        began = time.perf_counter()
        # whole passes, so every run weighs every row and tool equally
        while True:
            self.rng.shuffle(cases)
            opened, done = time.perf_counter(), sample.ops
            for case in cases[:6] if self.tiny else cases:
                self._op(case, sample, tracer, traces)
            sample.window(done, time.perf_counter() - opened)
            if self.tiny or time.perf_counter() - began >= seconds:
                break
        tracer.close()
        tracer.adopt("seed", traces)
        return sample

    def _op(self, case: Case, sample: Sample, tracer: Tracer, traces) -> None:
        name, tool = case
        seed = self.fresh_seed()
        due = time.perf_counter()
        root = tracer.begin("client.op")
        sample.attempted += 1
        try:
            status = self.service.submit(
                RunRequest(benchmark=name, tool=tool, seed=seed)
            )
        except ApiError as exc:
            sample.refused(f"{name}/{tool}: submit refused: {exc}")
            tracer.end(root)
            return
        sample.submits.append(time.perf_counter() - due)
        tracer.set_trace(root, status.job_id)
        traces[seed] = status.job_id
        while not status.finished:
            time.sleep(POLL_S)
            status = self.service.poll(status.job_id)
        seen = time.time()
        if status.state != "done":
            sample.refused(f"{name}/{tool}: job {status.state}: {status.error}")
        elif sample.verify(self.oracle, status.result.result):
            sample.latencies.append(time.perf_counter() - due)
            sample.jobs.append(JobSeen(status, seen))
            sample.ops += 1
        tracer.end(root)


class ScaleTail(_InProcess):
    """Direct synchronous runs of the scale benchmark on every tool."""

    name = "scale-tail"

    def start(self, tracer: Optional[Tracer] = None) -> float:
        began = time.perf_counter()
        self.service = BenchmarkService()
        self._op(WARMUP, self.warm, Tracer(False))
        return time.perf_counter() - began

    def measure(self, seconds: float, tracer: Tracer) -> Sample:
        sample = Sample()
        self.instrument(tracer)
        began = time.perf_counter()
        # whole passes over the tools, so every run weighs them equally
        while True:
            order = list(TOOLS)
            self.rng.shuffle(order)
            opened, done = time.perf_counter(), sample.ops
            for tool in order:
                self._op((SCALE_BENCHMARK, tool), sample, tracer)
            sample.window(done, time.perf_counter() - opened)
            if self.tiny or time.perf_counter() - began >= seconds:
                break
        tracer.close()
        return sample

    def _op(self, case: Case, sample: Sample, tracer: Tracer) -> None:
        name, tool = case
        seed = self.fresh_seed()
        due = time.perf_counter()
        root = tracer.begin("client.op", f"run-{seed}")
        sample.attempted += 1
        try:
            response = self.service.run(
                RunRequest(benchmark=name, tool=tool, seed=seed)
            )
        except Exception as exc:  # noqa: BLE001 — e.g. SolverLimit escapes run()
            sample.refused(
                f"{name}/{tool} seed {seed}: {type(exc).__name__}: {exc}"
            )
        else:
            if sample.verify(self.oracle, response.result):
                sample.latencies.append(time.perf_counter() - due)
                sample.ops += 1
        tracer.end(root)


def _instrument_fleet(manager: FleetJobManager, tracer: Tracer) -> None:
    """The submit path of a fleet manager: the whole submit (whose
    record scan runs before admission), admission, the spool write."""
    tracer.wrap(manager, "submit", "api.jobs.submit")
    tracer.wrap(manager.admission, "admit", "sched.admission.admit")
    tracer.wrap(
        manager.queue, "submit", "exec.queue.submit",
        after=lambda record: {"trace": record["job_id"]},
    )


class _Fleet(Workload):
    """Shared parts of the two fleet workloads.

    Both measure the state a long-running server settles in.  Set-up
    first fills one plane's spool to the fleet's retention cap with
    finished, verified jobs (:meth:`fill`).  Every set-up then starts the
    system over that plane, as a restarted ``provmark serve`` would, and
    every measured window runs on the last one.  Eviction keeps the
    finished-record count near the cap, so the windows stay alike.
    """

    setup_repeats = 3
    #: who the workload's jobs are submitted as (client id, role)
    client = ("", "")
    manager: Optional[FleetJobManager] = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cases = self.passes(table2_cases())

    def prepare(self) -> None:
        self.root = self.plane()
        began = time.perf_counter()
        self.fill()
        self.fill_s = time.perf_counter() - began
        super().prepare()

    @staticmethod
    def move_workers(count: int) -> None:
        """Move the fleet's ``count`` worker processes, which inherit the
        CPU of the thread that starts them, to the other CPUs, so the
        server's threads and the jobs never take turns on one CPU."""
        deadline = time.monotonic() + FILL_TIMEOUT_S
        while len(multiprocessing.active_children()) < count:
            if time.monotonic() > deadline:
                raise RuntimeError("the fleet's workers did not start")
            time.sleep(POLL_S)
        for worker in multiprocessing.active_children():
            pin(OTHER_CPUS, worker.pid)

    def fill(self) -> None:
        """Run ``FINISHED_CAP`` workload jobs in an earlier life of the
        plane: a fleet of 2 workers, one per core, shut down when done.

        Records go in through the spool's ``JobQueue.submit`` with the
        class admission gives them, which is what ``FleetJobManager.submit``
        writes after its admission pass.  That pass reads every record,
        so submitting through it would make the fill quadratic.
        """
        filler = FleetJobManager(self.root, workers=2)
        client_id, role = self.client
        jobs: List[Tuple[str, Case]] = []
        try:
            for _ in range(TINY_FILL if self.tiny else FINISHED_CAP):
                name, tool = next(self.cases)
                request = RunRequest(
                    benchmark=name, tool=tool, seed=self.fresh_seed(),
                )
                priority = filler.admission.admit(
                    request, "run", role, client_id, active=(),
                )
                record = filler.queue.submit(
                    "run", request.to_payload(), 1,
                    filler.policy.max_attempts, client_id=client_id,
                    priority=priority,
                )
                jobs.append((str(record["job_id"]), (name, tool)))
            deadline = time.monotonic() + FILL_TIMEOUT_S
            while filler.queue.depth()["active"]:
                if time.monotonic() > deadline:
                    raise RuntimeError("the fill did not drain in time")
                time.sleep(FLEET_POLL_S)
            for job_id, (name, tool) in jobs:
                self.warm.attempted += 1
                status = filler.poll(job_id)
                if status.state != "done":
                    self.warm.refused(
                        f"{name}/{tool}: fill job {status.state}: "
                        f"{status.error}"
                    )
                elif self.warm.verify(self.oracle, status.result.result):
                    self.warm.ops += 1
        finally:
            filler.shutdown()


class FleetBacklog(_Fleet):
    """Open-loop bursts into one long-lived fleet at its retention cap:
    one local worker plus one remote agent of one worker, every job of
    a burst due at the burst's t0."""

    name = "fleet-backlog"
    #: jobs per burst (a third of the Table 2 row x tool pass)
    BURST = 44

    def start(self, tracer: Optional[Tracer] = None) -> float:
        began = time.perf_counter()
        self.manager = FleetJobManager(self.root, workers=1, cluster_port=0)
        self._agent_stop = threading.Event()
        self._agent = threading.Thread(
            target=run_agent,
            args=(self.manager.coordinator.address,),
            kwargs=dict(
                workers=1, plane=str(self.root), node_id="perfbench-agent",
                stop_event=self._agent_stop,
            ),
            name="perfbench-agent",
            daemon=True,
        )
        self._agent.start()
        while self.manager.cluster_summary()["nodes"] < 1:
            if not self._agent.is_alive():
                raise RuntimeError("the agent could not join the coordinator")
            time.sleep(POLL_S)
        # the local worker and the agent's
        self.move_workers(2)
        self.service = BenchmarkService(jobs=self.manager)
        self._burst([WARMUP], self.warm, Tracer(False))
        return time.perf_counter() - began

    def stop(self) -> None:
        if self.manager is None:
            return
        self._agent_stop.set()
        self._agent.join(timeout=60.0)
        self.manager.shutdown()
        self.service.close()
        self.manager = None

    def measure(self, seconds: float, tracer: Tracer) -> Sample:
        sample = Sample()
        sample.fleet = True
        self._instrument(tracer)
        counters = self.manager.cluster_stats()["counters"]
        began = time.perf_counter()
        while True:
            burst = [
                next(self.cases)
                for _ in range(TINY_FILL if self.tiny else self.BURST)
            ]
            self._burst(burst, sample, tracer)
            sample.fleet_jobs += len(burst)
            if self.tiny or time.perf_counter() - began >= seconds:
                break
        after = self.manager.cluster_stats()["counters"]
        tracer.close()
        sample.remote_claims += after["claims_total"] - counters["claims_total"]
        sample.conn_drops += (
            after["conn_drops_total"] - counters["conn_drops_total"]
        )
        return sample

    def _instrument(self, tracer: Tracer) -> None:
        _instrument_fleet(self.manager, tracer)
        queue = self.manager.coordinator.queue
        tracer.wrap(
            queue, "claim", "exec.queue.claim",
            before=lambda owner, now=None: {
                "depth": queue.depth()["pending"],
            },
            after=lambda record: {
                "claimed": record is not None,
                "trace": record["job_id"] if record else "",
            },
        )
        tracer.wrap(
            queue, "complete", "exec.queue.complete",
            trace_of=lambda job_id, **_: job_id,
        )

    def _burst(self, cases: List[Case], sample: Sample, tracer: Tracer) -> None:
        t0 = time.perf_counter()
        pending: List[Tuple[str, Case]] = []
        for name, tool in cases:
            span = tracer.begin("client.submit")
            submitted = time.perf_counter()
            sample.attempted += 1
            try:
                status = self.service.submit(RunRequest(
                    benchmark=name, tool=tool, seed=self.fresh_seed(),
                ))
            except ApiError as exc:
                sample.refused(f"{name}/{tool}: submit refused: {exc}")
                tracer.end(span)
                continue
            sample.submits.append(time.perf_counter() - submitted)
            tracer.end(span)
            tracer.set_trace(span, status.job_id)
            pending.append((status.job_id, (name, tool)))
        sample.lateness.append(time.perf_counter() - t0)
        done = sample.ops
        last = t0
        while pending:
            waiting = []
            for job_id, (name, tool) in pending:
                status = self.service.poll(job_id)
                if not status.finished:
                    waiting.append((job_id, (name, tool)))
                    continue
                now = time.perf_counter()
                seen = time.time()
                if status.state != "done":
                    sample.refused(
                        f"{name}/{tool}: job {status.state}: {status.error}"
                    )
                elif sample.verify(self.oracle, status.result.result):
                    sample.latencies.append(now - t0)
                    sample.jobs.append(JobSeen(status, seen))
                    sample.ops += 1
                tracer.add("client.op", job_id, t0, now)
                last = now
            pending = waiting
            if pending:
                time.sleep(FLEET_POLL_S)
        sample.window(done, last - t0)


class InteractiveHttp(_Fleet):
    """One HTTP client against ``provmark serve --workers 1
    --middleware`` at its retention cap: fresh async runs alternating
    with cached replays."""

    name = "interactive-http"
    client = ("perfbench", "submit")
    #: fresh + replay turns per measured sub-window
    WINDOW_TURNS = 10

    server = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.hot: List[Tuple[str, str, int]] = []
        self._hot_cached = False

    def draw_hot(self) -> None:
        """A new hot set; the next start warms it into the cache."""
        cases = table2_cases()
        self.hot = [
            (name, tool, self.fresh_seed())
            for name, tool in self.rng.sample(cases, 2 if self.tiny else 6)
        ]
        self._hot_cached = False

    def start(self, tracer: Optional[Tracer] = None) -> float:
        """Start the server and complete one fresh run through it.

        The hot set is warmed after that, untimed: the response cache
        is on disk, so a restarted server still holds it.  A
        traced start draws a new hot set, whose warming is where the
        response cache saves.
        """
        began = time.perf_counter()
        self.manager = FleetJobManager(self.root, workers=1)
        self.move_workers(1)
        self.chain = build_chain({
            "metrics": True,
            "auth": {"tokens": {
                HTTP_TOKEN: {"client": "perfbench", "role": "submit"},
            }},
            "idempotency": {"store": str(self.workdir / "responses")},
        })
        if tracer is not None:
            self.draw_hot()
            store = self._idempotency().store
            tracer.wrap(store, "load", "storage.artifacts.load")
            tracer.wrap(store, "save", "storage.artifacts.save")
        self.service = BenchmarkService(jobs=self.manager)
        self.server = make_server(self.service, port=0, chain=self.chain)
        self._serving = threading.Thread(
            target=self.server.serve_forever, name="perfbench-http",
            daemon=True,
        )
        self._serving.start()
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.server_address[1], timeout=120
        )
        quiet = Tracer(False)
        self._fresh(WARMUP, self.warm, quiet)
        took = time.perf_counter() - began
        if not self.hot:
            self.draw_hot()
        if not self._hot_cached:
            for hot in self.hot:
                self._replay(hot, self.warm, quiet, cached=False)
            self._hot_cached = True
        return took

    def stop(self) -> None:
        if self.server is None:
            return
        self.conn.close()
        self.server.shutdown()
        self.server.server_close()
        self._serving.join(timeout=60.0)
        self.manager.shutdown()
        self.service.close()
        self.server = None

    def measure(self, seconds: float, tracer: Tracer) -> Sample:
        """Sub-windows of ``WINDOW_TURNS`` turns on the one server."""
        sample = Sample()
        sample.fleet = True
        self._instrument(tracer)
        store = self._idempotency().store
        hits, misses = store.stats.hits, store.stats.misses
        began = time.perf_counter()
        turns = itertools.count()
        while True:
            opened, done = time.perf_counter(), sample.ops
            for _ in range(1 if self.tiny else self.WINDOW_TURNS):
                turn = next(turns)
                # a think time of up to one worker poll: submits in
                # lockstep would land at one phase of the worker's idle
                # poll, and every pick-up would wait the same
                time.sleep(self.rng.uniform(0.0, WORKER_POLL_S))
                self._fresh(next(self.cases), sample, tracer)
                self._replay(self.hot[turn % len(self.hot)], sample, tracer)
            sample.window(done, time.perf_counter() - opened)
            if self.tiny or time.perf_counter() - began >= seconds:
                break
        tracer.close()
        sample.cache_hits += store.stats.hits - hits
        sample.cache_lookups += (
            store.stats.hits - hits + store.stats.misses - misses
        )
        return sample

    def _idempotency(self):
        return next(
            mw for mw in self.chain.middlewares if mw.name == "idempotency"
        )

    def _instrument(self, tracer: Tracer) -> None:
        _instrument_fleet(self.manager, tracer)
        tracer.wrap(
            self.chain, "dispatch", "middleware.chain.dispatch",
            trace_of=lambda ctx, handler: ctx.request_id,
            before=lambda ctx, handler: {"method": ctx.method},
        )
        for mw in self.chain.middlewares:
            tracer.wrap(
                mw, "on_request", f"middleware.{mw.name}.on_request",
                trace_of=lambda ctx: ctx.request_id,
            )
            tracer.wrap(
                mw, "on_response", f"middleware.{mw.name}.on_response",
                trace_of=lambda ctx, response: ctx.request_id,
            )

    def _call(self, method: str, path: str, body, tracer: Tracer):
        span = tracer.begin("api.http.request")
        data = json.dumps(body).encode("utf-8") if body is not None else None
        try:
            self.conn.request(method, path, body=data, headers={
                "Authorization": f"Bearer {HTTP_TOKEN}",
                "Content-Type": "application/json",
            })
            response = self.conn.getresponse()
            payload = json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError):
            self.conn.close()
            tracer.end(span)
            raise
        tracer.end(span)
        tracer.set_trace(span, response.getheader("X-Request-Id") or "")
        return response, payload

    def _fresh(self, case: Case, sample: Sample, tracer: Tracer) -> None:
        name, tool = case
        due = time.perf_counter()
        root = tracer.begin("client.op")
        sample.attempted += 1
        try:
            response, payload = self._call("POST", "/v1/runs", {
                "benchmark": name, "tool": tool, "seed": self.fresh_seed(),
            }, tracer)
            if response.status != 202:
                raise _Refused(f"submit answered {response.status}: {payload}")
            sample.submits.append(time.perf_counter() - due)
            job_id = str(payload["job_id"])
            tracer.set_trace(root, job_id)
            while payload["state"] not in ("done", "failed", "cancelled"):
                time.sleep(HTTP_POLL_S)
                response, payload = self._call(
                    "GET", f"/v1/jobs/{job_id}", None, tracer
                )
                if response.status != 200:
                    raise _Refused(f"poll answered {response.status}")
            seen = time.time()
            status = JobStatus.from_payload(payload)
            if status.state != "done":
                raise _Refused(f"job {status.state}: {status.error}")
        except (_Refused, ApiError, OSError, http.client.HTTPException,
                ValueError) as exc:
            sample.refused(f"{name}/{tool}: {exc}")
        else:
            if sample.verify(self.oracle, status.result.result):
                sample.latencies.append(time.perf_counter() - due)
                sample.jobs.append(JobSeen(status, seen))
                sample.ops += 1
        tracer.end(root)

    def _replay(
        self, hot, sample: Sample, tracer: Tracer, cached: bool = True
    ) -> None:
        name, tool, seed = hot
        due = time.perf_counter()
        root = tracer.begin("client.op")
        sample.attempted += 1
        try:
            response, payload = self._call("POST", "/v1/runs", {
                "benchmark": name, "tool": tool, "seed": seed, "wait": True,
            }, tracer)
            if response.status != 200:
                raise _Refused(f"run answered {response.status}: {payload}")
            if cached and not response.getheader("X-Idempotent-Replay"):
                raise _Refused("not answered from the response cache")
            result = RunResponse.from_payload(payload).result
        except (_Refused, ApiError, OSError, http.client.HTTPException,
                ValueError) as exc:
            sample.refused(f"{name}/{tool} replay: {exc}")
        else:
            if sample.verify(self.oracle, result):
                if cached:
                    sample.replays.append(time.perf_counter() - due)
                sample.ops += 1
        tracer.end(root)


class _Refused(Exception):
    """An HTTP operation the service answered with a failure."""


WORKLOADS = {
    cls.name: cls
    for cls in (Table2Sweep, ScaleTail, FleetBacklog, InteractiveHttp)
}


def cleanup(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)

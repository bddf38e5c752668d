"""Async job manager behind ``BenchmarkService.submit/poll/cancel``.

Jobs run on a shared :class:`~concurrent.futures.ThreadPoolExecutor`;
each job thread drives the same façade entry points a synchronous caller
would (``service.run`` / ``service.run_batch``), so results are
byte-identical either way.  A batch job with ``max_workers > 1`` fans
its benchmarks over ``run_many``'s process-pool workers — at the cost of
per-stage progress and mid-sweep cancellation, which need the serial
in-process path (stage events cannot cross process boundaries).

Progress flows the other way through the :class:`Pipeline`'s
stage-boundary hook: every :class:`~repro.core.stages.ProgressEvent` a
job's pipeline emits updates that job's record, and the same hook is the
cancellation point — ``cancel()`` marks the job, and the next stage
boundary raises :class:`JobCancelled` out of the pipeline, aborting the
run without killing the worker thread.  A queued job cancels
immediately; a cancelled running job stops at the next boundary.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Deque, Dict, List, Optional, Tuple

from repro.api.errors import (
    ApiError,
    BackpressureError,
    NotFoundError,
    ValidationError,
    render_error,
)
from repro.api.types import JobStatus, RunResponse
from repro.core.stages import ProgressEvent
from repro.sched.admission import AdmissionController
from repro.sched.policy import (
    DEFAULT_CLASS_BY_KIND,
    PRIORITY_CLASSES,
    summarize_class_stats,
    zeroed_class_stats,
)


class JobCancelled(Exception):
    """Raised inside a job's pipeline when its cancellation was requested."""


class _Job:
    """Mutable job record; snapshots go out as frozen JobStatus values."""

    def __init__(
        self,
        job_id: str,
        kind: str,
        total: int,
        client_id: str = "",
        request_id: str = "",
        priority: str = "",
    ) -> None:
        self.job_id = job_id
        self.kind = kind
        self.client_id = client_id
        self.request_id = request_id
        self.priority = priority
        self.state = "queued"
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.total = total
        self.completed = 0
        self.stage = ""
        self.error = ""
        self.attempts = 0
        self.result: Optional[RunResponse] = None
        self.results: Optional[Tuple[RunResponse, ...]] = None
        self.report = None  # SynthReport for synthesis jobs
        self.cancel_requested = threading.Event()
        self.future: Optional[Future] = None

    def snapshot(self) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            kind=self.kind,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            total=self.total,
            completed=self.completed,
            stage=self.stage,
            error=self.error,
            attempts=self.attempts,
            client_id=self.client_id,
            request_id=self.request_id,
            priority=self.priority,
            queue_wait=(
                max(0.0, self.started_at - self.submitted_at)
                if self.started_at is not None else None
            ),
            result=self.result,
            results=self.results,
            report=self.report,
        )


class JobManager:
    """Thread-pool execution of submitted run/batch requests."""

    #: finished job records retained for polling; the oldest are evicted
    #: beyond this, bounding a long-running server's memory (each record
    #: holds full result graphs)
    MAX_FINISHED_JOBS = 256

    def __init__(
        self,
        max_workers: int = 4,
        capacity: Optional[int] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self._max_workers = max(1, max_workers)
        #: queued+running jobs admitted before submit() answers 429
        #: (None = unbounded, the historical behavior)
        self._capacity = capacity
        #: optional scheduler gate (priority classes + quotas).  The
        #: thread pool itself stays FIFO — true priority claim order
        #: needs the durable fleet queue — but quotas are enforced and
        #: the class/queue-wait are stamped onto every snapshot, so the
        #: API contract is identical across both managers.
        self._admission = admission
        self._pool: Optional[ThreadPoolExecutor] = None
        self._jobs: Dict[str, _Job] = {}
        self._lock = threading.RLock()
        self._seq = itertools.count(1)
        self._closed = False
        self._evicted = 0
        #: recent job wall-clock durations, for the Retry-After estimate
        self._durations: Deque[float] = deque(maxlen=32)

    # -- public API ---------------------------------------------------------

    def submit(
        self,
        service,
        request,
        kind: str,
        total: int,
        client_id: str = "",
        request_id: str = "",
        role: str = "",
    ) -> JobStatus:
        """Queue a validated run/batch job (``kind``/``total`` resolved
        by the service, which already expanded the benchmark list).

        ``client_id``/``request_id`` are correlation-only: the HTTP
        layer stamps the auth-resolved client and per-request id onto
        the job record so access-log lines and job snapshots join up.
        ``role`` feeds the admission controller (when one is
        configured): explicit priorities validate against it and quotas
        resolve through it.
        """
        with self._lock:
            if self._closed:
                raise ValidationError(
                    "job manager is shut down; no new jobs accepted"
                )
            if self._admission is not None:
                priority = self._admission.admit(
                    request, kind, role, client_id,
                    active=(
                        (job.client_id, job.state)
                        for job in self._jobs.values()
                    ),
                    retry_after=self._retry_after_estimate,
                )
            else:
                explicit = getattr(request, "priority", None)
                priority = (
                    str(explicit) if explicit
                    else DEFAULT_CLASS_BY_KIND.get(kind, "batch")
                )
            if self._capacity is not None:
                active = sum(
                    1 for job in self._jobs.values()
                    if job.state in ("queued", "running")
                )
                if active >= self._capacity:
                    raise BackpressureError(
                        f"job queue is at capacity "
                        f"({active}/{self._capacity} active jobs); "
                        f"retry later",
                        retry_after=self._retry_after_estimate(),
                    )
            # The unguessable suffix is the only access control on job
            # ids (they are capability tokens over /v1/jobs), so use the
            # full 128 bits of uuid4, not a truncation.
            job_id = f"job-{next(self._seq):04d}-{uuid.uuid4().hex}"
            job = _Job(job_id, kind, total, client_id, request_id, priority)
            self._jobs[job_id] = job
            self._evict_finished()
            job.future = self._executor().submit(
                self._run_job, service, job, request
            )
            # snapshot under the lock: the worker thread may already be
            # flipping the job to "running"
            return job.snapshot()

    def poll(self, job_id: str) -> JobStatus:
        """A point-in-time status snapshot (NotFoundError for bad ids)."""
        with self._lock:
            return self._get(job_id).snapshot()

    def cancel(self, job_id: str) -> JobStatus:
        """Request cancellation; queued jobs stop now, running ones at
        the next stage boundary."""
        with self._lock:
            job = self._get(job_id)
            job.cancel_requested.set()
            if job.state == "queued" and job.future is not None:
                if job.future.cancel():
                    job.state = "cancelled"
                    job.finished_at = time.time()
            return job.snapshot()

    def jobs(self) -> List[JobStatus]:
        """Snapshots of every job this manager has seen, oldest first."""
        with self._lock:
            return [job.snapshot() for job in self._jobs.values()]

    def queue_stats(self) -> Dict[str, object]:
        """Queue depth and churn counters for ``GET /v1/health``.

        ``evicted`` is the total finished-job records dropped by the
        retention cap — the counter that explains why an old job id now
        404s instead of leaving the eviction silent.
        """
        with self._lock:
            pending = sum(
                1 for job in self._jobs.values() if job.state == "queued"
            )
            leased = sum(
                1 for job in self._jobs.values() if job.state == "running"
            )
            priorities = {name: 0 for name in PRIORITY_CLASSES}
            for job in self._jobs.values():
                if job.state == "queued":
                    cls = job.priority or DEFAULT_CLASS_BY_KIND.get(
                        job.kind, "batch"
                    )
                    if cls in priorities:
                        priorities[cls] += 1
            return {
                "pending": pending,
                "leased": leased,
                "active": pending + leased,
                "capacity": self._capacity,
                "evicted": self._evicted,
                "workers": self._max_workers,
                "priorities": priorities,
                "promotions": self.promotions(),
            }

    def promotions(self) -> int:
        """Aging promotions ever: always 0, the thread pool never ages
        jobs (the fleet manager's counterpart reads its spool)."""
        return 0

    def sched_stats(self) -> Dict[str, object]:
        """Per-class depth/wait stats, shape-compatible with the fleet
        manager's (the thread pool never promotes, so ``promotions``
        stays 0)."""
        now = time.time()
        with self._lock:
            per: Dict[str, Dict[str, object]] = zeroed_class_stats()
            for job in self._jobs.values():
                cls = job.priority or DEFAULT_CLASS_BY_KIND.get(
                    job.kind, "batch"
                )
                row = per.get(cls)
                if row is None:
                    continue
                if job.state == "queued":
                    row["pending"] += 1
                    row["waits"].append(max(0.0, now - job.submitted_at))
                elif job.state == "running":
                    row["running"] += 1
                if job.started_at is not None:
                    row["waits"].append(
                        max(0.0, job.started_at - job.submitted_at)
                    )
        return {
            "classes": summarize_class_stats(per),
            "promotions": self.promotions(),
        }

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful drain: refuse new jobs, wait out in-flight ones.

        Returns True when every queued/running job reached a terminal
        state within ``timeout`` seconds; False means jobs were still in
        flight when the budget ran out (the caller decides whether to
        escalate to ``shutdown(cancel=True)``).
        """
        with self._lock:
            self._closed = True
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            with self._lock:
                active = any(
                    job.state in ("queued", "running")
                    for job in self._jobs.values()
                )
            if not active:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.05)

    def shutdown(self, wait: bool = True, cancel: bool = False) -> None:
        """Stop accepting jobs and release the worker pool.

        ``cancel=True`` additionally requests cancellation of every
        queued and running job first (running pipelines stop at their
        next stage boundary), so ``wait=True`` returns promptly instead
        of sitting out in-flight sweeps — the ``provmark serve``
        Ctrl-C path.  Job records stay pollable after shutdown.
        """
        with self._lock:
            self._closed = True
            if cancel:
                for job in self._jobs.values():
                    if job.state in ("queued", "running"):
                        job.cancel_requested.set()
                        if job.future is not None and job.future.cancel():
                            job.state = "cancelled"
                            job.finished_at = time.time()
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    # -- internals ----------------------------------------------------------

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="provmark-job",
            )
        return self._pool

    def _evict_finished(self) -> None:
        """Drop the oldest finished job records past the retention cap.

        Called under the lock.  In-flight (queued/running) jobs are
        never evicted, so a terminal ``poll`` can only miss after
        another ``MAX_FINISHED_JOBS`` jobs have since completed.
        """
        finished = [
            job_id for job_id, job in self._jobs.items()
            if job.state in ("done", "failed", "cancelled")
        ]
        for job_id in finished[:max(0, len(finished) - self.MAX_FINISHED_JOBS)]:
            del self._jobs[job_id]
            self._evicted += 1

    def _retry_after_estimate(self) -> float:
        """Suggested client wait when the queue is full (under the lock):
        roughly one recently observed job duration, bounded to [1, 60]."""
        if not self._durations:
            return 1.0
        typical = sorted(self._durations)[len(self._durations) // 2]
        return min(60.0, max(1.0, typical))

    def _get(self, job_id: str) -> _Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            # Deliberately does not list known ids: job ids are the only
            # access control on /v1/jobs, so enumerating them in a 404
            # body would let any client find and cancel others' jobs.
            raise NotFoundError(f"unknown job {job_id!r}") from None

    def _run_job(self, service, job: _Job, request) -> None:
        with self._lock:
            if job.cancel_requested.is_set():
                job.state = "cancelled"
                job.finished_at = time.time()
                return
            job.state = "running"
            job.started_at = time.time()
            job.attempts = 1  # the thread pool never retries

        def progress(event: ProgressEvent) -> None:
            if job.cancel_requested.is_set():
                raise JobCancelled(job.job_id)
            with self._lock:
                job.stage = f"{event.benchmark}/{event.stage}:{event.status}"

        def advance(response: RunResponse) -> None:
            with self._lock:
                job.completed += 1

        workers = getattr(request, "max_workers", None)
        try:
            if job.kind == "run":
                response = service.run(request, progress=progress)
                with self._lock:
                    job.result = response
                    job.completed = 1
                    job.state = "done"
            elif job.kind == "synth":
                # the engine's candidate pipelines emit the same
                # stage-boundary events, so progress (and cancellation)
                # work exactly like a serial batch
                report = service.synthesize(request, progress=progress)
                with self._lock:
                    job.report = report
                    job.completed = job.total
                    job.state = "done"
            elif workers is not None and workers > 1:
                # Honor the process-pool fan-out.  Stage boundaries are
                # not observable across worker processes, so progress
                # stays coarse and cancellation only applies before the
                # sweep starts.
                if job.cancel_requested.is_set():
                    raise JobCancelled(job.job_id)
                responses = service.run_batch(request)
                with self._lock:
                    job.results = responses
                    job.completed = len(responses)
                    job.state = "done"
            else:
                responses = service.run_batch(
                    request, progress=progress, on_response=advance
                )
                with self._lock:
                    job.results = responses
                    job.completed = len(responses)
                    job.state = "done"
        except JobCancelled:
            with self._lock:
                job.state = "cancelled"
        except ApiError as exc:
            with self._lock:
                job.state = "failed"
                job.error = render_error(exc)
        except Exception as exc:  # noqa: BLE001 — job threads must not die
            with self._lock:
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {render_error(exc)}"
        finally:
            with self._lock:
                job.finished_at = time.time()
                if job.started_at is not None:
                    self._durations.append(job.finished_at - job.started_at)

"""What a workload measures, and how samples become metrics.

End-to-end metrics are what a client of the service sees; per-layer
metrics come from result records (stage timings, solver counters, job
timestamps) and from the spans of a traced run.  Every per-layer metric
is reported by every workload: a layer the workload's requests never
pass through contributes 0.
"""

from __future__ import annotations

import math
import resource
import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from tracing import Tracer

TOOLS = ("spade", "opus", "camflow")
STAGES = ("recording", "transformation", "generalization", "comparison")
MIDDLEWARES = ("metrics", "auth", "idempotency")

#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10

#: name -> (unit, better) of every end-to-end metric a workload may report
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "submit_latency_p50_ms": ("ms", "lower"),
    "submit_latency_p90_ms": ("ms", "lower"),
    "replay_latency_p50_ms": ("ms", "lower"),
    "generator_lateness_ms": ("ms", "lower"),
    "failed_ratio": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> unit of every per-layer metric (all reported by every workload)
PER_LAYER: Dict[str, str] = {}
for _stage in STAGES:
    PER_LAYER[f"core.stages.{_stage}_ms"] = "ms"
PER_LAYER["solver.native.steps"] = "count"
for _tool in TOOLS:
    PER_LAYER[f"solver.native.steps.{_tool}"] = "count"
PER_LAYER.update({
    "solver.native.searches": "count",
    "solver.native.decomposed_components": "count",
    "api.service.overhead_ms": "ms",
    "api.jobs.submit_ms": "ms",
    "api.jobs.queue_wait_ms": "ms",
    "api.jobs.delivery_ms": "ms",
    "sched.admission.admit_ms": "ms",
    "exec.queue.submit_ms": "ms",
    "exec.queue.claim_ms": "ms",
    "exec.queue.complete_ms": "ms",
    "exec.queue.depth_at_claim": "count",
    "exec.queue.queue_wait_ms": "ms",
    "exec.worker.overhead_ms": "ms",
    "exec.delivery_ms": "ms",
    "exec.worker.attempts_per_job": "count",
    "cluster.remote_claim_share": "ratio",
    "cluster.conn_drops_total": "count",
})
for _mw in MIDDLEWARES:
    PER_LAYER[f"middleware.{_mw}.ms"] = "ms"
PER_LAYER.update({
    "middleware.chain.dispatch_ms": "ms",
    "api.http.overhead_ms": "ms",
    "middleware.idempotency.hit_ratio": "ratio",
    "storage.artifacts.load_ms": "ms",
    "storage.artifacts.save_ms": "ms",
    "trace.overhead_pct": "%",
})


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def has_tail(values: Sequence[float], q: float) -> bool:
    return len(values) * (100.0 - q) / 100.0 >= TAIL_SAMPLES


def p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped
    child (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class JobSeen:
    """The timestamps of a finished job, and when the client saw it."""

    __slots__ = (
        "queue_wait", "started_at", "finished_at", "attempts", "busy",
        "seen_at",
    )

    def __init__(self, status, seen_at: float) -> None:
        self.queue_wait = status.queue_wait
        self.started_at = status.started_at
        self.finished_at = status.finished_at
        self.attempts = status.attempts
        #: seconds the pipeline stages took inside the job
        self.busy = (
            sum(getattr(status.result.result.timings, stage)
                for stage in STAGES)
            if status.result is not None else None
        )
        self.seen_at = seen_at


class Sample:
    """Raw observations from one measurement phase."""

    def __init__(self) -> None:
        #: primary-operation latencies, seconds
        self.latencies: List[float] = []
        self.submits: List[float] = []
        self.replays: List[float] = []
        self.lateness: List[float] = []
        #: completed operations, and the throughput of each sub-window
        #: (a pass, a burst or a fixed number of turns) of the phase
        self.ops = 0
        self.windows: List[float] = []
        #: operations completed and seconds spent in all sub-windows
        self.window_ops = 0
        self.window_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: List[str] = []
        #: (tool, StageTimings) of every verified result; the graphs
        #: themselves are dropped so the harness's heap stays flat
        self.results: List[Tuple[str, object]] = []
        self.jobs: List[JobSeen] = []
        #: whether the jobs ran on the durable fleet (else the thread pool)
        self.fleet = False
        self.remote_claims = 0
        self.fleet_jobs = 0
        self.conn_drops = 0
        self.cache_hits = 0
        self.cache_lookups = 0

    def verify(self, oracle, result) -> bool:
        """Check one result; a wrong one counts as failed."""
        problem = oracle.problem(result)
        if not problem:
            self.results.append((result.tool, result.timings))
            return True
        self.wrong += 1
        self.failed += 1
        self.problems.append(problem)
        return False

    def window(self, ops_before: int, seconds: float) -> None:
        """Close a sub-window that began with ``ops_before`` completed."""
        self.windows.append((self.ops - ops_before) / seconds)
        self.window_ops += self.ops - ops_before
        self.window_s += seconds

    def refused(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def counts(self) -> Dict[str, int]:
        return {
            "latency": len(self.latencies),
            "submit": len(self.submits),
            "replay": len(self.replays),
            "results": len(self.results),
            "jobs": len(self.jobs),
            "windows": len(self.windows),
        }


def end_to_end(sample: Sample, setup: Sequence[float]) -> Dict[str, float]:
    """The end-to-end metrics this sample supports."""
    out: Dict[str, float] = {
        "setup_s": statistics.median(setup),
        # over all sub-windows, not their median: the host's speed
        # swings for seconds at a time, and a total mixes a run's fast
        # and slow stretches where a median picks one of them
        "ops_per_s": (
            sample.window_ops / sample.window_s if sample.window_s else 0.0
        ),
        "failed_ratio": (
            sample.failed / sample.attempted if sample.attempted else 0.0
        ),
        "peak_rss_mb": peak_rss_mb(),
    }
    ms = [v * 1e3 for v in sample.latencies]
    if ms:
        out["latency_p50_ms"] = p50(ms)
        if has_tail(ms, 90):
            out["latency_p90_ms"] = percentile(ms, 90)
    submits = [v * 1e3 for v in sample.submits]
    if submits:
        out["submit_latency_p50_ms"] = p50(submits)
        if has_tail(submits, 90):
            out["submit_latency_p90_ms"] = percentile(submits, 90)
    if sample.replays:
        out["replay_latency_p50_ms"] = p50([v * 1e3 for v in sample.replays])
    if sample.lateness:
        out["generator_lateness_ms"] = p50([v * 1e3 for v in sample.lateness])
    return out


def _span_ms(tracer: Tracer, name: str) -> float:
    return p50([s.ms for s in tracer.named(name)])


def _per_trace_ms(tracer: Tracer, names: Tuple[str, ...]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for name in names:
        for span in tracer.named(name):
            totals[span.trace] += span.ms
    return totals


def layer_metrics(sample: Sample, tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric (0 for layers this sample never touched)."""
    out = {name: 0.0 for name in PER_LAYER}
    timings = [t for _, t in sample.results]
    for stage in STAGES:
        out[f"core.stages.{stage}_ms"] = p50(
            [getattr(t, stage) * 1e3 for t in timings]
        )
    for counter, metric in (
        ("solver_steps", "solver.native.steps"),
        ("solver_searches", "solver.native.searches"),
        ("decomposed_components", "solver.native.decomposed_components"),
    ):
        per_tool = {
            tool: p50([
                getattr(t, counter)
                for name, t in sample.results if name == tool
            ])
            for tool in TOOLS
        }
        out[metric] = sum(per_tool.values())
        if counter == "solver_steps":
            for tool, value in per_tool.items():
                out[f"solver.native.steps.{tool}"] = value

    pipeline = {s.parent: s for s in tracer.named("core.stages.pipeline")}
    out["api.service.overhead_ms"] = p50([
        run.ms - pipeline[run.span_id].ms
        for run in tracer.named("api.service.run")
        if run.span_id in pipeline
    ])
    out["api.jobs.submit_ms"] = _span_ms(tracer, "api.jobs.submit")

    waits, delivery, overhead, attempts = [], [], [], []
    for job in sample.jobs:
        if job.queue_wait is not None:
            waits.append(job.queue_wait * 1e3)
        if job.finished_at is not None:
            delivery.append((job.seen_at - job.finished_at) * 1e3)
            if job.started_at is not None and job.busy is not None:
                overhead.append(
                    (job.finished_at - job.started_at - job.busy) * 1e3
                )
        attempts.append(job.attempts)
    if sample.fleet:
        out["exec.queue.queue_wait_ms"] = p50(waits)
        out["exec.delivery_ms"] = p50(delivery)
        out["exec.worker.overhead_ms"] = p50(overhead)
        out["exec.worker.attempts_per_job"] = (
            statistics.fmean(attempts) if attempts else 0.0
        )
    else:
        out["api.jobs.queue_wait_ms"] = p50(waits)
        out["api.jobs.delivery_ms"] = p50(delivery)

    out["sched.admission.admit_ms"] = _span_ms(tracer, "sched.admission.admit")
    out["exec.queue.submit_ms"] = _span_ms(tracer, "exec.queue.submit")
    # claims that won a job; idle polls of an empty queue are not the scan
    claims = [s for s in tracer.named("exec.queue.claim") if s.attrs.get("claimed")]
    out["exec.queue.claim_ms"] = p50([s.ms for s in claims])
    out["exec.queue.depth_at_claim"] = p50([s.attrs["depth"] for s in claims])
    out["exec.queue.complete_ms"] = _span_ms(tracer, "exec.queue.complete")
    if sample.fleet_jobs:
        out["cluster.remote_claim_share"] = (
            sample.remote_claims / sample.fleet_jobs
        )
    out["cluster.conn_drops_total"] = float(sample.conn_drops)

    dispatches = tracer.named("middleware.chain.dispatch")
    dispatch = {s.trace: s.ms for s in dispatches}
    # the client's own POSTs (submits and replays), not its status polls
    posts = {s.trace for s in dispatches if s.attrs.get("method") == "POST"}
    for mw in MIDDLEWARES:
        per_request = _per_trace_ms(tracer, (
            f"middleware.{mw}.on_request", f"middleware.{mw}.on_response",
        ))
        out[f"middleware.{mw}.ms"] = p50(
            [ms for trace, ms in per_request.items() if trace in posts]
        )
    out["middleware.chain.dispatch_ms"] = p50(list(dispatch.values()))
    out["api.http.overhead_ms"] = p50([
        s.ms - dispatch[s.trace]
        for s in tracer.named("api.http.request") if s.trace in dispatch
    ])
    if sample.cache_lookups:
        out["middleware.idempotency.hit_ratio"] = (
            sample.cache_hits / sample.cache_lookups
        )
    out["storage.artifacts.load_ms"] = _span_ms(
        tracer, "storage.artifacts.load"
    )
    out["storage.artifacts.save_ms"] = _span_ms(
        tracer, "storage.artifacts.save"
    )
    return out


def trace_overhead_pct(untraced: Sample, traced: Sample) -> float:
    """Traced minus untraced median latency, as a share of untraced."""
    base = p50(untraced.latencies)
    if not base or not traced.latencies:
        return 0.0
    return (p50(traced.latencies) - base) / base * 100.0

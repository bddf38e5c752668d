"""`MetricsRegistry` and the request-metrics middleware.

One registry instance lives on the
:class:`~repro.middleware.chain.MiddlewareChain` and is shared by every
middleware and by ``GET /v1/metrics``.  Three instrument kinds, all
thread-safe behind one lock:

* **counters** — monotonically increasing, keyed by ``(name, label)``
  (``http_requests_total`` labeled ``"POST /v1/runs 200"``);
* **histograms** — fixed log-spaced latency buckets plus count / sum /
  min / max, so p50/p99-style questions are answerable without keeping
  samples;
* **gauges** — *callbacks* sampled at render time, which is how live
  state (job-queue depth, response-cache hit ratios) appears in
  ``/v1/metrics`` without anything pushing updates.  Solver and
  artifact-store counters are *harvested* from run-response payloads
  instead: the native solver's counters are per-thread, invisible to a
  gauge sampled from the metrics-render thread.

:class:`MetricsMiddleware` populates the request-level instruments:
per-route/method latency histograms and status counts, with job ``/v1``
path segments normalized (``/v1/jobs/{id}``) so unbounded id spaces do
not explode the label set.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.api.errors import ApiError
from repro.middleware.chain import Middleware

#: response header marking an idempotent replay (set by the idempotency
#: middleware, skipped by pipeline-counter harvesting)
REPLAY_HEADER = "X-Idempotent-Replay"

#: histogram bucket upper bounds, seconds (log-spaced; +Inf implicit)
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def route_label(path: str) -> str:
    """A bounded route template for a concrete request path.

    Ids and names embedded in paths are collapsed
    (``/v1/jobs/job-0001-ab12`` → ``/v1/jobs/{id}``) so metric labels
    stay a small fixed set however many jobs or benchmarks exist.
    """
    parts = path.rstrip("/").split("/")
    if len(parts) >= 4 and parts[1] == "v1":
        if parts[2] == "jobs":
            tail = "/events" if parts[-1] == "events" and len(parts) == 5 \
                else ""
            return f"/v1/jobs/{{id}}{tail}"
        if parts[2] == "benchmarks":
            return "/v1/benchmarks/{name}"
    return path.rstrip("/") or "/"


class _Histogram:
    __slots__ = ("counts", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BUCKETS) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        for i, bound in enumerate(LATENCY_BUCKETS):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(
            self.minimum, value
        )
        self.maximum = value if self.maximum is None else max(
            self.maximum, value
        )

    def as_payload(self) -> Dict[str, object]:
        buckets: Dict[str, int] = {}
        for bound, count in zip(LATENCY_BUCKETS, self.counts):
            buckets[f"{bound:g}"] = count
        buckets["+Inf"] = self.counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Thread-safe counters, latency histograms, and gauge callbacks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[str, int]] = {}
        self._histograms: Dict[str, Dict[str, _Histogram]] = {}
        self._gauges: Dict[str, Callable[[], object]] = {}

    # -- instruments ---------------------------------------------------------

    def inc(self, name: str, label: str = "", by: int = 1) -> None:
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[label] = series.get(label, 0) + by

    def observe(self, name: str, label: str, value: float) -> None:
        with self._lock:
            series = self._histograms.setdefault(name, {})
            histogram = series.get(label)
            if histogram is None:
                histogram = series[label] = _Histogram()
            histogram.observe(value)

    def gauge_fn(self, name: str, fn: Callable[[], object]) -> None:
        """Register a live-state sampler, called at every render."""
        with self._lock:
            self._gauges[name] = fn

    # -- read side -----------------------------------------------------------

    def counter_value(self, name: str, label: str = "") -> int:
        with self._lock:
            return self._counters.get(name, {}).get(label, 0)

    def counter_total(self, name: str) -> int:
        with self._lock:
            return sum(self._counters.get(name, {}).values())

    def render(self) -> Dict[str, object]:
        """The full registry as one JSON-serializable payload.

        Gauge callbacks run *outside* the lock (they may take other
        locks — the job manager's); a failing gauge renders as an error
        string instead of breaking the endpoint.
        """
        with self._lock:
            counters = {
                name: dict(series)
                for name, series in sorted(self._counters.items())
            }
            histograms = {
                name: {
                    label: histogram.as_payload()
                    for label, histogram in sorted(series.items())
                }
                for name, series in sorted(self._histograms.items())
            }
            gauge_fns = list(self._gauges.items())
        gauges: Dict[str, object] = {}
        for name, fn in sorted(gauge_fns):
            try:
                gauges[name] = fn()
            except Exception as exc:  # noqa: BLE001 — keep the endpoint up
                gauges[name] = f"error: {type(exc).__name__}: {exc}"
        return {
            "counters": counters,
            "histograms": histograms,
            "gauges": gauges,
        }


#: timings counters MetricsMiddleware lifts out of run-response payloads
_PIPELINE_COUNTERS: Tuple[str, ...] = (
    "solver_steps", "solver_searches", "matching_cache_hits",
    "cost_cache_hits", "decomposed_components", "store_hits",
    "store_misses",
)


class MetricsMiddleware(Middleware):
    """Outermost chain layer: latency + status counts for every request.

    Counts short-circuited responses (idempotent replays) and rejected
    requests (401/403/429 raised by inner middlewares) identically to
    handler-served ones — it sits first, so everything that reaches the
    service is on its books.  Successful synchronous run responses also
    have their ``result.timings`` solver/store counters folded into
    ``pipeline_*`` registry counters (the native solver's own counters
    are per-thread, so a render-time gauge could not see handler-thread
    work); replays are skipped so cached work is not double-counted.
    """

    name = "metrics"

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.metrics: Optional[MetricsRegistry] = None

    def on_request(self, ctx):
        ctx.state["metrics.start"] = self._clock()
        return None

    def on_response(self, ctx, response):
        self._record(ctx, response.status)
        if ctx.method == "POST" and response.status == 200:
            self._harvest_timings(response)
        return None

    def on_error(self, ctx, error: ApiError) -> None:
        self._record(ctx, error.http_status)
        self.metrics.inc("http_errors_total", type(error).__name__)

    def _record(self, ctx, status: int) -> None:
        label = f"{ctx.method} {route_label(ctx.path)}"
        self.metrics.inc("http_requests_total", f"{label} {status}")
        started = ctx.state.get("metrics.start")
        if isinstance(started, float):
            self.metrics.observe(
                "http_request_seconds", label, self._clock() - started
            )

    def _harvest_timings(self, response) -> None:
        if response.headers.get(REPLAY_HEADER):
            return
        payload = response.payload
        if not isinstance(payload, dict):
            return
        result = payload.get("result")
        if not isinstance(result, dict):
            return
        timings = result.get("timings")
        if not isinstance(timings, dict):
            return
        for key in _PIPELINE_COUNTERS:
            value = timings.get(key)
            if isinstance(value, int) and value > 0:
                self.metrics.inc(f"pipeline_{key}", by=value)


def register_service_gauges(registry: MetricsRegistry, service) -> None:
    """Wire the live-state ``jobs``/``sched`` gauges ``/v1/metrics``
    reports.

    Samples the job manager's ``queue_stats()`` (depth, capacity,
    evicted, per-class pending, autoscale counters — the execution
    plane's health surface) plus job counts by state, and — when the
    manager speaks the scheduler surface — a ``sched`` gauge of
    per-class pending/running/queue-wait quantiles, plus the monotonic
    aging-promotion count as ``sched_promotions_total`` (read through the
    manager's ``promotions()`` accessor, not a second ``sched_stats()``
    pass over every job record).
    Registered by ``make_server`` so the endpoint is live with or
    without any middleware configured.
    """

    def jobs_gauge() -> Dict[str, object]:
        states: Dict[str, int] = {}
        snapshots: List = service.jobs.jobs()
        for job in snapshots:
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "total": len(snapshots),
            "states": states,
            "queue": service.jobs.queue_stats(),
        }

    registry.gauge_fn("jobs", jobs_gauge)

    sched_stats = getattr(service.jobs, "sched_stats", None)
    if callable(sched_stats):
        registry.gauge_fn("sched", sched_stats)
        registry.gauge_fn("sched_promotions_total", service.jobs.promotions)

    cluster_stats = getattr(service.jobs, "cluster_stats", None)
    cluster_summary = getattr(service.jobs, "cluster_summary", None)
    if callable(cluster_stats) and callable(cluster_summary):
        def cluster_gauge() -> Dict[str, object]:
            """Full fleet payload, per-node rows included."""
            stats = cluster_stats()
            if stats is None:
                return {"enabled": False, "nodes": []}
            return {
                "enabled": True,
                "address": stats.get("address"),
                "draining": stats.get("draining"),
                "remote_workers": stats.get("remote_workers"),
                "counters": stats.get("counters"),
                "nodes": stats.get("nodes"),
            }

        registry.gauge_fn("cluster", cluster_gauge)
        registry.gauge_fn(
            "cluster_nodes",
            lambda: cluster_summary().get("nodes", 0),
        )
        registry.gauge_fn(
            "cluster_claims_total",
            lambda: (
                ((cluster_stats() or {}).get("counters") or {})
                .get("claims_total", 0)
            ),
        )

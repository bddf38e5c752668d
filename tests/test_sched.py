"""The repro.sched subsystem: priority classes, quotas, fair share,
admission, queue claim order, aging, and autoscaling.

Covers the scheduling acceptance contract: strict-priority claim with
fair-share tie-breaking inside a class, monotonic aging of starved
background work up to (never past) interactive, per-client/per-role
quota 429s that are a *distinct type* from capacity backpressure, and a
deterministic completion order for a fixed submit script.
"""

import json
import sys
import threading

import pytest

from repro.api.errors import (
    BackpressureError,
    ForbiddenError,
    QuotaExceededError,
    RateLimitError,
    ValidationError,
    error_headers,
)
from repro.exec import JobQueue, RetryPolicy
from repro.sched import (
    ADMIN_ONLY_CLASSES,
    AGING_FLOOR,
    AdmissionController,
    AutoscalePolicy,
    FairShareLedger,
    PriorityClass,
    QueueAutoscaler,
    QuotaPolicy,
    QuotaTable,
    SchedulerConfig,
    class_of_rank,
    class_rank,
    load_scheduler_config,
)
from repro.sched.policy import DEFAULT_CLASS_BY_KIND, PRIORITY_CLASSES


# -- policy vocabulary -------------------------------------------------------


def test_priority_classes_order_and_ranks():
    assert PRIORITY_CLASSES == ("urgent", "interactive", "batch", "background")
    ranks = [class_rank(name) for name in PRIORITY_CLASSES]
    assert ranks == [0, 1, 2, 3]
    for name in PRIORITY_CLASSES:
        assert class_of_rank(class_rank(name)) == name
    assert PriorityClass.of("urgent") < PriorityClass.of("background")


def test_unknown_class_names_and_ranks_are_400s():
    with pytest.raises(ValidationError):
        class_rank("blazing")
    with pytest.raises(ValidationError):
        class_of_rank(99)


def test_default_classes_by_kind():
    assert DEFAULT_CLASS_BY_KIND == {
        "run": "interactive", "batch": "batch", "synth": "background",
    }
    config = SchedulerConfig()
    assert config.class_for_kind("run") == "interactive"
    assert config.class_for_kind("mystery") == "batch"


def test_quota_table_resolution_most_specific_wins():
    table = QuotaTable(
        default=QuotaPolicy(max_in_flight=2),
        roles={"submit": QuotaPolicy(max_in_flight=5)},
        clients={"ci": QuotaPolicy(max_in_flight=50)},
    )
    assert table.resolve("ci", "submit").max_in_flight == 50
    assert table.resolve("dash", "submit").max_in_flight == 5
    assert table.resolve("dash", "read").max_in_flight == 2
    assert QuotaPolicy().unlimited
    assert not QuotaPolicy(max_queued=1).unlimited


def test_autoscale_policy_validates_bounds():
    with pytest.raises(ValidationError):
        AutoscalePolicy(min_workers=0)
    with pytest.raises(ValidationError):
        AutoscalePolicy(min_workers=4, max_workers=2)
    with pytest.raises(ValidationError):
        AutoscalePolicy(backlog_per_worker=0)


def test_scheduler_config_payload_roundtrip(tmp_path):
    config = SchedulerConfig(
        aging_wait=2.5,
        quotas=QuotaTable(
            default=QuotaPolicy(max_in_flight=8, max_queued=4),
            roles={"read": QuotaPolicy(max_in_flight=1)},
            clients={"ci": QuotaPolicy()},
        ),
        fair_share_weights={"ci": 3.0},
        fair_share_halflife=60.0,
        autoscale=AutoscalePolicy(min_workers=2, max_workers=6),
    )
    again = SchedulerConfig.from_payload(config.to_payload())
    assert again.to_payload() == config.to_payload()

    path = tmp_path / "sched.json"
    path.write_text(json.dumps(config.to_payload()))
    assert load_scheduler_config(path).to_payload() == config.to_payload()


def test_scheduler_config_rejects_unknown_keys_and_bad_values(tmp_path):
    with pytest.raises(ValidationError):
        SchedulerConfig.from_payload({"agin_wait": 1.0})
    with pytest.raises(ValidationError):
        SchedulerConfig.from_payload({"quotas": {"defalt": {}}})
    with pytest.raises(ValidationError):
        SchedulerConfig(aging_wait=0.0)
    with pytest.raises(ValidationError):
        SchedulerConfig(fair_share_weights={"ci": 0.0})
    with pytest.raises(ValidationError):
        SchedulerConfig(default_classes={"run": "warp"})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_scheduler_config(bad)


# -- fair-share ledger -------------------------------------------------------


def test_ledger_charges_accumulate_and_decay(tmp_path):
    ledger = FairShareLedger(tmp_path, halflife=10.0)
    ledger.charge("ci", 4.0, now=100.0)
    ledger.charge("ci", 4.0, now=100.0)
    assert ledger.usage("ci", now=100.0) == pytest.approx(8.0)
    # one halflife later the charge has halved; strangers stay at zero
    assert ledger.usage("ci", now=110.0) == pytest.approx(4.0)
    assert ledger.usage("dash", now=110.0) == 0.0


def test_ledger_weights_normalize_usage(tmp_path):
    ledger = FairShareLedger(tmp_path, weights={"ci": 4.0}, halflife=1e9)
    ledger.charge("ci", 8.0, now=0.0)
    ledger.charge("dash", 4.0, now=0.0)
    # ci did twice the work but has 4x the weight: lower usage, goes first
    assert ledger.usage("ci", now=0.0) < ledger.usage("dash", now=0.0)


def test_ledger_survives_corrupt_files_and_odd_ids(tmp_path):
    ledger = FairShareLedger(tmp_path)
    (tmp_path / "evil.json").write_text("{torn")
    assert ledger.usage("evil", now=0.0) == 0.0
    ledger.charge("../../sneaky", 1.0, now=0.0)
    assert all(p.parent == tmp_path for p in tmp_path.iterdir())


def test_ledger_keeps_lookalike_client_ids_apart(tmp_path):
    ledger = FairShareLedger(tmp_path, halflife=1e9)
    ledger.charge("a/b", 5.0, now=0.0)
    assert ledger.usage("a/b", now=0.0) == pytest.approx(5.0)
    # ids the old sanitizer folded onto a/b's file
    for other in ("a_b", "a.b", "a b", "a_2fb"):
        assert ledger.usage(other, now=0.0) == 0.0, other
    ledger.charge("", 2.0, now=0.0)
    assert ledger.usage("anonymous", now=0.0) == 0.0
    assert ledger.usage("_", now=0.0) == 0.0
    assert ledger.usage("", now=0.0) == pytest.approx(2.0)
    long_id = "é" * 200  # escapes past the key length: keyed by digest
    ledger.charge(long_id, 3.0, now=0.0)
    assert ledger.usage(long_id, now=0.0) == pytest.approx(3.0)
    assert ledger.usage(long_id[:-1], now=0.0) == 0.0
    assert len({path.name for path in tmp_path.iterdir()}) == 3


# -- admission ---------------------------------------------------------------


def make_request(priority=None):
    class Req:
        pass

    req = Req()
    req.priority = priority
    return req


def test_admission_resolves_kind_defaults_and_explicit_classes():
    ctl = AdmissionController(SchedulerConfig())
    assert ctl.resolve_class(make_request(), "run") == "interactive"
    assert ctl.resolve_class(make_request(), "synth") == "background"
    assert ctl.resolve_class(make_request("batch"), "run") == "batch"
    with pytest.raises(ValidationError):
        ctl.resolve_class(make_request("warp"), "run")


def test_admission_urgent_is_admin_only_when_role_known():
    ctl = AdmissionController(SchedulerConfig())
    assert "urgent" in ADMIN_ONLY_CLASSES
    assert ctl.resolve_class(make_request("urgent"), "run", "admin") == "urgent"
    # role "" = trusted direct caller (CLI/embedding), no HTTP auth edge
    assert ctl.resolve_class(make_request("urgent"), "run", "") == "urgent"
    with pytest.raises(ForbiddenError):
        ctl.resolve_class(make_request("urgent"), "run", "submit")


def test_admission_enforces_queued_and_in_flight_quotas():
    config = SchedulerConfig(quotas=QuotaTable(
        default=QuotaPolicy(max_in_flight=3, max_queued=1),
    ))
    ctl = AdmissionController(config)
    ok = ctl.admit(make_request(), "run", "submit", "ci", active=[])
    assert ok == "interactive"
    with pytest.raises(QuotaExceededError) as info:
        ctl.admit(make_request(), "run", "submit", "ci",
                  active=[("ci", "queued")], retry_after=7.0)
    assert info.value.retry_after == 7.0
    # running jobs don't count against max_queued, but do for in-flight
    ctl.admit(make_request(), "run", "submit", "ci",
              active=[("ci", "running")])
    with pytest.raises(QuotaExceededError):
        ctl.admit(make_request(), "run", "submit", "ci",
                  active=[("ci", "running")] * 3)
    # other clients' jobs never count against ci
    ctl.admit(make_request(), "run", "submit", "ci",
              active=[("dash", "queued"), ("dash", "running")])


def test_admission_unlimited_quota_never_touches_active_or_retry_thunk():
    ctl = AdmissionController(SchedulerConfig())

    def exploding():
        raise AssertionError("retry-after thunk consumed on unlimited quota")

    def poisoned_jobs():
        raise AssertionError("active scan consumed on unlimited quota")
        yield  # pragma: no cover

    assert ctl.admit(make_request(), "run", "submit", "ci",
                     active=poisoned_jobs(), retry_after=exploding)


def test_quota_error_is_a_distinct_429_from_capacity_and_ratelimit():
    quota = QuotaExceededError("over quota", retry_after=3.0)
    assert isinstance(quota, BackpressureError)
    assert not isinstance(quota, RateLimitError)
    assert quota.http_status == 429
    assert error_headers(quota)["Retry-After"] == "3"
    # the three 429 faces stay distinguishable by type
    assert {type(e).__name__ for e in (
        quota, BackpressureError("full"), RateLimitError("slow down"),
    )} == {"QuotaExceededError", "BackpressureError", "RateLimitError"}


# -- queue claim order -------------------------------------------------------


def submit(queue, kind="run", priority="", client_id=""):
    return queue.submit(kind, {"benchmark": "open"}, 1, 3,
                        client_id=client_id, priority=priority)


def test_tokens_encode_priority_rank(tmp_path):
    queue = JobQueue(tmp_path / "spool")
    submit(queue, kind="run")
    submit(queue, kind="batch")
    submit(queue, kind="synth")
    prefixes = sorted(
        token.name.split(".")[0]
        for token in (tmp_path / "spool" / "pending").iterdir()
    )
    assert prefixes == ["p1", "p2", "p3"]
    assert queue.pending_by_class() == {
        "urgent": 0, "interactive": 1, "batch": 1, "background": 1,
    }


def test_claim_is_strict_priority_across_classes(tmp_path):
    queue = JobQueue(tmp_path / "spool")
    background = submit(queue, kind="synth")
    batch = submit(queue, kind="batch")
    urgent = submit(queue, priority="urgent")
    interactive = submit(queue, kind="run")
    order = [queue.claim("w")["job_id"] for _ in range(4)]
    assert order == [urgent["job_id"], interactive["job_id"],
                     batch["job_id"], background["job_id"]]


def test_legacy_unprefixed_tokens_claim_as_interactive(tmp_path):
    queue = JobQueue(tmp_path / "spool")
    batch = submit(queue, kind="batch")
    legacy = submit(queue, kind="run")
    # simulate a pre-priority spool: strip the class prefix off the token
    pending = tmp_path / "spool" / "pending"
    token = next(t for t in pending.iterdir()
                 if legacy["job_id"] in t.name)
    token.rename(pending / token.name.split(".", 1)[1])
    assert queue.pending_by_class()["interactive"] == 1
    assert queue.claim("w")["job_id"] == legacy["job_id"]
    assert queue.claim("w")["job_id"] == batch["job_id"]


def test_fair_share_yields_to_lighter_client_within_class(tmp_path):
    queue = JobQueue(tmp_path / "spool")
    heavy = submit(queue, client_id="heavy")
    light = submit(queue, client_id="light")
    # heavy has accumulated runtime charge; light has none
    queue.ledger.charge("heavy", 30.0)
    assert queue.claim("w")["job_id"] == light["job_id"]
    assert queue.claim("w")["job_id"] == heavy["job_id"]


def test_fair_share_preserves_fifo_for_equal_usage(tmp_path):
    queue = JobQueue(tmp_path / "spool")
    first = submit(queue, client_id="a")
    second = submit(queue, client_id="b")
    assert queue.claim("w")["job_id"] == first["job_id"]
    assert queue.claim("w")["job_id"] == second["job_id"]


def test_completed_runtime_charges_the_ledger_once(tmp_path):
    queue = JobQueue(tmp_path / "spool")
    queue.configure(SchedulerConfig(fair_share_halflife=1e9))
    record = submit(queue, client_id="ci")
    job_id = record["job_id"]
    queue.claim("w")
    queue.complete(job_id, result={"ok": True})
    charged = queue.ledger.usage("ci")
    assert charged > 0.0
    # a zombie's duplicate completion must not double-charge
    queue.complete(job_id, result={"ok": True})
    assert queue.ledger.usage("ci") == pytest.approx(charged, rel=0.1)


@pytest.fixture()
def busy_switching():
    """Switch threads every 10 us, so racing threads interleave inside
    one call instead of each running it to the end in one time slice."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


def test_racing_completions_charge_the_ledger_exactly_once(
    tmp_path, busy_switching
):
    spool = tmp_path / "spool"
    charges = []

    def counted(queue):
        charge = queue.ledger.charge

        def counting(client_id, runtime, now=None):
            charges.append(client_id)
            return charge(client_id, runtime, now=now)

        queue.ledger.charge = counting
        return queue

    # one queue per completer, as the zombie and the live worker each
    # open their own over the shared spool; several rounds, so a racy
    # check-then-charge cannot slip through on lucky scheduling
    completers = [counted(JobQueue(spool)) for _ in range(8)]
    start = threading.Barrier(len(completers), timeout=30)
    clients = [f"c{n}" for n in range(20)]
    for client in clients:
        job_id = submit(JobQueue(spool), client_id=client)["job_id"]
        JobQueue(spool).claim("w")

        def complete(queue, job_id=job_id):
            start.wait()
            queue.complete(job_id, result={"ok": True})

        threads = [threading.Thread(target=complete, args=(queue,))
                   for queue in completers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert JobQueue(spool).record(job_id)["state"] == "done"
    assert charges == clients


def test_priority_survives_retry_requeue(tmp_path):
    queue = JobQueue(tmp_path / "spool")
    record = submit(queue, priority="background")
    job_id = record["job_id"]
    queue.claim("w")
    queue.retry_or_fail(job_id, "transient",
                        RetryPolicy(backoff_base=0.0, backoff_jitter=0.0))
    pending = list((tmp_path / "spool" / "pending").iterdir())
    assert len(pending) == 1
    assert pending[0].name.startswith("p3.")


# -- aging -------------------------------------------------------------------


def aged_queue(tmp_path, wait=10.0):
    queue = JobQueue(tmp_path / "spool")
    queue.configure(SchedulerConfig(aging_wait=wait))
    return queue


def test_aging_promotes_starved_background_up_to_interactive(tmp_path):
    queue = aged_queue(tmp_path)
    record = submit(queue, kind="synth")  # background, rank 3
    stamp = record["submitted_at"]
    assert queue.promote_starved(now=stamp + 5.0) == 0
    assert queue.promote_starved(now=stamp + 15.0) == 1  # -> batch
    assert queue.pending_by_class()["batch"] == 1
    assert queue.promote_starved(now=stamp + 25.0) == 1  # -> interactive
    assert queue.pending_by_class()["interactive"] == 1
    # interactive is the floor: never promoted into the urgent lane
    assert queue.promote_starved(now=stamp + 1000.0) == 0
    assert queue.pending_by_class()["urgent"] == 0
    assert queue.promotions() == 2
    assert AGING_FLOOR == "interactive"


def test_aged_job_beats_fresher_higher_class_at_claim(tmp_path):
    queue = aged_queue(tmp_path)
    starved = submit(queue, kind="synth")
    submit(queue, kind="batch")
    late = starved["submitted_at"] + 25.0
    claimed = queue.claim("w", now=late)
    assert claimed["job_id"] == starved["job_id"]


def test_promotions_counter_survives_record_eviction(tmp_path):
    queue = aged_queue(tmp_path)
    record = submit(queue, kind="synth")
    queue.promote_starved(now=record["submitted_at"] + 15.0)
    assert queue.promotions() == 1
    queue.claim("w", now=record["submitted_at"] + 16.0)
    queue.complete(record["job_id"], result={})
    queue.evict_finished(cap=0)
    assert queue.record(record["job_id"]) is None
    assert queue.promotions() == 1  # folded into the durable base counter


def test_sched_stats_reports_per_class_waits(tmp_path):
    queue = JobQueue(tmp_path / "spool")
    record = submit(queue, kind="run")
    submit(queue, kind="batch")
    queue.claim("w")  # interactive claimed; batch still pending
    stats = queue.sched_stats(now=record["submitted_at"] + 4.0)
    classes = stats["classes"]
    assert set(classes) == set(PRIORITY_CLASSES)
    assert classes["interactive"]["running"] == 1
    assert classes["interactive"]["waited"] == 1
    assert classes["batch"]["pending"] == 1
    assert classes["batch"]["wait_max"] >= 3.0
    assert stats["promotions"] == 0


def test_scheduler_config_is_shared_through_the_spool(tmp_path):
    writer = JobQueue(tmp_path / "spool")
    writer.configure(SchedulerConfig(aging_wait=42.0))
    reader = JobQueue(tmp_path / "spool")  # a worker's own queue handle
    assert reader.sched.aging_wait == 42.0


def test_deterministic_claim_order_for_a_fixed_submit_script(tmp_path):
    """The same submit script yields the same completion order and
    promotion count, twice — the scheduling-determinism acceptance
    gate."""

    def run_script(root):
        queue = JobQueue(root / "spool")
        queue.configure(SchedulerConfig(aging_wait=10.0))
        ids = {}
        for name, kind, priority, client in (
            ("bg1", "synth", "", "batch-farm"),
            ("bg2", "synth", "", "batch-farm"),
            ("b1", "batch", "", "batch-farm"),
            ("i1", "run", "", "dash"),
            ("u1", "run", "urgent", "ops"),
            ("i2", "run", "", "dash"),
        ):
            record = queue.submit(kind, {"benchmark": "open"}, 1, 3,
                                  client_id=client, priority=priority)
            ids[record["job_id"]] = name
        base = max(
            float(r["submitted_at"]) for r in queue.records()
        )
        order = []
        # claim half now, then late enough that bg1/bg2 have aged
        for step, now in enumerate((0.0, 0.0, 0.0, 25.0, 25.0, 25.0)):
            claimed = queue.claim("w", now=base + now)
            order.append(ids[claimed["job_id"]])
            queue.complete(claimed["job_id"], result={})
        return order, queue.promotions()

    first = run_script(tmp_path / "a")
    second = run_script(tmp_path / "b")
    assert first == second
    order, promotions = first
    assert order[0] == "u1"                      # urgent always first
    assert order[1:3] == ["i1", "i2"]            # then interactive FIFO
    # by +25s both backgrounds and the batch job have all aged up
    assert promotions == 3


# -- autoscaler --------------------------------------------------------------


class FakeSupervisor:
    def __init__(self, target=1):
        self._target = target
        self.calls = []
        self.accept = True

    @property
    def target(self):
        return self._target

    def set_target(self, target):
        self.calls.append(target)
        if self.accept:
            self._target = target
        return self.accept


class FakeQueue:
    def __init__(self):
        self.pending = {name: 0 for name in PRIORITY_CLASSES}
        self.leased = 0

    def depth(self):
        pending = sum(self.pending.values())
        return {"pending": pending, "leased": self.leased,
                "active": pending + self.leased}

    def pending_by_class(self):
        return dict(self.pending)


def make_autoscaler(queue=None, **policy):
    clock = {"now": 0.0}
    policy.setdefault("min_workers", 1)
    policy.setdefault("max_workers", 4)
    scaler = QueueAutoscaler(
        queue if queue is not None else FakeQueue(),
        AutoscalePolicy(**policy),
        clock=lambda: clock["now"],
    )
    return scaler, clock


def test_autoscaler_grows_on_latency_pressure():
    scaler, clock = make_autoscaler()
    queue = scaler.queue
    supervisor = FakeSupervisor(target=1)
    queue.pending["interactive"] = 1
    queue.leased = 1  # every slot busy while interactive work waits
    assert scaler.maybe_scale(supervisor) == 2
    assert scaler.scale_up_total == 1
    # cooldown: an immediate second pass holds steady even when the new
    # worker leased more work and interactive jobs still wait
    queue.leased = 2
    assert scaler.maybe_scale(supervisor) is None
    clock["now"] = 1.0
    assert scaler.maybe_scale(supervisor) == 3


def test_autoscaler_grows_on_backlog_depth_without_latency_classes():
    scaler, clock = make_autoscaler(backlog_per_worker=2.0)
    queue = scaler.queue
    supervisor = FakeSupervisor(target=1)
    queue.pending["background"] = 5  # > 1 worker * 2.0 backlog
    assert scaler.maybe_scale(supervisor) == 2


def test_autoscaler_shrinks_only_after_idle_grace_and_cooldown():
    scaler, clock = make_autoscaler(idle_grace=2.0, scale_down_cooldown=5.0)
    supervisor = FakeSupervisor(target=3)
    assert scaler.maybe_scale(supervisor) is None  # idle clock starts
    clock["now"] = 1.0
    assert scaler.maybe_scale(supervisor) is None  # still in grace
    clock["now"] = 2.5
    assert scaler.maybe_scale(supervisor) == 2
    clock["now"] = 3.0
    assert scaler.maybe_scale(supervisor) is None  # down cooldown
    clock["now"] = 10.0
    assert scaler.maybe_scale(supervisor) == 1
    clock["now"] = 60.0
    assert scaler.maybe_scale(supervisor) is None  # at min_workers
    assert scaler.scale_down_total == 2
    assert scaler.stats()["scale_down_total"] == 2


def test_autoscaler_holds_and_clamps_out_of_band_targets():
    scaler, clock = make_autoscaler(min_workers=2, max_workers=3)
    supervisor = FakeSupervisor(target=5)
    assert scaler.maybe_scale(supervisor) == 3  # clamp into the band
    busy = FakeSupervisor(target=3)
    scaler2, _ = make_autoscaler(min_workers=2, max_workers=3)
    scaler2.queue.pending["interactive"] = 4
    scaler2.queue.leased = 3
    assert scaler2.maybe_scale(busy) is None  # at max: no growth


def test_autoscaler_leaves_counters_alone_while_draining():
    scaler, clock = make_autoscaler()
    supervisor = FakeSupervisor(target=1)
    supervisor.accept = False  # draining supervisors refuse retargeting
    scaler.queue.pending["interactive"] = 1
    scaler.queue.leased = 1
    assert scaler.maybe_scale(supervisor) is None
    assert scaler.scale_up_total == 0

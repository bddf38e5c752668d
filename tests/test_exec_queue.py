"""The durable lease-based job queue and its retry policy."""

import time

import pytest

from repro.exec import JobQueue, QueueError, RetryPolicy
from repro.exec.queue import TERMINAL_STATES


@pytest.fixture()
def queue(tmp_path):
    return JobQueue(tmp_path / "spool")


def submit(queue, payload=None, total=1, max_attempts=3):
    return queue.submit("run", payload or {"benchmark": "open"}, total,
                        max_attempts)


# -- policy -----------------------------------------------------------------


def test_policy_payload_roundtrip():
    policy = RetryPolicy(max_attempts=5, backoff_base=0.5, lease_ttl=9.0,
                         heartbeat_interval=2.0, seed=3)
    assert RetryPolicy.from_payload(policy.to_payload()) == policy


def test_policy_rejects_heartbeat_slower_than_lease():
    with pytest.raises(Exception):
        RetryPolicy(lease_ttl=1.0, heartbeat_interval=2.0)


def test_backoff_is_deterministic_capped_and_jittered():
    policy = RetryPolicy(backoff_base=0.25, backoff_cap=2.0,
                         backoff_jitter=0.25, seed=3)
    first = [policy.backoff("job-x", n) for n in range(1, 8)]
    again = [policy.backoff("job-x", n) for n in range(1, 8)]
    assert first == again  # same seed/job/attempt, same delay
    other = [policy.backoff("job-y", n) for n in range(1, 8)]
    assert first != other  # jitter decorrelates jobs
    for attempt, delay in enumerate(first, start=1):
        base = min(2.0, 0.25 * 2 ** (attempt - 1))
        assert base <= delay <= base * 1.25
    assert first[-1] <= 2.0 * 1.25  # capped, jitter on top


# -- submit / claim ---------------------------------------------------------


def test_submit_creates_record_and_pending_token(queue):
    record = submit(queue)
    assert record["state"] == "queued"
    assert record["attempts"] == 0
    assert queue.depth() == {"pending": 1, "leased": 0, "active": 1}
    assert queue.record(record["job_id"])["job_id"] == record["job_id"]


def test_claim_is_fifo_and_flips_to_running(queue):
    first = submit(queue)
    time.sleep(0.002)  # distinct token stamps
    second = submit(queue)
    claimed = queue.claim("w0.g1")
    assert claimed["job_id"] == first["job_id"]
    assert claimed["state"] == "running"
    assert claimed["attempts"] == 1
    assert claimed["owner"] == "w0.g1"
    assert queue.depth() == {"pending": 1, "leased": 1, "active": 2}
    assert queue.claim("w1.g1")["job_id"] == second["job_id"]
    assert queue.claim("w2.g1") is None


def test_claim_skips_jobs_inside_their_backoff_window(queue):
    record = submit(queue)
    policy = RetryPolicy(backoff_base=30.0, backoff_cap=60.0)
    queue.claim("w0.g1")
    queue.retry_or_fail(record["job_id"], "boom", policy)
    assert queue.claim("w0.g1") is None  # not_before is in the future
    assert queue.depth()["pending"] == 1  # but the token stays


def test_unknown_ids_raise_queue_error(queue):
    assert queue.record("job-nope") is None
    with pytest.raises(QueueError):
        queue.retry_or_fail("job-nope", "boom", RetryPolicy())
    with pytest.raises(QueueError):
        queue.cancel("job-nope")


# -- retry / permanent failure ---------------------------------------------


def test_retry_requeues_with_history_then_fails_permanently(queue):
    policy = RetryPolicy(max_attempts=2, backoff_base=0.0, backoff_cap=0.0,
                         backoff_jitter=0.0)
    job_id = submit(queue, max_attempts=2)["job_id"]

    queue.claim("w0.g1")
    record = queue.retry_or_fail(job_id, "first boom", policy)
    assert record["state"] == "queued"
    assert record["error"] == "first boom"
    assert record["error_history"] == ["attempt 1: first boom"]
    assert queue.depth() == {"pending": 1, "leased": 0, "active": 1}

    queue.claim("w0.g2")
    record = queue.retry_or_fail(job_id, "second boom", policy)
    assert record["state"] == "failed"
    assert "failed permanently after 2 attempt(s)" in record["error"]
    assert len(record["error_history"]) == 2
    assert queue.depth()["active"] == 0


def test_done_is_never_demoted(queue):
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    queue.complete(job_id, result={"ok": True})
    # a lagging zombie writer cannot downgrade a real result
    record = queue.fail(job_id, "late zombie error")
    assert record["state"] == "done"
    record = queue.retry_or_fail(job_id, "boom", RetryPolicy())
    assert record["state"] == "done"
    assert queue.depth()["active"] == 0


def test_complete_wins_over_recovery_written_retry(queue):
    # the inverse interleaving: recovery requeued the job while the
    # zombie was still running; the zombie's result converges to done
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    queue.retry_or_fail(job_id, "presumed dead", RetryPolicy(
        backoff_base=0.0, backoff_cap=0.0, backoff_jitter=0.0))
    record = queue.complete(job_id, result={"ok": True})
    assert record["state"] == "done"


# -- cancellation -----------------------------------------------------------


def test_cancel_unclaimed_job_finalizes_immediately(queue):
    job_id = submit(queue)["job_id"]
    record = queue.cancel(job_id)
    assert record["state"] == "cancelled"
    assert queue.depth()["active"] == 0
    # idempotent on terminal records
    assert queue.cancel(job_id)["state"] == "cancelled"


def test_cancel_running_job_sets_marker_for_stage_boundaries(queue):
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    record = queue.cancel(job_id)
    assert record["cancel_requested"] is True
    assert record["state"] == "running"  # stops at the next boundary
    assert queue.cancel_requested(job_id)
    record = queue.mark_cancelled(job_id)
    assert record["state"] == "cancelled"
    assert not queue.cancel_requested(job_id)  # marker released
    assert queue.depth()["active"] == 0


def test_cancel_requested_queued_job_finalizes_at_claim_time(queue):
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    queue.cancel(job_id)
    queue.retry_or_fail(job_id, "worker died", RetryPolicy(
        backoff_base=0.0, backoff_cap=0.0, backoff_jitter=0.0))
    # the requeued job still carries the cancel request: the next claim
    # pass finalizes it instead of running it
    assert queue.claim("w1.g1") is None
    assert queue.record(job_id)["state"] == "cancelled"


# -- lease recovery ---------------------------------------------------------


def test_recover_requeues_dead_owners_immediately(queue):
    policy = RetryPolicy(backoff_base=0.0, backoff_cap=0.0,
                         backoff_jitter=0.0)
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    assert queue.recover(policy, dead_owners=["w9.g9"]) == []
    recovered = queue.recover(policy, dead_owners=["w0.g1"])
    assert recovered == [job_id]
    record = queue.record(job_id)
    assert record["state"] == "queued"
    assert "lost its lease" in record["error_history"][0]
    assert queue.depth() == {"pending": 1, "leased": 0, "active": 1}


def test_recover_sweeps_stale_heartbeats_but_not_fresh_ones(queue):
    policy = RetryPolicy(lease_ttl=5.0, heartbeat_interval=1.0,
                         backoff_base=0.0, backoff_cap=0.0,
                         backoff_jitter=0.0)
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    now = time.time()
    assert queue.recover(policy, now=now + 1.0) == []  # fresh beat
    assert queue.recover(policy, now=now + 60.0) == [job_id]  # silent worker


def test_recovery_past_max_attempts_fails_permanently(queue):
    policy = RetryPolicy(max_attempts=1, backoff_base=0.0, backoff_cap=0.0,
                         backoff_jitter=0.0)
    job_id = submit(queue, max_attempts=1)["job_id"]
    queue.claim("w0.g1")
    queue.recover(policy, dead_owners=["w0.g1"])
    record = queue.record(job_id)
    assert record["state"] == "failed"
    assert "lost its lease" in record["error"]


def test_heartbeat_after_lease_recovery_is_a_noop(queue):
    job_id = submit(queue)["job_id"]
    queue.claim("w0.g1")
    queue.recover(RetryPolicy(backoff_base=0.0, backoff_cap=0.0,
                              backoff_jitter=0.0), dead_owners=["w0.g1"])
    queue.heartbeat(job_id, "w0.g1", "recording")  # the zombie beats on
    assert queue.depth()["leased"] == 0  # without resurrecting the lease


# -- eviction ---------------------------------------------------------------


def test_evict_finished_drops_oldest_and_counts_durably(tmp_path):
    queue = JobQueue(tmp_path / "spool")
    ids = []
    for n in range(5):
        job_id = submit(queue)["job_id"]
        queue.claim(f"w{n}.g1")
        queue.complete(job_id, result={"n": n})
        ids.append(job_id)
        time.sleep(0.002)
    live = submit(queue)["job_id"]  # active jobs are never evicted

    assert queue.evict_finished(cap=2) == 3
    kept = {record["job_id"] for record in queue.records()}
    assert kept == {live, *ids[3:]}
    # the counter survives a restart (a fresh queue over the same spool)
    assert JobQueue(tmp_path / "spool").evicted() == 3


def test_eviction_drops_the_charge_marker(queue, tmp_path):
    job_id = submit(queue)["job_id"]
    queue.claim("w")
    queue.complete(job_id, result={"ok": True})
    charged = tmp_path / "spool" / "charged"
    assert [marker.name for marker in charged.iterdir()] == [job_id]
    queue.evict_finished(cap=0)
    assert list(charged.iterdir()) == []


# -- live jobs ----------------------------------------------------------------


def test_live_jobs_reads_only_tokened_and_leased_records(queue):
    for _ in range(5):
        job_id = submit(queue)["job_id"]
        queue.claim("w")
        queue.complete(job_id, result={"ok": True})
    queue.submit("run", {"benchmark": "open"}, 1, 3, client_id="ci")
    queue.submit("run", {"benchmark": "open"}, 1, 3, client_id="dash")
    queue.claim("w")  # ci's job, the older, now holds a lease
    queue.records_parsed = 0

    live = queue.live_jobs()
    assert queue.records_parsed == 0  # a generator: nothing read yet
    assert sorted(live) == [("ci", "running"), ("dash", "queued")]
    # two live records read; the five finished ones never are
    assert queue.records_parsed == 2


def test_live_jobs_counts_a_job_seen_as_token_and_lease_once(
    queue, tmp_path
):
    job_id = queue.submit(
        "run", {"benchmark": "open"}, 1, 3, client_id="ci"
    )["job_id"]
    # the state a claim racing the two directory listings can show
    (tmp_path / "spool" / "leases" / job_id).touch()
    # a heartbeat's temp file in the lease dir is not a job
    (tmp_path / "spool" / "leases" / f".{job_id}.x.tmp").touch()
    queue.records_parsed = 0
    assert list(queue.live_jobs()) == [("ci", "queued")]
    assert queue.records_parsed == 1


def test_terminal_states_match_api_job_states():
    from repro.api.types import JOB_STATES

    assert set(TERMINAL_STATES) <= set(JOB_STATES)

"""The serve scheduler: lanes, quotas, backpressure, retries, resume.

These exercise :class:`repro.serve.service.TriageService` in-process
(real journal, real forked workers) without the socket front end; the
socket + client + kill-and-restart path is covered end to end by
``repro serve --smoke`` (:func:`repro.serve.service.run_smoke`).
"""

import os
import signal
import threading
import time

from repro.analysis.triage import TriageJob, TriageResult, run_triage
from repro.serve.journal import JobJournal, job_to_json_dict
from repro.serve.service import ServeConfig, TriageService

_DEADLINE = 30.0


def _touch_job(jid: int, log: str) -> TriageJob:
    return TriageJob(
        job_id=jid, name=f"touch-{jid}", kind="pyfunc",
        params={"target": "repro.serve.harness:smoke_touch_job",
                "kwargs": {"log_path": log, "token": f"job-{jid}"}})


def _config(tmp_path, **kw) -> ServeConfig:
    return ServeConfig(
        socket_path=str(tmp_path / "serve.sock"),
        journal_path=str(tmp_path / "serve.journal"),
        workers=kw.pop("workers", 1),
        **kw,
    )


def _stop(service: TriageService) -> None:
    if service._dispatcher.is_alive():
        service.stop()
    else:
        # Never started: the dispatcher owns pool teardown only once
        # running, so shut the pool down directly.
        service._stop.set()
        service.pool.shutdown(graceful=True)
        service.journal.close()


def _wait_done(service: TriageService, job_ids, deadline=_DEADLINE) -> None:
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        with service._lock:
            if all(jid in service._done for jid in job_ids):
                return
        time.sleep(0.02)
    raise AssertionError(f"jobs never completed: {job_ids}")


def test_priority_lanes_dispatch_high_before_low(tmp_path):
    log = str(tmp_path / "log")
    service = TriageService(_config(tmp_path))
    try:
        # Queue strictly before the dispatcher runs, in inverted order.
        order = []
        for jid, priority in ((1, "low"), (2, "normal"), (3, "high")):
            job = _touch_job(jid, log)
            ack = service.submit(
                {"job_id": job.job_id, "name": job.name, "kind": job.kind,
                 "params": job.params}, priority=priority)
            assert ack["rec"] == "ack", ack
        service.subscribe([1, 2, 3],
                          lambda row: order.append(row["result"]["job_id"]))
        service.start()
        _wait_done(service, [1, 2, 3])
    finally:
        _stop(service)
    # One worker, one in-flight slot: completion order is dispatch
    # order, and dispatch drains high before normal before low.
    assert order == [3, 2, 1]


def test_backpressure_rejects_when_queue_is_full(tmp_path):
    log = str(tmp_path / "log")
    service = TriageService(_config(tmp_path, max_queued=2))
    try:
        acks = [service.submit({"job_id": i, "name": f"j{i}",
                                "kind": "pyfunc",
                                "params": _touch_job(i, log).params})
                for i in range(3)]
    finally:
        _stop(service)
    assert [a["rec"] for a in acks] == ["ack", "ack", "reject"]
    assert "backpressure" in acks[2]["reason"]


def test_tenant_quota_limits_outstanding_jobs(tmp_path):
    log = str(tmp_path / "log")
    service = TriageService(_config(tmp_path, tenant_quota=1))
    try:
        job = lambda i: {"job_id": i, "name": f"j{i}", "kind": "pyfunc",
                         "params": _touch_job(i, log).params}
        first = service.submit(job(1), tenant="alice")
        second = service.submit(job(2), tenant="alice")
        other = service.submit(job(3), tenant="bob")
    finally:
        _stop(service)
    assert first["rec"] == "ack"
    assert second["rec"] == "reject" and "quota" in second["reason"]
    assert other["rec"] == "ack", "quotas are per-tenant, not global"


def test_malformed_and_unknown_priority_submissions_reject(tmp_path):
    service = TriageService(_config(tmp_path))
    try:
        bad_priority = service.submit({"job_id": 1, "name": "x",
                                       "kind": "pyfunc", "params": {}},
                                      priority="urgent")
        malformed = service.submit({"name": "no-id"})
        not_an_object = service.submit("abc")
        unhashable_id = service.submit({"job_id": [1], "name": "x",
                                        "kind": "pyfunc", "params": {}})
        string_id = service.submit({"job_id": "7", "name": "x",
                                    "kind": "pyfunc", "params": {}})
    finally:
        _stop(service)
    assert bad_priority["rec"] == "reject"
    assert malformed["rec"] == "reject"
    assert not_an_object["rec"] == "reject"
    assert unhashable_id["rec"] == "reject"
    assert string_id["rec"] == "reject"


def test_resubmission_of_done_job_replays_the_stored_row(tmp_path):
    log = str(tmp_path / "log")
    service = TriageService(_config(tmp_path))
    job_dict = {"job_id": 5, "name": "touch-5", "kind": "pyfunc",
                "params": _touch_job(5, log).params}
    try:
        service.start()
        assert service.submit(job_dict)["rec"] == "ack"
        _wait_done(service, [5])
        dup = service.submit(job_dict)
        rows = service.subscribe([5], lambda row: None)
    finally:
        _stop(service)
    assert dup == {"rec": "ack", "job_id": 5, "accepted": True,
                   "duplicate": "done"}
    assert rows and rows[0]["result"]["job_id"] == 5
    # Exactly-once across resubmission: the job body ran exactly once.
    assert open(log).read() == "job-5\n"


def test_duplicate_outstanding_submission_acks_without_requeue(tmp_path):
    log = str(tmp_path / "log")
    service = TriageService(_config(tmp_path))
    job_dict = {"job_id": 5, "name": "touch-5", "kind": "pyfunc",
                "params": _touch_job(5, log).params}
    try:
        assert service.submit(job_dict)["rec"] == "ack"
        dup = service.submit(job_dict)
        queued = service.health()["queued"]
    finally:
        _stop(service)
    assert dup["duplicate"] == "outstanding"
    assert queued == {"high": 0, "normal": 1, "low": 0}


def test_worker_crash_is_retried_to_completion(tmp_path):
    marker = str(tmp_path / "marker")
    log = str(tmp_path / "log")
    service = TriageService(_config(tmp_path))
    try:
        service.start()
        ack = service.submit({
            "job_id": 7, "name": "crash-once", "kind": "pyfunc",
            "params": {"target": "repro.serve.harness:smoke_crash_once_job",
                       "kwargs": {"marker_path": marker, "log_path": log,
                                  "token": "job-7"}}})
        assert ack["rec"] == "ack"
        _wait_done(service, [7])
        with service._lock:
            row = service._done[7]
        snap = service.metrics.snapshot()
    finally:
        _stop(service)
    assert row["status"] == "OK" and row["attempts"] == 2
    assert snap["counters"]["serve.jobs.retried"] == 1
    assert open(log).read() == "job-7\n", "retry must be the only execution"


def test_timeout_is_terminal_not_retried(tmp_path):
    service = TriageService(_config(tmp_path, timeout=0.3))
    try:
        service.start()
        ack = service.submit({
            "job_id": 8, "name": "sleep", "kind": "pyfunc",
            "params": {"target": "repro.serve.harness:smoke_sleep_job",
                       "kwargs": {"seconds": 60.0}}})
        assert ack["rec"] == "ack"
        _wait_done(service, [8])
        with service._lock:
            row = service._done[8]
    finally:
        _stop(service)
    assert row["status"] == "ERROR"
    assert row["fault"]["kind"] == "Timeout"
    assert row["attempts"] == 1, "a wall-clock overrun re-run would overrun again"


def test_restart_resumes_pending_and_keeps_done(tmp_path):
    log = str(tmp_path / "log")
    config = _config(tmp_path)
    first = TriageService(config)
    try:
        first.start()
        for i in range(2):
            assert first.submit({"job_id": i, "name": f"t{i}",
                                 "kind": "pyfunc",
                                 "params": _touch_job(i, log).params})["rec"] \
                == "ack"
        _wait_done(first, [0, 1])
    finally:
        _stop(first)

    # Accept two more against a *fresh* instance and abandon it before
    # its dispatcher ever runs -- the journal now holds 2 done + 2
    # accepted-but-unfinished, exactly the post-SIGKILL disk state.
    wedged = TriageService(config)
    try:
        for i in (2, 3):
            assert wedged.submit({"job_id": i, "name": f"t{i}",
                                  "kind": "pyfunc",
                                  "params": _touch_job(i, log).params})["rec"] \
                == "ack"
    finally:
        _stop(wedged)

    resumed = TriageService(config)
    try:
        snap = resumed.metrics.snapshot()
        assert snap["counters"]["serve.jobs.resumed"] == 2
        ready = resumed.subscribe([0, 1, 2, 3], lambda row: None)
        assert {r["result"]["job_id"] for r in ready} == {0, 1}, \
            "done rows must be re-emittable without re-execution"
        resumed.start()
        _wait_done(resumed, [0, 1, 2, 3])
    finally:
        _stop(resumed)

    state = JobJournal.replay(config.journal_path)
    assert set(state.done) == {0, 1, 2, 3} and not state.pending
    counts = {}
    for line in open(log):
        counts[line.strip()] = counts.get(line.strip(), 0) + 1
    assert counts == {f"job-{i}": 1 for i in range(4)}, \
        f"every job must run exactly once across the restart: {counts}"


def test_health_and_metrics_views(tmp_path):
    service = TriageService(_config(tmp_path, workers=2))
    try:
        service.start()
        health = service.health()
        metrics = service.metrics_view()
    finally:
        _stop(service)
    assert health["ok"] is True
    assert health["queued"] == {"high": 0, "normal": 0, "low": 0}
    assert health["pool"]["size"] == 2
    assert metrics["rec"] == "metrics"
    assert "serve.jobs.accepted" in metrics["metrics"]["counters"]


def test_worker_that_died_idle_is_replaced_at_dispatch(tmp_path):
    log = str(tmp_path / "log")
    service = TriageService(_config(tmp_path))
    try:
        service.start()
        # Only busy workers are polled, so the dispatcher never touches
        # this one until it hands it the job below.
        worker = service.pool._slots[0].worker
        os.kill(worker.pid, signal.SIGKILL)
        end = time.monotonic() + _DEADLINE
        while worker.alive():
            assert time.monotonic() < end, "SIGKILLed worker never exited"
            time.sleep(0.01)
        ack = service.submit({"job_id": 4, "name": "touch-4", "kind": "pyfunc",
                              "params": _touch_job(4, log).params})
        assert ack["rec"] == "ack"
        _wait_done(service, [4])
        with service._lock:
            row = service._done[4]
        dispatcher_alive = service._dispatcher.is_alive()
    finally:
        _stop(service)
    assert row["status"] == "OK" and row["attempts"] == 1
    assert dispatcher_alive


def test_health_is_not_ok_once_the_dispatcher_has_exited(tmp_path, monkeypatch):
    service = TriageService(_config(tmp_path))
    real_poll = service.pool.poll
    injected = []

    def poll_failing_once(wait):
        if not injected:
            injected.append(RuntimeError("injected poll failure"))
            raise injected[0]
        return real_poll(wait)

    monkeypatch.setattr(service.pool, "poll", poll_failing_once)
    thread_errors = []
    monkeypatch.setattr(threading, "excepthook", thread_errors.append)
    try:
        service.start()
        service._dispatcher.join(timeout=_DEADLINE)
        exited = not service._dispatcher.is_alive()
        health = service.health()
    finally:
        _stop(service)
    assert exited
    assert [e.exc_value for e in thread_errors] == injected
    assert health["ok"] is False


def test_worker_death_row_matches_the_batch_row(tmp_path):
    # One death, one row: a persistent crasher ends in the same ERROR
    # row whether a batch or the service supervised it.
    job = TriageJob(job_id=3, name="selfkill", kind="pyfunc",
                    params={"target": "tests.analysis.triage_fault_jobs:"
                                      "selfkill_job"})
    [batch] = run_triage([job], jobs=2, max_retries=1)
    service = TriageService(_config(tmp_path))
    try:
        service.start()
        assert service.submit(job_to_json_dict(job))["rec"] == "ack"
        _wait_done(service, [3])
        with service._lock:
            served = TriageResult.from_json_dict(service._done[3])
    finally:
        _stop(service)

    def row_shape(row):
        return (row.status, row.error.partition("pid")[0], row.fault["kind"],
                row.fault["classification"], row.attempts)

    assert row_shape(served) == row_shape(batch)
    assert batch.attempts == 2

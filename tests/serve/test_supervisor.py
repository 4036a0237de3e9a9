"""The supervision tree: results, crashes, timeouts, restart backoff.

These run real ``os.fork`` workers executing pyfunc jobs (the smoke
job bodies from :mod:`repro.serve.harness`), so every assertion here is
about observed process behaviour, not mocks.
"""

import os
import signal
import time

from repro.analysis import supervisor
from repro.analysis.triage import TriageJob
from repro.analysis.supervisor import (
    MAX_RESTART_BACKOFF,
    SupervisedWorker,
    WorkerPool,
)

_DEADLINE = 30.0


def _touch_job(jid: int, log: str) -> TriageJob:
    return TriageJob(
        job_id=jid, name=f"touch-{jid}", kind="pyfunc",
        params={"target": "repro.serve.harness:smoke_touch_job",
                "kwargs": {"log_path": log, "token": f"job-{jid}"}})


def _sleep_job(jid: int, seconds: float) -> TriageJob:
    return TriageJob(
        job_id=jid, name=f"sleep-{jid}", kind="pyfunc",
        params={"target": "repro.serve.harness:smoke_sleep_job",
                "kwargs": {"seconds": seconds}})


def _drain(pool: WorkerPool, wanted: int, deadline: float = _DEADLINE):
    events = []
    end = time.monotonic() + deadline
    while len(events) < wanted and time.monotonic() < end:
        events.extend(pool.poll(0.05))
    assert len(events) >= wanted, f"only {len(events)}/{wanted} events"
    return events


def _wait_dead(worker: SupervisedWorker, deadline: float = _DEADLINE) -> None:
    end = time.monotonic() + deadline
    while worker.alive():
        assert time.monotonic() < end, "SIGKILLed worker never exited"
        time.sleep(0.01)


def test_worker_round_trips_a_result(tmp_path):
    log = str(tmp_path / "log")
    worker = SupervisedWorker()
    try:
        worker.submit(_touch_job(1, log), attempt=3)
        assert worker.conn.poll(_DEADLINE)
        result = worker.conn.recv()
    finally:
        worker.close()
    assert result.status == "OK" and result.verdict is True
    assert result.attempts == 3
    assert open(log).read() == "job-1\n"


def test_worker_rejects_second_inflight_job(tmp_path):
    worker = SupervisedWorker()
    try:
        worker.submit(_sleep_job(1, 5.0))
        try:
            worker.submit(_sleep_job(2, 5.0))
        except RuntimeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("double submit should raise")
    finally:
        worker.kill()


def test_pool_completes_a_batch(tmp_path):
    log = str(tmp_path / "log")
    with WorkerPool(size=2) as pool:
        jobs = [_touch_job(i, log) for i in range(5)]
        backlog = list(jobs)
        results = []
        end = time.monotonic() + _DEADLINE
        while len(results) < len(jobs) and time.monotonic() < end:
            while backlog and pool.submit(backlog[0]):
                backlog.pop(0)
            results.extend(e.result for e in pool.poll(0.05)
                           if e.kind == "result")
    assert sorted(r.job_id for r in results) == [0, 1, 2, 3, 4]
    tokens = sorted(open(log).read().split())
    assert tokens == sorted(f"job-{i}" for i in range(5))


def test_pool_detects_crash_and_restarts_slot(tmp_path):
    marker = str(tmp_path / "marker")
    crash = TriageJob(
        job_id=9, name="crash", kind="pyfunc",
        params={"target": "repro.serve.harness:smoke_crash_once_job",
                "kwargs": {"marker_path": marker}})
    with WorkerPool(size=1) as pool:
        assert pool.submit(crash, attempt=1)
        (event,) = _drain(pool, 1)
        assert event.kind == "crash"
        assert event.job.job_id == 9 and event.attempt == 1
        assert event.fault.kind == "WorkerCrash"
        assert event.fault.retryable, "WorkerCrash must classify retryable"
        # The slot comes back (backoff is short on first failure) and the
        # retry -- marker now present -- completes.
        end = time.monotonic() + _DEADLINE
        while not pool.idle_workers() and time.monotonic() < end:
            time.sleep(0.01)
        assert pool.submit(crash, attempt=2)
        events = _drain(pool, 1)
        assert events[0].kind == "result"
        assert events[0].result.status == "OK"
        assert pool.stats()["restarts"] == 1


def test_submit_replaces_a_worker_that_died_idle(tmp_path):
    # The dead worker held no job, so the job must run on a fresh
    # worker at its original attempt -- no crash event, no retry.
    log = str(tmp_path / "log")
    with WorkerPool(size=1) as pool:
        (worker,) = pool.idle_workers()
        os.kill(worker.pid, signal.SIGKILL)
        _wait_dead(worker)
        assert pool.submit(_touch_job(1, log))
        (event,) = _drain(pool, 1)
    assert event.kind == "result"
    assert event.result.status == "OK" and event.result.attempts == 1
    assert open(log).read() == "job-1\n"


def test_pool_enforces_wall_clock_timeout():
    with WorkerPool(size=1, timeout=0.3) as pool:
        assert pool.submit(_sleep_job(1, 60.0))
        start = time.monotonic()
        (event,) = _drain(pool, 1)
        assert event.kind == "timeout"
        assert event.fault.kind == "Timeout"
        assert time.monotonic() - start < 10.0, "timeout sweep too slow"


def test_pool_detects_stalled_worker():
    # A sleeping pyfunc job never advances its progress array, so a
    # short heartbeat window flags it stalled (distinct from a crash:
    # the process is alive, just wedged).
    with WorkerPool(size=1, heartbeat_timeout=0.3) as pool:
        assert pool.submit(_sleep_job(1, 60.0))
        (event,) = _drain(pool, 1)
        assert event.kind == "stalled"
        assert event.fault.kind == "WorkerStalled"
        assert event.fault.retryable


def test_restart_backoff_grows_exponentially():
    pool = WorkerPool(size=1, restart_backoff=0.5)
    try:
        slot = pool._slots[0]
        delays = []
        for _ in range(5):
            slot.worker = SupervisedWorker()
            slot.worker.kill()
            before = time.monotonic()
            pool._schedule_restart(slot)
            delays.append(slot.restart_at - before)
        assert delays == sorted(delays)
        assert delays[0] < delays[3]
        assert all(d <= MAX_RESTART_BACKOFF + 0.01 for d in delays)
    finally:
        pool.shutdown(graceful=False)


def test_completed_job_resets_failure_streak(tmp_path):
    log = str(tmp_path / "log")
    marker = str(tmp_path / "marker")
    crash = TriageJob(
        job_id=1, name="crash", kind="pyfunc",
        params={"target": "repro.serve.harness:smoke_crash_once_job",
                "kwargs": {"marker_path": marker}})
    with WorkerPool(size=1) as pool:
        pool.submit(crash)
        _drain(pool, 1)
        assert pool._slots[0].failures == 1
        end = time.monotonic() + _DEADLINE
        while not pool.submit(_touch_job(2, log)):
            assert time.monotonic() < end, "slot never restarted"
            time.sleep(0.01)
        events = _drain(pool, 1)
        assert events[0].kind == "result"
        assert pool._slots[0].failures == 0


def test_worker_survives_parent_directed_sigint(tmp_path):
    """Workers ignore SIGINT: a Ctrl-C aimed at the service must not
    take the fleet down with it (the drain logic owns that decision)."""
    log = str(tmp_path / "log")
    worker = SupervisedWorker()
    try:
        os.kill(worker.pid, signal.SIGINT)
        time.sleep(0.1)
        assert worker.alive()
        worker.submit(_touch_job(1, log))
        assert worker.conn.poll(_DEADLINE)
        assert worker.conn.recv().status == "OK"
    finally:
        worker.close()


def test_worker_ignores_sigint_while_it_sets_up(tmp_path, monkeypatch):
    """SIGINT stays blocked across the fork until the child ignores it,
    so a Ctrl-C that reaches a just-forked worker cannot kill it.  A
    slow progress-sink install widens the child's set-up on purpose
    while the parent signals it."""
    install = supervisor.set_progress_sink

    def slow_install(sink):
        time.sleep(0.5)
        install(sink)

    monkeypatch.setattr(supervisor, "set_progress_sink", slow_install)
    log = str(tmp_path / "log")
    worker = SupervisedWorker()
    try:
        os.kill(worker.pid, signal.SIGINT)
        time.sleep(0.2)
        os.kill(worker.pid, signal.SIGINT)
        worker.submit(_touch_job(1, log))
        assert worker.conn.poll(_DEADLINE)
        assert worker.conn.recv().status == "OK"
    finally:
        worker.close()

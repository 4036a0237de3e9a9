"""Fault-injection suite: wedged, crashing, and raising samples must
degrade to ERROR rows while the rest of the batch completes."""

import os
import signal
import threading
import time

import pytest

from repro.analysis import triage
from repro.analysis.triage import (
    STATUS_ERROR,
    STATUS_OK,
    TriageJob,
    run_triage,
)


def _pyfunc_job(job_id, target, name=None, **kwargs):
    return TriageJob(
        job_id=job_id,
        name=name or target,
        kind="pyfunc",
        params={"target": f"tests.analysis.triage_fault_jobs:{target}",
                "kwargs": kwargs},
    )


def _batch_around(fault_job, healthy=4):
    """A batch with *fault_job* in the middle of healthy samples."""
    jobs = [_pyfunc_job(i, "ok_job", name=f"ok-{i}", token=1) for i in range(healthy)]
    jobs.insert(healthy // 2, fault_job)
    return [
        TriageJob(job_id=i, name=j.name, kind=j.kind, params=j.params)
        for i, j in enumerate(jobs)
    ]


def _assert_rest_completed(results, error_name):
    for r in results:
        if r.name == error_name:
            assert r.status == STATUS_ERROR
        else:
            assert r.status == STATUS_OK and r.verdict is True, r


class TestRaisingScenario:
    def test_exception_becomes_error_row(self):
        jobs = _batch_around(_pyfunc_job(0, "raising_job"))
        results = run_triage(jobs, jobs=2)
        _assert_rest_completed(results, "raising_job")
        [error_row] = [r for r in results if r.status == STATUS_ERROR]
        assert error_row.error == "ValueError: scenario exploded"
        assert error_row.attempts == 1  # exceptions are not retried

    def test_serial_path_degrades_identically(self):
        jobs = _batch_around(_pyfunc_job(0, "raising_job"))
        serial = run_triage(jobs, jobs=1)
        parallel = run_triage(jobs, jobs=2)
        assert [(r.name, r.status, r.verdict, r.error) for r in serial] == [
            (r.name, r.status, r.verdict, r.error) for r in parallel
        ]


class TestTimeout:
    def test_busy_loop_is_killed_and_reported(self):
        jobs = _batch_around(_pyfunc_job(0, "busy_loop_job"))
        results = run_triage(jobs, jobs=2, timeout=1.0)
        _assert_rest_completed(results, "busy_loop_job")
        [error_row] = [r for r in results if r.status == STATUS_ERROR]
        assert "timeout" in error_row.error
        assert "1s wall clock" in error_row.error

    def test_slow_but_finite_job_survives_generous_timeout(self):
        jobs = [_pyfunc_job(0, "slow_job", seconds=0.2),
                _pyfunc_job(1, "ok_job", token=1)]
        results = run_triage(jobs, jobs=2, timeout=30.0)
        assert all(r.status == STATUS_OK for r in results)


class TestWorkerCrash:
    def test_persistent_crasher_hits_retry_cap(self):
        jobs = _batch_around(_pyfunc_job(0, "selfkill_job"))
        results = run_triage(jobs, jobs=2, max_retries=1)
        _assert_rest_completed(results, "selfkill_job")
        [error_row] = [r for r in results if r.status == STATUS_ERROR]
        assert "worker died" in error_row.error
        assert error_row.attempts == 2  # initial run + one (capped) retry
        assert "attempt 2/2" in error_row.error

    def test_crash_once_succeeds_on_retry(self, tmp_path):
        marker = tmp_path / "first-attempt"
        jobs = _batch_around(
            _pyfunc_job(0, "crash_once_job", marker=str(marker))
        )
        results = run_triage(jobs, jobs=2, max_retries=1)
        assert all(r.status == STATUS_OK for r in results)
        [retried] = [r for r in results if r.name == "crash_once_job"]
        assert retried.attempts == 2  # the retry counter was exercised
        assert retried.verdict is True
        assert marker.exists()

    def test_zero_retries_fails_on_first_crash(self):
        jobs = _batch_around(_pyfunc_job(0, "selfkill_job"))
        results = run_triage(jobs, jobs=2, max_retries=0)
        [error_row] = [r for r in results if r.status == STATUS_ERROR]
        assert error_row.attempts == 1
        assert "attempt 1/1" in error_row.error
        _assert_rest_completed(results, "selfkill_job")


class TestShutdownDrain:
    def test_sigterm_drains_in_flight_jobs_and_reports_the_rest(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(triage, "DRAIN_TIMEOUT", 0.5)
        jobs = [_pyfunc_job(i, "marked_sleep_job", name=f"sleep-{i}",
                            marker=str(tmp_path / f"started-{i}"),
                            seconds=30.0)
                for i in range(6)]
        before = signal.getsignal(signal.SIGTERM)

        def sigterm_once_two_jobs_run():
            # Only signal once both workers hold a job: by then the
            # batch's handler is installed, so the test process survives.
            end = time.monotonic() + 30.0
            while len(list(tmp_path.glob("started-*"))) < 2:
                if time.monotonic() > end:
                    return
                time.sleep(0.01)
            os.kill(os.getpid(), signal.SIGTERM)

        timer = threading.Thread(target=sigterm_once_two_jobs_run)
        timer.start()
        start = time.monotonic()
        try:
            results = run_triage(jobs, jobs=2)
        finally:
            timer.join(timeout=30.0)
        assert time.monotonic() - start < 10.0
        assert [r.job_id for r in results] == list(range(6))
        for row in results[:2]:
            assert row.status == STATUS_ERROR
            assert row.fault["kind"] == "Shutdown"
            assert "drain deadline" in row.error
        for row in results[2:]:
            assert row.status == STATUS_ERROR
            assert row.fault["kind"] == "Shutdown"
            assert "never dispatched" in row.error
        assert signal.getsignal(signal.SIGTERM) == before

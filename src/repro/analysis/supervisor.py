"""The supervised worker pool: heartbeats, watchdogs, restart-with-backoff.

Every multi-process triage run goes through this one pool.  Batch runs
(:func:`repro.analysis.triage.run_triage` with ``jobs >= 2``) and the
long-running service (:mod:`repro.serve.service`) both drive it with
:meth:`WorkerPool.submit` and :meth:`WorkerPool.poll`, so crash
handling, retry policy and fault classification exist once:

* :class:`SupervisedWorker` -- one child process executing one job at a
  time, built on raw ``os.fork`` rather than :mod:`multiprocessing`
  processes.  That choice is load-bearing twice over: forked children
  are not "daemonic", so a supervised worker can itself run nested
  worker pools (the chaos harness exercises exactly this), and fork
  from a snapshot-primed parent shares the captured memory pages at
  the OS CoW level across the whole fleet.
* :class:`WorkerPool` -- N slots, each holding a worker.  ``poll()``
  surfaces results, crashes, per-job watchdog expiries, and
  heartbeat stalls as events; dead slots restart with exponential
  backoff; every death is classified through the
  :mod:`repro.faults` taxonomy (``WorkerCrash``/``WorkerStalled``/
  ``Timeout``).
* :func:`settle_death` -- the one retry rule, turning a death event
  into either a retry or the job's ERROR row.

The pool owns no queue: the batch keeps its submission-ordered backlog
and the service its journaled priority lanes.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import List, Optional

from repro.analysis.triage import (
    STATUS_ERROR,
    TriageJob,
    TriageResult,
    execute_job,
)
from repro.faults.errors import FaultRecord
from repro.faults.watchdog import (
    PROGRESS_SLOTS,
    SharedProgressSink,
    read_progress,
    set_progress_sink,
)

#: Default wall-clock staleness (seconds) of a worker's progress array
#: before the supervisor declares it wedged.  Generous: a healthy guest
#: publishes once per scheduler slice (~thousands of times a second).
DEFAULT_HEARTBEAT_TIMEOUT = 30.0

#: Restart backoff: base * 2**(consecutive_failures - 1), capped.
DEFAULT_RESTART_BACKOFF = 0.05
MAX_RESTART_BACKOFF = 5.0


def _child_main(conn, progress) -> None:
    """The forked worker body.  Never returns -- exits the process."""
    set_progress_sink(SharedProgressSink(progress))
    code = 0
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg is None:
                break
            job, attempt = msg
            result = execute_job(job, attempt=attempt)
            # Heartbeat for jobs that never enter the machine run loop
            # (pyfunc jobs): completing a job is progress too.
            progress[3] = 1
            try:
                conn.send(result)
            except (BrokenPipeError, OSError):
                break
    except BaseException:  # pragma: no cover - crash visibility
        import traceback

        traceback.print_exc()
        code = 1
    finally:
        # _exit: no atexit handlers, no flushing parent-inherited state.
        os._exit(code)


class SupervisedWorker:
    """One ``os.fork`` worker executing one job at a time.

    The pipe and progress array are created *before* the fork so both
    sides inherit them; the parent keeps one end, the child the other.
    The parent handles SIGINT/SIGTERM itself, so a worker must not die
    to a Ctrl-C aimed at the foreground process group: SIGINT stays
    blocked across the fork until the child ignores it.
    """

    def __init__(self) -> None:
        self.conn, child_conn = multiprocessing.Pipe()
        self.progress = multiprocessing.Array("q", PROGRESS_SLOTS, lock=False)
        SharedProgressSink(self.progress).reset()
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            pid = os.fork()
            if pid == 0:
                # The child ignores SIGINT before unblocking it, so one
                # that arrived in between is discarded.
                signal.signal(signal.SIGINT, signal.SIG_IGN)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if pid == 0:
            # Child: drop the parent's pipe end and serve jobs forever.
            self.conn.close()
            _child_main(child_conn, self.progress)
            os._exit(0)  # pragma: no cover - _child_main never returns
        child_conn.close()
        self.pid = pid
        self.job: Optional[TriageJob] = None
        self.attempt = 0
        self.deadline: Optional[float] = None
        self.submitted_at: Optional[float] = None
        self._last_beat: Optional[dict] = None
        self._last_beat_at: float = time.monotonic()
        self._reaped: Optional[int] = None

    # -- job lifecycle -----------------------------------------------------------

    def submit(self, job: TriageJob, attempt: int = 1,
               timeout: Optional[float] = None) -> None:
        if self.job is not None:
            raise RuntimeError(f"worker {self.pid} already has a job in flight")
        SharedProgressSink(self.progress).reset()
        self._last_beat = None
        self._last_beat_at = time.monotonic()
        self.conn.send((job, attempt))
        self.job, self.attempt = job, attempt
        self.submitted_at = time.monotonic()
        self.deadline = time.monotonic() + timeout if timeout else None

    def finish(self) -> None:
        self.job, self.attempt = None, 0
        self.deadline = self.submitted_at = None

    def last_progress(self) -> Optional[dict]:
        return read_progress(self.progress)

    # -- health ------------------------------------------------------------------

    def heartbeat_age(self) -> float:
        """Seconds since the worker last *advanced* its progress."""
        current = self.last_progress()
        if current != self._last_beat:
            self._last_beat = current
            self._last_beat_at = time.monotonic()
        return time.monotonic() - self._last_beat_at

    def alive(self) -> bool:
        if self._reaped is not None:
            return False
        pid, status = os.waitpid(self.pid, os.WNOHANG)
        if pid == self.pid:
            self._reaped = status
            return False
        return True

    @property
    def exit_code(self) -> Optional[int]:
        """The reaped process's exit code, negative for the signal that
        killed it (``multiprocessing``'s convention); None until reaped."""
        if self._reaped is None or self._reaped < 0:
            return None
        return os.waitstatus_to_exitcode(self._reaped)

    # -- teardown ----------------------------------------------------------------

    def kill(self) -> None:
        """SIGKILL and reap.  Safe to call repeatedly."""
        if self._reaped is None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                _, self._reaped = os.waitpid(self.pid, 0)
            except ChildProcessError:  # pragma: no cover - reaped elsewhere
                self._reaped = -1
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass

    def close(self) -> None:
        """Graceful stop: sentinel, short grace, then kill."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            if not self.alive():
                try:
                    self.conn.close()
                except OSError:  # pragma: no cover
                    pass
                return
            time.sleep(0.005)
        self.kill()


@dataclass
class WorkerEvent:
    """One thing the pool observed during :meth:`WorkerPool.poll`.

    ``kind`` is ``"result"`` (``result`` set) or one of the death kinds
    ``"crash"`` / ``"timeout"`` / ``"stalled"`` -- or ``"shutdown"``
    from :meth:`WorkerPool.shutdown` -- with ``fault`` set, carrying the
    worker's last published guest state, plus the dead worker's ``pid``
    and how long the job had run.  Death events always mean the
    in-flight ``job`` did not produce a result; the pool has already
    scheduled the slot's replacement.
    """

    kind: str
    job: Optional[TriageJob] = None
    attempt: int = 0
    result: Optional[TriageResult] = None
    fault: Optional[FaultRecord] = None
    pid: int = 0
    duration_s: float = 0.0


def settle_death(event: WorkerEvent, max_retries: int) -> Optional[TriageResult]:
    """The retry rule for a job whose worker died under it.

    Returns None when the job should run again at ``event.attempt + 1``:
    the death is retryable, it is not a timeout (a deterministic job
    that overran once would overrun again), and ``event.attempt`` is
    still within *max_retries*.  Otherwise returns the job's ERROR row.
    """
    fault = event.fault
    if (fault.retryable and event.kind != "timeout"
            and event.attempt <= max_retries):
        return None
    job = event.job
    return TriageResult(
        job_id=job.job_id, name=job.name, kind=job.kind,
        status=STATUS_ERROR, verdict=False,
        error=(f"{event.kind}: {fault.detail} on attempt "
               f"{event.attempt}/{max_retries + 1} (worker pid {event.pid})"),
        duration_s=event.duration_s, attempts=event.attempt,
        worker_pid=event.pid, fault=fault.to_json_dict(),
    )


@dataclass
class _Slot:
    worker: Optional[SupervisedWorker] = None
    failures: int = 0
    restart_at: float = 0.0
    restarts: int = 0


class WorkerPool:
    """N supervised slots with restart-on-death and health surfacing.

    The pool is a mechanism: :meth:`poll` reports what happened and
    keeps every slot eventually-alive, and the caller hands each death
    event to :func:`settle_death` to learn whether the job is retried or
    written off as an ERROR row.
    """

    def __init__(self, size: int,
                 timeout: Optional[float] = None,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 restart_backoff: float = DEFAULT_RESTART_BACKOFF) -> None:
        self.size = max(1, size)
        self.timeout = timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.restart_backoff = restart_backoff
        self._slots: List[_Slot] = [
            _Slot(worker=SupervisedWorker()) for _ in range(self.size)
        ]

    # -- slot management ---------------------------------------------------------

    def _schedule_restart(self, slot: _Slot) -> None:
        slot.worker = None
        slot.failures += 1
        slot.restarts += 1
        delay = min(
            self.restart_backoff * (2 ** (slot.failures - 1)),
            MAX_RESTART_BACKOFF,
        )
        slot.restart_at = time.monotonic() + delay

    def _restart_due(self) -> None:
        now = time.monotonic()
        for slot in self._slots:
            if slot.worker is None and slot.restart_at <= now:
                slot.worker = SupervisedWorker()

    # -- capacity ----------------------------------------------------------------

    def idle_workers(self) -> List[SupervisedWorker]:
        self._restart_due()
        return [s.worker for s in self._slots
                if s.worker is not None and s.worker.job is None]

    def busy_count(self) -> int:
        return sum(1 for s in self._slots
                   if s.worker is not None and s.worker.job is not None)

    def stats(self) -> dict:
        return {
            "size": self.size,
            "busy": self.busy_count(),
            "idle": len(self.idle_workers()),
            "restarts": sum(s.restarts for s in self._slots),
            "pending_restarts": sum(1 for s in self._slots if s.worker is None),
        }

    # -- the supervision pass ----------------------------------------------------

    def submit(self, job: TriageJob, attempt: int = 1) -> bool:
        """Hand *job* to an idle worker; False when none is available.

        A worker that died while idle held no job, so its slot gets a
        fresh worker at once and *job* keeps its attempt number.
        """
        self._restart_due()
        for slot in self._slots:
            if slot.worker is None or slot.worker.job is not None:
                continue
            try:
                slot.worker.submit(job, attempt, timeout=self.timeout)
            except OSError:  # BrokenPipeError: the worker died while idle
                slot.worker.kill()
                slot.worker = SupervisedWorker()
                slot.restarts += 1
                slot.worker.submit(job, attempt, timeout=self.timeout)
            return True
        return False

    def poll(self, wait: float = 0.1) -> List[WorkerEvent]:
        """One supervision pass: collect results, detect deaths.

        Blocks up to *wait* seconds for pipe activity, then sweeps
        watchdog deadlines and heartbeats.  Every event about an
        in-flight job is returned exactly once; dead slots are already
        scheduled for backoff restart when this returns.
        """
        events: List[WorkerEvent] = []
        self._restart_due()
        busy = {s.worker.conn: s for s in self._slots
                if s.worker is not None and s.worker.job is not None}
        if busy:
            budget = wait
            now = time.monotonic()
            deadlines = [
                max(0.0, w.deadline - now)
                for w in (s.worker for s in busy.values())
                if w.deadline is not None
            ]
            if deadlines:
                budget = min(budget, min(deadlines))
            ready = _connection_wait(list(busy), timeout=budget)
        else:
            time.sleep(min(wait, 0.01))
            ready = []
        for conn in ready:
            slot = busy[conn]
            worker = slot.worker
            try:
                result = conn.recv()
            except (EOFError, OSError):
                events.append(self._death(slot, "crash"))
                continue
            job, attempt = worker.job, worker.attempt
            worker.finish()
            slot.failures = 0  # a completed job proves the slot healthy
            events.append(WorkerEvent(kind="result", job=job,
                                      attempt=attempt, result=result))
        now = time.monotonic()
        for slot in self._slots:
            worker = slot.worker
            if worker is None or worker.job is None:
                continue
            if worker.deadline is not None and now >= worker.deadline:
                events.append(self._death(slot, "timeout"))
            elif not worker.alive():
                events.append(self._death(slot, "crash"))
            elif (self.heartbeat_timeout
                  and worker.heartbeat_age() > self.heartbeat_timeout):
                events.append(self._death(slot, "stalled"))
        return events

    def _death(self, slot: _Slot, kind: str) -> WorkerEvent:
        event = self._kill(slot.worker, kind)
        self._schedule_restart(slot)
        return event

    def _kill(self, worker: SupervisedWorker, kind: str) -> WorkerEvent:
        """SIGKILL *worker* and account for the job it held."""
        progress = worker.last_progress() or {}
        worker.kill()
        if kind == "crash":
            fault_kind = "WorkerCrash"
            detail = f"worker died (exit code {worker.exit_code})"
        elif kind == "timeout":
            fault_kind = "Timeout"
            detail = f"exceeded {self.timeout:g}s wall clock"
        elif kind == "stalled":
            fault_kind = "WorkerStalled"
            detail = f"no progress for {self.heartbeat_timeout:g}s"
        else:
            fault_kind, detail = "Shutdown", "killed at shutdown"
        fault = FaultRecord(
            kind=fault_kind, detail=detail,
            tick=progress.get("tick"), pc=progress.get("pc"),
            syscall=progress.get("syscall"),
        )
        return WorkerEvent(
            kind=kind, job=worker.job, attempt=worker.attempt, fault=fault,
            pid=worker.pid, duration_s=time.monotonic() - worker.submitted_at,
        )

    # -- teardown ----------------------------------------------------------------

    def shutdown(self, graceful: bool = True) -> List[WorkerEvent]:
        """Stop every worker: idle ones close gracefully when *graceful*,
        busy ones are killed.  Returns a ``"shutdown"`` event for each
        job killed in flight."""
        killed: List[WorkerEvent] = []
        for slot in self._slots:
            worker, slot.worker = slot.worker, None
            if worker is None:
                continue
            if worker.job is not None:
                killed.append(self._kill(worker, "shutdown"))
            elif graceful:
                worker.close()
            else:
                worker.kill()
        return killed

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(graceful=exc[0] is None)

"""Chaos harnesses for the service layer, plus smoke-test job bodies.

The chaos matrix (:mod:`repro.analysis.chaos`) injects *guest*-level
faults through :class:`~repro.faults.plan.FaultPlan`.  The two columns
here attack the *host* layer instead -- the supervised worker and the
snapshot integrity check -- and each must come out
DEGRADED-but-detected: the final row carries both the injected fault's
record and the verdict from the run that completed anyway.

Both harnesses run nested inside ordinary triage workers (the chaos
matrix shards over the pool), so the worker-crash harness forks its
own :class:`~repro.analysis.supervisor.SupervisedWorker` one level
down: pool workers are plain ``os.fork`` children, free to fork again.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Optional

from repro.analysis.supervisor import SupervisedWorker
from repro.analysis.triage import JobOutcome, TriageJob, TriageResult
from repro.emulator.snapshot import MachineSnapshot
from repro.faults.errors import FaultRecord
from repro.serve.pool import SnapshotPool, attack_snapshot_key, warm_attack_outcome

#: How long the harness will wait for the inner worker (seconds).  Far
#: above any attack's real runtime; a trip means the host is broken.
_HARNESS_DEADLINE = 120.0


def _await_result(worker: SupervisedWorker,
                  deadline: float = _HARNESS_DEADLINE) -> Optional[TriageResult]:
    """The worker's next result, or None if it died / ran out the clock."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if worker.conn.poll(0.05):
            try:
                return worker.conn.recv()
            except (EOFError, OSError):
                return None
        if not worker.alive():
            return None
    return None


def _outcome_from_result(result: TriageResult, fault: FaultRecord,
                         extra: dict) -> JobOutcome:
    """Fold a completed rerun's row and the injected fault into one
    outcome.  ``fault`` set forces the triage row DEGRADED; the verdict
    is the completed run's -- DEGRADED-but-detected."""
    merged = dict(result.extra)
    merged.update(extra)
    return JobOutcome(
        verdict=result.verdict,
        exit_code=result.exit_code,
        report=result.report,
        instructions=result.instructions,
        tainted_bytes=result.tainted_bytes,
        extra=merged,
        metrics=result.metrics,
        fault=fault.to_json_dict(),
    )


def worker_crash_outcome(attack: str) -> JobOutcome:
    """Kill a supervised worker mid-sample, then prove nothing was lost.

    The inner worker runs the attack; once its progress sink shows the
    guest actually executing (tick > 0 -- attacks retire hundreds of
    thousands of instructions, so the window is wide) it takes a
    SIGKILL.  The supervisor's contract then plays out in miniature:
    the death classifies as retryable ``WorkerCrash``, a fresh worker
    reruns the job, and the final row carries the crash record plus
    the rerun's verdict.
    """
    job = TriageJob(job_id=0, name=attack, kind="attack",
                    params={"attack": attack})

    worker = SupervisedWorker()
    worker.submit(job, attempt=1)
    killed_progress: Optional[dict] = None
    end = time.monotonic() + _HARNESS_DEADLINE
    while time.monotonic() < end:
        progress = worker.last_progress()
        if progress is not None and progress.get("tick", -1) > 0:
            killed_progress = progress
            break
        if worker.conn.poll(0):
            # The sample finished before the guest published -- drain it
            # and kill anyway; the rerun below still proves recovery.
            break
        time.sleep(0.001)
    os.kill(worker.pid, signal.SIGKILL)
    worker.kill()
    fault = FaultRecord(
        kind="WorkerCrash",
        detail=f"injected SIGKILL of worker pid {worker.pid} mid-sample",
        tick=(killed_progress or {}).get("tick"),
        pc=(killed_progress or {}).get("pc"),
        syscall=(killed_progress or {}).get("syscall"),
        injected=True,
    )

    retry = SupervisedWorker()
    try:
        retry.submit(job, attempt=2)
        result = _await_result(retry)
    finally:
        retry.close()
    if result is None:
        # The *retry* died too -- that is a real violation, surface it.
        return JobOutcome(
            verdict=False,
            extra={"attack": attack, "harness": "worker-crash"},
            fault=FaultRecord(
                kind="WorkerCrash",
                detail="retry worker also died; job lost",
                injected=True,
            ).to_json_dict(),
        )
    return _outcome_from_result(
        result, fault,
        extra={"harness": "worker-crash", "killed_tick": fault.tick},
    )


def snapshot_corrupt_outcome(attack: str) -> JobOutcome:
    """Flip a byte of frozen snapshot state; the digest check must fire.

    A private pool captures the attack's snapshot, one byte of the
    frozen kernel-state blob is flipped, and the warm path is asked to
    serve it.  The integrity check refuses the fork, the pool degrades
    to a cold boot with a ``DegradedPool`` record, and the cold run
    still detects the attack -- corruption costs warmth, not verdicts.
    """
    pool = SnapshotPool(prefork=0)
    key = attack_snapshot_key(attack)
    from repro.analysis.triage import ATTACK_BUILDER_REGISTRY

    snapshot = MachineSnapshot.capture(
        ATTACK_BUILDER_REGISTRY[attack]().scenario, name=key
    )
    blob = bytearray(snapshot.state_blob)
    blob[len(blob) // 2] ^= 0xFF
    snapshot.state_blob = bytes(blob)
    pool.put(key, snapshot)

    outcome = warm_attack_outcome(attack, pool=pool)
    outcome.extra["harness"] = "snapshot-corrupt"
    if outcome.fault is None:
        # The corrupted snapshot served a fork: the digest check failed
        # to fire.  Report the violation loudly.
        outcome.verdict = False
        outcome.fault = FaultRecord(
            kind="SnapshotIntegrityError",
            detail="corrupted snapshot was NOT detected by the digest check",
            injected=True,
        ).to_json_dict()
    return outcome


HARNESSES = {
    "worker-crash": worker_crash_outcome,
    "snapshot-corrupt": snapshot_corrupt_outcome,
}


def run_harness(name: str, attack: str) -> JobOutcome:
    return HARNESSES[name](attack)


# ----------------------------------------------------------------------
# smoke-test job bodies (self-contained: no tests/ import in CI)
# ----------------------------------------------------------------------

def smoke_touch_job(log_path: str, token: str) -> JobOutcome:
    """Append *token* to *log_path* -- one line per execution, so the
    smoke test can count executions per job."""
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(token + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    return JobOutcome(verdict=True, extra={"token": token})


def smoke_crash_once_job(marker_path: str, log_path: Optional[str] = None,
                         token: str = "crash-once") -> JobOutcome:
    """SIGKILL the worker on the first attempt, succeed on the second.

    The marker file is the cross-process attempt counter: absent means
    no attempt has run yet, so die *before* logging -- the retry is the
    only execution that counts.
    """
    if not os.path.exists(marker_path):
        with open(marker_path, "w", encoding="utf-8") as fh:
            fh.write(str(os.getpid()))
            fh.flush()
            os.fsync(fh.fileno())
        os.kill(os.getpid(), signal.SIGKILL)
    if log_path is not None:
        return smoke_touch_job(log_path, token)
    return JobOutcome(verdict=True, extra={"token": token})


def smoke_sleep_job(seconds: float) -> JobOutcome:
    """Burn wall clock -- backlog filler for the kill/restart phase."""
    time.sleep(seconds)
    return JobOutcome(verdict=True)

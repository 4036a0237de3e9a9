"""``repro serve``: the crash-safe triage service over a local socket.

Architecture (one process, two concurrency domains):

* The **asyncio domain** owns the Unix socket: it parses NDJSON
  requests, enforces admission control (per-tenant quotas, total-queue
  backpressure), journals accepted jobs, and streams result rows back
  to whichever connections subscribed to them.
* The **dispatcher thread** owns the
  :class:`~repro.analysis.supervisor.WorkerPool`: it feeds queued jobs
  to idle workers (priority lanes: high before normal before low),
  turns supervision events into rows through the pool's
  :func:`~repro.analysis.supervisor.settle_death` retry rule, and
  checkpoints every completion to the journal *before* the row is
  emitted.

Shared scheduler state sits behind one :class:`threading.Lock`;
cross-domain signaling is ``loop.call_soon_threadsafe``.  The write
ordering (accept-then-dispatch, done-then-emit) is what makes a
SIGKILL at any instant recoverable: on restart the journal replay
re-enqueues exactly the accepted-but-unfinished jobs and can re-emit
any completed row verbatim, so no job is ever lost or run twice.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set

from repro.analysis.supervisor import WorkerPool, settle_death
from repro.analysis.triage import DEFAULT_MAX_RETRIES, TriageJob, TriageResult
from repro.obs.metrics import MetricsRegistry
from repro.serve.journal import JobJournal, job_from_json_dict, job_to_json_dict

PRIORITIES = ("high", "normal", "low")


@dataclass
class ServeConfig:
    """Everything ``repro serve`` is parameterized by."""

    socket_path: str
    journal_path: str
    workers: int = 2
    timeout: Optional[float] = None
    #: Concurrent dispatched jobs (defaults to the worker count).
    max_inflight: Optional[int] = None
    #: Total queued jobs before submits are rejected (backpressure).
    max_queued: int = 1024
    #: Outstanding (queued + in-flight) jobs per tenant; None = no quota.
    tenant_quota: Optional[int] = None


@dataclass
class _QueueEntry:
    job: TriageJob
    attempt: int = 1
    priority: str = "normal"
    tenant: str = "default"


class TriageService:
    """The serve scheduler.  One instance per ``repro serve`` process."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.metrics = MetricsRegistry(enabled=True)
        self._ctr_accepted = self.metrics.counter("serve.jobs.accepted")
        self._ctr_rejected = self.metrics.counter("serve.jobs.rejected")
        self._ctr_completed = self.metrics.counter("serve.jobs.completed")
        self._ctr_retries = self.metrics.counter("serve.jobs.retried")
        self._ctr_resumed = self.metrics.counter("serve.jobs.resumed")

        self._lock = threading.Lock()
        self._lanes: Dict[str, Deque[_QueueEntry]] = {
            p: deque() for p in PRIORITIES
        }
        #: job_id -> entry, while dispatched to a worker.
        self._inflight: Dict[int, _QueueEntry] = {}
        #: job_id -> queued-or-inflight entry (admission dedupe).
        self._outstanding: Dict[int, _QueueEntry] = {}
        #: job_id -> completed row (journal-backed, re-emittable).
        self._done: Dict[int, dict] = {}
        #: job_id -> callbacks wanting that row.
        self._subscribers: Dict[int, List[Callable[[dict], None]]] = {}

        self.journal = JobJournal(config.journal_path)
        resumed = JobJournal.replay(config.journal_path)
        self._done.update(resumed.done)
        for entry in resumed.pending:
            self._admit_locked(_QueueEntry(
                job=entry.job, priority=entry.priority, tenant=entry.tenant,
            ), journal=False)  # already journaled; re-accepting would dupe
            self._ctr_resumed.inc()

        self.pool = WorkerPool(size=config.workers, timeout=config.timeout)
        self._stop = threading.Event()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # admission (called from the asyncio domain, under the lock)
    # ------------------------------------------------------------------

    def _tenant_load(self, tenant: str) -> int:
        return sum(1 for e in self._outstanding.values() if e.tenant == tenant)

    def _queued_total(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    def _admit_locked(self, entry: _QueueEntry, journal: bool = True) -> None:
        if journal:
            self.journal.append_accept(entry.job, priority=entry.priority,
                                       tenant=entry.tenant)
        self._lanes[entry.priority].append(entry)
        self._outstanding[entry.job.job_id] = entry

    def submit(self, job_dict: dict, priority: str = "normal",
               tenant: str = "default") -> dict:
        """Admit one job; returns its ack/reject/dedupe record."""
        if not isinstance(job_dict, dict):
            return {"rec": "reject", "job_id": None,
                    "reason": "malformed job: not a JSON object"}
        if priority not in PRIORITIES:
            return {"rec": "reject", "job_id": job_dict.get("job_id"),
                    "reason": f"unknown priority {priority!r}"}
        try:
            job = job_from_json_dict(job_dict)
        except (KeyError, TypeError, ValueError) as exc:
            return {"rec": "reject", "job_id": job_dict.get("job_id"),
                    "reason": f"malformed job: {exc}"}
        if type(job.job_id) is not int:
            return {"rec": "reject", "job_id": job.job_id,
                    "reason": "malformed job: job_id is not an integer"}
        with self._lock:
            if job.job_id in self._done:
                # Exactly-once across resubmission: the work already
                # happened, the journaled row stands in for a re-run.
                return {"rec": "ack", "job_id": job.job_id, "accepted": True,
                        "duplicate": "done"}
            if job.job_id in self._outstanding:
                return {"rec": "ack", "job_id": job.job_id, "accepted": True,
                        "duplicate": "outstanding"}
            if self._queued_total() >= self.config.max_queued:
                self._ctr_rejected.inc()
                return {"rec": "reject", "job_id": job.job_id,
                        "reason": "backpressure: queue full"}
            quota = self.config.tenant_quota
            if quota is not None and self._tenant_load(tenant) >= quota:
                self._ctr_rejected.inc()
                return {"rec": "reject", "job_id": job.job_id,
                        "reason": f"tenant {tenant!r} over quota ({quota})"}
            self._admit_locked(_QueueEntry(job=job, priority=priority,
                                           tenant=tenant))
            self._ctr_accepted.inc()
        return {"rec": "ack", "job_id": job.job_id, "accepted": True}

    def subscribe(self, job_ids: Sequence[int],
                  callback: Callable[[dict], None]) -> List[dict]:
        """Register *callback* for rows; returns already-done rows now."""
        ready: List[dict] = []
        with self._lock:
            for jid in job_ids:
                row = self._done.get(jid)
                if row is not None:
                    ready.append({"rec": "result", "result": row})
                else:
                    self._subscribers.setdefault(jid, []).append(callback)
        return ready

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def health(self) -> dict:
        with self._lock:
            queued = {p: len(lane) for p, lane in self._lanes.items()}
            inflight = len(self._inflight)
            done = len(self._done)
        return {
            "rec": "health",
            "ok": self._dispatcher.is_alive() and not self._stop.is_set(),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "queued": queued,
            "inflight": inflight,
            "done": done,
            "pool": self.pool.stats(),
        }

    def metrics_view(self) -> dict:
        return {"rec": "metrics", "metrics": self.metrics.snapshot()}

    # ------------------------------------------------------------------
    # the dispatcher thread
    # ------------------------------------------------------------------

    def _next_entry_locked(self) -> Optional[_QueueEntry]:
        for priority in PRIORITIES:
            lane = self._lanes[priority]
            if lane:
                return lane.popleft()
        return None

    def _dispatch_ready(self) -> None:
        max_inflight = self.config.max_inflight or self.config.workers
        while True:
            with self._lock:
                if len(self._inflight) >= max_inflight:
                    return
                entry = self._next_entry_locked()
                if entry is None:
                    return
                self._inflight[entry.job.job_id] = entry
            if not self.pool.submit(entry.job, attempt=entry.attempt):
                # No idle worker after all (restart backoff in progress):
                # put it back at the head of its lane.
                with self._lock:
                    del self._inflight[entry.job.job_id]
                    self._lanes[entry.priority].appendleft(entry)
                return

    def _complete(self, result: TriageResult) -> None:
        """Checkpoint + emit one finished row (the exactly-once edge)."""
        row = result.to_json_dict()
        with self._lock:
            self.journal.append_done(result)
            self._done[result.job_id] = row
            self._inflight.pop(result.job_id, None)
            self._outstanding.pop(result.job_id, None)
            callbacks = self._subscribers.pop(result.job_id, [])
            self._ctr_completed.inc()
        payload = {"rec": "result", "result": row}
        for callback in callbacks:
            callback(payload)

    def _handle_death(self, event) -> None:
        with self._lock:
            entry = self._inflight.pop(event.job.job_id, None)
        if entry is None:  # pragma: no cover - stale event
            return
        row = settle_death(event, DEFAULT_MAX_RETRIES)
        if row is not None:
            self._complete(row)
            return
        entry.attempt += 1
        with self._lock:
            self._lanes[entry.priority].appendleft(entry)
            self._ctr_retries.inc()

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            self._dispatch_ready()
            for event in self.pool.poll(0.05):
                if event.kind == "result":
                    self._complete(event.result)
                else:
                    self._handle_death(event)
        self.pool.shutdown(graceful=True)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self._dispatcher.start()

    def stop(self) -> None:
        self._stop.set()
        self._dispatcher.join(timeout=10.0)
        self.journal.close()


# ----------------------------------------------------------------------
# the asyncio socket front end
# ----------------------------------------------------------------------

async def _handle_connection(service: TriageService, reader, writer) -> None:
    loop = asyncio.get_running_loop()
    out: asyncio.Queue = asyncio.Queue()

    def emit(payload: dict) -> None:
        # Called from the dispatcher thread.
        loop.call_soon_threadsafe(out.put_nowait, payload)

    async def drain_out() -> None:
        while True:
            payload = await out.get()
            if payload is None:
                return
            try:
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                # The peer hung up mid-stream (e.g. right after sending
                # ``shutdown``); nothing left to deliver.  Must not leak
                # out of the handler's finally -- it would mask
                # _ShutdownRequested and wedge the server.
                return

    drainer = asyncio.ensure_future(drain_out())
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            try:
                request = json.loads(line)
            except json.JSONDecodeError:
                out.put_nowait({"rec": "error", "reason": "bad json"})
                continue
            if not isinstance(request, dict):
                out.put_nowait({"rec": "error",
                                "reason": "bad request: not a JSON object"})
                continue
            op = request.get("op")
            if op == "submit":
                priority = request.get("priority", "normal")
                tenant = request.get("tenant", "default")
                job_dicts = request.get("jobs", [])
                if not isinstance(job_dicts, list):
                    out.put_nowait({"rec": "error",
                                    "reason": "bad submit: jobs is not a list"})
                    continue
                accepted_ids = []
                for job_dict in job_dicts:
                    ack = service.submit(job_dict, priority=priority,
                                         tenant=tenant)
                    out.put_nowait(ack)
                    if ack["rec"] == "ack":
                        accepted_ids.append(ack["job_id"])
                for payload in service.subscribe(accepted_ids, emit):
                    out.put_nowait(payload)
            elif op == "await":
                try:
                    ids = [int(j) for j in request.get("job_ids", [])]
                except (TypeError, ValueError):
                    out.put_nowait({"rec": "error", "reason":
                                    "bad await: job_ids are not integers"})
                    continue
                for payload in service.subscribe(ids, emit):
                    out.put_nowait(payload)
            elif op == "health":
                out.put_nowait(service.health())
            elif op == "metrics":
                out.put_nowait(service.metrics_view())
            elif op == "shutdown":
                out.put_nowait({"rec": "bye"})
                raise _ShutdownRequested()
            else:
                out.put_nowait({"rec": "error", "reason": f"unknown op {op!r}"})
    finally:
        out.put_nowait(None)
        try:
            await asyncio.wait_for(drainer, timeout=5.0)
        except asyncio.TimeoutError:  # pragma: no cover
            drainer.cancel()
        writer.close()


class _ShutdownRequested(Exception):
    pass


async def _serve_async(service: TriageService) -> None:
    stop_event = asyncio.Event()

    async def handler(reader, writer):
        try:
            await _handle_connection(service, reader, writer)
        except _ShutdownRequested:
            stop_event.set()

    path = service.config.socket_path
    if os.path.exists(path):
        os.unlink(path)
    server = await asyncio.start_unix_server(handler, path=path)
    async with server:
        await stop_event.wait()


def run_service(config: ServeConfig) -> None:
    """Run the service until a client sends ``shutdown`` (blocking)."""
    service = TriageService(config)
    service.start()
    try:
        asyncio.run(_serve_async(service))
    finally:
        service.stop()
        if os.path.exists(config.socket_path):
            os.unlink(config.socket_path)


# ----------------------------------------------------------------------
# the synchronous client (tests, CLI, smoke)
# ----------------------------------------------------------------------

class ServeClient:
    """Blocking NDJSON client for one service socket.

    Result rows stream in whenever a subscribed job finishes, so they
    can arrive while a request waits for its own reply (a submit's acks,
    a health view).  Those rows are held and handed out by
    :meth:`next_result` before anything still on the socket.
    """

    def __init__(self, socket_path: str, timeout: float = 120.0) -> None:
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(socket_path)
        self._fh = self._sock.makefile("rwb")
        self._held: Deque[dict] = deque()

    @classmethod
    def connect(cls, socket_path: str, timeout: float = 120.0,
                retry_for: float = 10.0) -> "ServeClient":
        """Connect, retrying while the service finishes starting up."""
        deadline = time.monotonic() + retry_for
        while True:
            try:
                return cls(socket_path, timeout=timeout)
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    def _send(self, request: dict) -> None:
        self._fh.write((json.dumps(request) + "\n").encode())
        self._fh.flush()

    def _recv(self) -> dict:
        line = self._fh.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    def _recv_reply(self, *recs: str) -> dict:
        """The next record whose ``rec`` is one of *recs*, holding any
        result row read on the way for :meth:`next_result`."""
        while True:
            record = self._recv()
            rec = record.get("rec")
            if rec in recs:
                return record
            if rec == "result":
                self._held.append(record)

    def submit(self, jobs: Sequence[TriageJob], priority: str = "normal",
               tenant: str = "default") -> List[dict]:
        """Submit *jobs*; returns their ack/reject records."""
        self._send({
            "op": "submit",
            "jobs": [job_to_json_dict(j) for j in jobs],
            "priority": priority,
            "tenant": tenant,
        })
        return [self._recv_reply("ack", "reject") for _ in jobs]

    def await_jobs(self, job_ids: Sequence[int]) -> None:
        self._send({"op": "await", "job_ids": list(job_ids)})

    def next_result(self) -> TriageResult:
        """The next streamed result row: held rows first, then the
        socket (blocking)."""
        if self._held:
            return TriageResult.from_json_dict(self._held.popleft()["result"])
        while True:
            record = self._recv()
            if record.get("rec") == "result":
                return TriageResult.from_json_dict(record["result"])
            if record.get("rec") in ("error", "reject"):
                raise RuntimeError(f"service error: {record}")
            # acks and view records interleave; skip them here.

    def collect(self, job_ids: Sequence[int]) -> Dict[int, TriageResult]:
        """Block until a row for every id in *job_ids* has streamed in
        (the subscription must already exist: submit or await_jobs)."""
        wanted: Set[int] = set(job_ids)
        rows: Dict[int, TriageResult] = {}
        while wanted:
            result = self.next_result()
            if result.job_id in wanted:
                wanted.discard(result.job_id)
                rows[result.job_id] = result
        return rows

    def health(self) -> dict:
        self._send({"op": "health"})
        return self._recv_reply("health")

    def metrics(self) -> dict:
        self._send({"op": "metrics"})
        return self._recv_reply("metrics")["metrics"]

    def shutdown(self) -> None:
        self._send({"op": "shutdown"})

    def close(self) -> None:
        try:
            self._fh.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# the smoke scenario (CI's serve-smoke job; also a test helper)
# ----------------------------------------------------------------------

def _spawn_service(config: ServeConfig):
    """The service as a child process (so the smoke can SIGKILL it)."""
    import subprocess
    import sys

    argv = [
        sys.executable, "-m", "repro", "serve",
        "--socket", config.socket_path,
        "--journal", config.journal_path,
        "--jobs", str(config.workers),
    ]
    if config.timeout:
        argv += ["--timeout", str(config.timeout)]
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(argv, env=env)


def run_smoke(workdir: str, attacks: Sequence[str] = ("code_injection",),
              workers: int = 2) -> dict:
    """The end-to-end smoke: mixed batch, one injected worker crash,
    then kill-and-restart mid-backlog.  Returns a summary dict; raises
    AssertionError on any lost job, duplicated execution, or mismatch
    against the serial baseline.
    """
    from repro.analysis.triage import execute_job

    os.makedirs(workdir, exist_ok=True)
    sock = os.path.join(workdir, "serve.sock")
    journal = os.path.join(workdir, "serve.journal")
    log = os.path.join(workdir, "executions.log")
    marker = os.path.join(workdir, "crash-once.marker")
    config = ServeConfig(socket_path=sock, journal_path=journal,
                         workers=workers)

    # --- phase 1: mixed batch with one injected worker crash ----------
    jobs: List[TriageJob] = []
    jid = 0
    for attack in attacks:
        jobs.append(TriageJob(job_id=jid, name=attack, kind="attack",
                              params={"attack": attack}))
        jid += 1
    jobs.append(TriageJob(
        job_id=jid, name="crash-once", kind="pyfunc",
        params={"target": "repro.serve.harness:smoke_crash_once_job",
                "kwargs": {"marker_path": marker, "log_path": log,
                           "token": f"job-{jid}"}}))
    crash_id = jid
    jid += 1
    for i in range(3):
        jobs.append(TriageJob(
            job_id=jid, name=f"touch-{i}", kind="pyfunc",
            params={"target": "repro.serve.harness:smoke_touch_job",
                    "kwargs": {"log_path": log, "token": f"job-{jid}"}}))
        jid += 1

    proc = _spawn_service(config)
    try:
        with ServeClient.connect(sock, retry_for=30.0) as client:
            acks = client.submit(jobs)
            assert all(a["rec"] == "ack" for a in acks), f"rejected: {acks}"
            rows = client.collect([j.job_id for j in jobs])
            assert client.health()["ok"]
            client.shutdown()
        proc.wait(timeout=30.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    assert len(rows) == len(jobs), "phase 1 lost jobs"
    assert all(r.status == "OK" for r in rows.values()), {
        i: (r.status, r.error) for i, r in rows.items() if r.status != "OK"}
    assert rows[crash_id].attempts == 2, "crash job was not retried"

    # Serial baseline: the marker now exists, so the crash job runs
    # clean; every row must match the service's on stable fields.
    volatile = {"duration_s", "worker_pid", "attempts", "metrics"}
    for job in jobs:
        baseline = execute_job(job).to_json_dict()
        served = rows[job.job_id].to_json_dict()
        for k in volatile:
            baseline.pop(k, None), served.pop(k, None)
        if job.job_id == crash_id or job.kind == "pyfunc":
            # Side-effect jobs append to the log on every run; compare
            # status/verdict only.
            assert (baseline["status"], baseline["verdict"]) == \
                   (served["status"], served["verdict"]), job
        else:
            assert baseline == served, f"serial mismatch for {job}"

    # Each phase-1 pyfunc job executed exactly once through the service
    # (the baseline re-runs above appended one more line per job).
    with open(log, encoding="utf-8") as fh:
        counts: Dict[str, int] = {}
        for line in fh:
            counts[line.strip()] = counts.get(line.strip(), 0) + 1
    for job in jobs:
        if job.kind == "pyfunc":
            token = job.params["kwargs"]["token"]
            assert counts.get(token) == 2, (token, counts)

    # --- phase 2: SIGKILL mid-backlog, restart, exactly-once resume ---
    log2 = os.path.join(workdir, "executions2.log")
    # One slow head per worker pins the whole pool, so nothing behind
    # them can have executed when the SIGKILL lands -- the restart then
    # runs each backlog job for the first and only time.
    backlog = [
        TriageJob(job_id=90 + i, name=f"slow-head-{i}", kind="pyfunc",
                  params={"target": "repro.serve.harness:smoke_sleep_job",
                          "kwargs": {"seconds": 5.0}})
        for i in range(workers)
    ]
    backlog += [
        TriageJob(job_id=100 + i, name=f"backlog-{i}", kind="pyfunc",
                  params={"target": "repro.serve.harness:smoke_touch_job",
                          "kwargs": {"log_path": log2,
                                     "token": f"job-{100 + i}"}})
        for i in range(8)
    ]

    proc = _spawn_service(config)
    try:
        with ServeClient.connect(sock, retry_for=30.0) as client:
            acks = client.submit(backlog)
            assert all(a["rec"] == "ack" for a in acks)
    finally:
        proc.kill()  # mid-backlog, no grace
        proc.wait()

    proc = _spawn_service(config)
    try:
        with ServeClient.connect(sock, retry_for=30.0) as client:
            client.await_jobs([j.job_id for j in backlog])
            rows2 = client.collect([j.job_id for j in backlog])
            client.shutdown()
        proc.wait(timeout=30.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    assert len(rows2) == len(backlog), "restart lost jobs"
    with open(log2, encoding="utf-8") as fh:
        counts2: Dict[str, int] = {}
        for line in fh:
            counts2[line.strip()] = counts2.get(line.strip(), 0) + 1
    dupes = {t: c for t, c in counts2.items() if c != 1}
    assert not dupes, f"jobs executed more than once across restart: {dupes}"
    assert len(counts2) == len(backlog) - workers, "backlog executions missing"

    return {
        "phase1_jobs": len(jobs),
        "phase1_ok": True,
        "crash_attempts": rows[crash_id].attempts,
        "phase2_jobs": len(backlog),
        "phase2_exactly_once": True,
    }

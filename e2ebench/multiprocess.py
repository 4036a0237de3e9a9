"""The two multi-process workloads: batch triage of the Table IV corpus
(closed batch) and an open-loop mixed load against ``repro serve``."""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

from harness import (
    OUT_DIR, ROOT, SRC, Run, descendants_peak_kb,
    import_probe_s, median, now, percentile, worker_count,
)

from repro.analysis.triage import (
    ATTACK_BUILDER_REGISTRY, TriageJob, corpus_jobs, run_triage,
)
from repro.serve.journal import job_to_json_dict
from repro.workloads.corpus import corpus_samples

#: What ``repro table4 --full --jobs N`` imports before it can start.
BATCH_MODULES = ("repro.cli", "repro.analysis.experiments",
                 "repro.analysis.triage")

CORPUS_TAIL_PERCENTILE = 90
SERVE_TAIL_PERCENTILE = 90

#: Offered load for ``serve_mixed``, jobs per second.  Fixed, never
#: re-calibrated: 40% of the 14.9 jobs/s two workers sustained on this
#: mix, so that a host running 1.5x slower still leaves the service
#: near 60% busy instead of close to saturation, where queueing would
#: multiply the host's noise into the latencies.
SERVE_RATE = 6.0

#: Jobs in one round of the serve mix: 104 corpus samples, 14 attacks.
SERVE_ROUND = 118

#: Longest a run waits for outstanding rows after the last send.
SERVE_DRAIN_S = 90.0


def _row_counts(row: dict) -> Dict[str, float]:
    report = row.get("report") or {}
    return {
        "tracked_insns": row["instructions"],
        "flags": len(report.get("flags", ())),
        "tainted_bytes": row["tainted_bytes"],
    }


# ----------------------------------------------------------------------
# corpus_batch
# ----------------------------------------------------------------------

def corpus_batch(run: Run) -> Dict[str, float]:
    """``run_triage`` over all 104 Table IV samples, ``jobs`` = nproc."""
    span = run.tracer.span
    workers = worker_count()
    run.meta["workers"] = workers

    def setup():
        import_probe_s(BATCH_MODULES)
        return corpus_samples()

    specs = run.setup(setup)

    batch_walls: List[float] = []
    durations: List[float] = []
    busy: List[float] = []
    tracked = tainted = workers_peak_kb = 0
    for _ in run.passes():
        jobs = corpus_jobs(run.rng.sample(specs, len(specs)))
        with run.sampler(rss=True) as sampler:
            start = now()
            with span("analysis.run_triage") as batch:
                rows = run_triage(jobs, jobs=workers)
            wall = now() - start
        batch_walls.append(wall)
        workers_peak_kb = max(workers_peak_kb, sampler.peak_kb)
        if len(rows) != len(jobs):
            run.checks.fail(f"corpus: {len(rows)} rows for {len(jobs)} jobs")
        for job, row in zip(jobs, rows):
            counts = _row_counts(row.to_json_dict())
            ok = (row.ok and not row.verdict and row.name == job.name
                  and run.counts.observe(f"corpus:{row.name}", counts))
            run.checks.op(ok, f"corpus {job.name}: {row.status} "
                              f"verdict={row.verdict} {row.error or ''}")
            durations.append(row.duration_s)
            tracked += counts["tracked_insns"]
            tainted += counts["tainted_bytes"]
        exec_s = sum(r.duration_s for r in rows)
        busy.append(exec_s / (wall * workers))
        if run.trace:
            # Outside split of the batch span: worker execution (summed
            # row durations over the worker count), the rest is pool
            # dispatch, worker start-up and result transport.
            tracer = run.tracer
            parent = batch.index
            begin = tracer.spans[parent][1]
            tracer.add("analysis.job_exec", begin, begin + exec_s / workers,
                       parent=parent)
            tracer.add("analysis.pool", begin + exec_s / workers,
                       begin + wall, parent=parent)

    run.meta["passes"] = len(batch_walls)
    run.meta["latency_samples"] = len(durations)
    run.meta["latency_tail_percentile"] = CORPUS_TAIL_PERCENTILE
    layers = {}
    if run.trace:
        per = len(batch_walls)
        layers.update({
            "analysis.job_ms_p50": 1e3 * median(durations),
            "analysis.job_ms_p90": 1e3 * percentile(durations, 90),
            "analysis.pool_busy_share": median(busy),
            "taint.tracked_insns": tracked / per,
            "faros.tainted_bytes": tainted / per,
            "taint.us_per_tracked_insn": (
                1e6 * sum(durations) / tracked if tracked else 0.0),
        })
    return {
        "jobs_per_s": len(specs) * len(batch_walls) / sum(batch_walls),
        "latency_p50_ms": 1e3 * median(durations),
        "latency_tail_ms": 1e3 * percentile(durations, CORPUS_TAIL_PERCENTILE),
        "children_peak_kb": workers_peak_kb,
        "layers": layers,
    }


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------

def serve_schedule(rng, rounds: int) -> List[TriageJob]:
    """*rounds* rounds of the serve mix in seeded order, numbered.

    A round is the 104 corpus samples plus the seven roster attacks
    twice, the attacks on the warm path.  The attacks are spread one
    per stratum of the round (seeded position within it), so the seed
    cannot cluster the heavy jobs into one burst.
    """
    corpus = corpus_jobs(corpus_samples())
    attacks = [name for _ in range(2) for name in ATTACK_BUILDER_REGISTRY]
    jobs: List[TriageJob] = []
    for _ in range(rounds):
        samples = rng.sample(corpus, len(corpus))
        order = rng.sample(attacks, len(attacks))
        for i, name in enumerate(order):
            lo = len(samples) * i // len(order)
            hi = len(samples) * (i + 1) // len(order)
            block = [(job.name, job.kind, job.params) for job in samples[lo:hi]]
            block.insert(rng.randint(0, len(block)),
                         (name, "attack", {"attack": name, "execution": "warm"}))
            for job_name, kind, params in block:
                jobs.append(TriageJob(job_id=len(jobs), name=job_name,
                                      kind=kind, params=params))
    return jobs


class _Service:
    """One ``repro serve`` child process with its own journal directory."""

    def __init__(self, workers: int) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR)
        # Relative to the checkout root (the cwd of both processes), so
        # the Unix socket path stays short wherever the checkout lives.
        rel = os.path.relpath(self.workdir, ROOT)
        self.socket_path = os.path.join(rel, "s.sock")
        self.journal_path = os.path.join(self.workdir, "journal.ndjson")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", self.socket_path, "--journal", self.journal_path,
             "--jobs", str(workers)],
            cwd=ROOT, env=env, start_new_session=True,
            stdout=subprocess.DEVNULL,
        )
        self.sock: Optional[socket.socket] = None

    def connect(self, timeout: float = 60.0) -> None:
        deadline = now() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.socket_path)
            except (FileNotFoundError, ConnectionRefusedError):
                sock.close()
                if now() >= deadline:
                    raise
                time.sleep(0.001)
                continue
            self.sock = sock
            self.reader = sock.makefile("rb")
            return

    def send(self, request: dict) -> None:
        self.sock.sendall((json.dumps(request) + "\n").encode())

    def recv(self) -> Optional[dict]:
        line = self.reader.readline()
        return json.loads(line) if line else None

    def health(self) -> dict:
        self.send({"op": "health"})
        while True:
            record = self.recv()
            if record is None:
                raise RuntimeError("service closed the connection")
            if record.get("rec") == "health":
                return record

    def close(self) -> None:
        """Ask for shutdown, wait for the service and its workers to end."""
        try:
            if self.sock is not None:
                self.send({"op": "shutdown"})
                self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
            if self.sock is not None:
                self.reader.close()
                self.sock.close()
                self.sock = None
        # Workers share the service's process group: reap any straggler.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def remove(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def serve_mixed(run: Run) -> Dict[str, float]:
    """Open loop at ``SERVE_RATE`` jobs/s into a spawned ``repro serve``."""
    workers = worker_count()
    services: List[_Service] = []

    def setup() -> _Service:
        service = _Service(workers)
        services.append(service)
        service.connect()
        if not service.health().get("ok"):
            run.checks.fail("serve: health check not ok at start-up")
        return service

    try:
        service = run.setup(setup, teardown=_Service.close)
        return _drive(run, service, workers)
    finally:
        for service in services:
            service.close()
            service.remove()


def _job_spans(run: Run, spans) -> None:
    """Outside split of each job's latency, recorded after the timed
    window: generator lag, ack (including the fsync'd accept), queueing
    plus transport, and the worker's own execution, placed last."""
    tracer = run.tracer
    tracer.enabled = True
    for jid, due_at, sent, acked, arrived, exec_s in spans:
        parent = tracer.add("serve.job", due_at, arrived, job=jid)
        tracer.add("serve.generator_lag", due_at, sent, parent, jid)
        tracer.add("serve.ack", sent, acked, parent, jid)
        tracer.add("serve.queue", acked, arrived - exec_s, parent, jid)
        tracer.add("serve.exec", arrived - exec_s, arrived, parent, jid)
    tracer.enabled = False


def _drive(run: Run, service: _Service, workers: int) -> Dict[str, float]:
    rng = run.rng
    rounds = max(1, int(SERVE_RATE * run.seconds / SERVE_ROUND))
    jobs = serve_schedule(rng, rounds)
    # Jittered periodic arrivals: job k is due at (k + u) / rate with u
    # uniform in [0, 1), an open loop whose bursts stay bounded.
    due = [(k + rng.random()) / SERVE_RATE for k in range(len(jobs))]
    run.meta.update({"workers": workers, "offered_rate": SERVE_RATE,
                     "jobs": len(jobs), "rounds": rounds})

    sent: Dict[int, float] = {}
    acked: Dict[int, float] = {}
    rows: Dict[int, dict] = {}
    arrived: Dict[int, float] = {}
    problems: List[str] = []
    done = threading.Event()

    def reader() -> None:
        # Routes every streamed record by its ``rec`` field: acks and
        # result rows interleave on the one connection.
        try:
            while len(arrived) < len(jobs):
                record = service.recv()
                if record is None:
                    problems.append("service closed the connection")
                    return
                at = now()
                rec = record.get("rec")
                if rec == "ack":
                    jid = record["job_id"]
                    if jid in acked or record.get("duplicate"):
                        problems.append(f"job {jid}: unexpected ack {record}")
                    acked[jid] = at
                elif rec == "result":
                    row = record["result"]
                    jid = row["job_id"]
                    if jid in arrived:
                        problems.append(f"job {jid}: second result row")
                    rows[jid] = row
                    arrived[jid] = at
                else:
                    problems.append(f"unexpected record {record}")
        finally:
            done.set()

    with run.sampler(rss=False) as sampler:
        thread = threading.Thread(target=reader, name="serve-reader",
                                  daemon=True)
        thread.start()
        base = now() + 0.05
        for job, offset in zip(jobs, due):
            wait = base + offset - now()
            if wait > 0:
                done.wait(wait)
            sent[job.job_id] = now()
            service.send({"op": "submit", "jobs": [job_to_json_dict(job)]})
        done.wait(SERVE_DRAIN_S)
    if thread.is_alive():
        problems.append(f"{len(jobs) - len(arrived)} rows missing after drain")
    # The service and its workers, read while they are still alive.
    service_peak_kb = descendants_peak_kb()
    service.close()
    thread.join(timeout=10)
    journal_bytes = os.path.getsize(service.journal_path)

    for text in problems:
        run.checks.fail(f"serve: {text}")
    latencies: List[float] = []
    lags: List[float] = []
    ack_ms: List[float] = []
    queue_ms: List[float] = []
    exec_ms: List[float] = []
    warm_rows = warm_ok = 0
    tracked = tainted = flags = 0
    spans = []
    for job, offset in zip(jobs, due):
        jid = job.job_id
        row = rows.get(jid)
        if row is None or jid not in acked:
            run.checks.op(False, f"serve {job.name}: no ack or no row")
            continue
        counts = _row_counts(row)
        fault = row.get("fault") or {}
        warm = job.params.get("execution") == "warm"
        if warm:
            warm_rows += 1
            warm_ok += fault.get("kind") != "DegradedPool"
        expect_flag = job.kind == "attack"
        ok = (row["status"] == "OK" and bool(row["verdict"]) == expect_flag
              and not (warm and fault)
              and run.counts.observe(f"{job.kind}:{job.name}", counts))
        run.checks.op(ok, f"serve {job.name}: {row['status']} "
                          f"verdict={row['verdict']} fault={fault.get('kind')}")
        due_at = base + offset
        exec_s = row["duration_s"]
        latencies.append(1e3 * (arrived[jid] - due_at))
        lags.append(1e3 * (sent[jid] - due_at))
        ack_ms.append(1e3 * (acked[jid] - sent[jid]))
        queue_ms.append(1e3 * (arrived[jid] - acked[jid] - exec_s))
        exec_ms.append(1e3 * exec_s)
        tracked += counts["tracked_insns"]
        tainted += counts["tainted_bytes"]
        flags += counts["flags"]
        spans.append((jid, due_at, sent[jid], acked[jid], arrived[jid], exec_s))
    if run.trace:
        _job_spans(run, spans)

    n = max(len(latencies), 1)
    run.meta.update({
        "latency_samples": len(latencies),
        "latency_tail_percentile": SERVE_TAIL_PERCENTILE,
        "generator_lag_ms_max": max(lags, default=0.0),
    })
    layers = {}
    if run.trace:
        layers.update({
            "serve.startup_s": run.setup_s,
            "serve.ack_ms_p50": median(ack_ms),
            "serve.ack_ms_p90": percentile(ack_ms, 90),
            "serve.queue_ms_p50": median(queue_ms),
            "serve.queue_ms_p90": percentile(queue_ms, 90),
            "serve.exec_ms_p50": median(exec_ms),
            "serve.warm_share": warm_ok / warm_rows if warm_rows else 0.0,
            "serve.journal_bytes_per_job": journal_bytes / n,
            "serve.generator_lag_ms": max(lags, default=0.0),
            "taint.tracked_insns": tracked / n,
            "faros.flags": flags / n,
            "faros.tainted_bytes": tainted / n,
        })
    return {
        # The service's capacity: rows per second of worker execution
        # time spread over the workers.  Delivered rows per second would
        # only repeat the offered rate until the service saturates.
        "jobs_per_s": (len(exec_ms) * workers / (sum(exec_ms) / 1e3)
                       if exec_ms else 0.0),
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": percentile(latencies, SERVE_TAIL_PERCENTILE),
        "children_peak_kb": service_peak_kb,
        "layers": layers,
    }

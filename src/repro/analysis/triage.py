"""Parallel batch-triage engine with fault isolation.

The paper's evaluation (§VI, Tables II-V) analyses 100+ samples one at
a time; at production scale a triage fleet must run many analyses
concurrently and survive individual samples wedging or crashing.  This
module provides that layer:

* a **work unit** is a :class:`TriageJob` -- a picklable descriptor
  (kind + builder kwargs, never live machines/scenarios) that a worker
  resolves against :data:`JOB_KINDS` and executes via the deterministic
  record/replay substrate;
* :func:`run_triage` shards jobs across the supervised worker pool
  (:mod:`repro.analysis.supervisor`) with a per-sample wall-clock
  **timeout** and **bounded retry** on worker death -- a sample that
  times out, or whose worker dies on every attempt, becomes an
  ``ERROR`` :class:`TriageResult` row while the rest of the batch
  completes;
* every outcome is a serializable :class:`TriageResult` (verdict,
  provenance-chain summary, exit code, timings, tracker stats) so the
  cross-process result channel is plain data, and the aggregator
  returns results in **submission order** -- parallel output is
  byte-identical to serial.

``jobs=1`` short-circuits to an in-process serial loop (no pool is
spawned); because both paths run the same :func:`execute_job` code on
the same job descriptors, verdicts and rendered tables cannot drift
between them.  See ``docs/triage_engine.md``.
"""

from __future__ import annotations

import importlib
import operator
import os
import signal
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.attacks import (
    build_bypassuac_injection_scenario,
    build_code_injection_scenario,
    build_process_hollowing_scenario,
    build_reflective_dll_scenario,
    build_reverse_tcp_dns_scenario,
)
from repro.baselines import CuckooSandbox
from repro.emulator.record_replay import record, replay
from repro.faults.errors import EmulatorFault, FaultRecord
from repro.faults.plan import FaultPlan
from repro.faros import Faros
from repro.faros.report import ProvenanceChain, ReportSummary
from repro.obs.session import ObsSession
from repro.workloads.corpus import SampleSpec
from repro.workloads.jit import build_jit_scenario

STATUS_OK = "OK"
STATUS_ERROR = "ERROR"
#: The sample ran, but a fault cut it short or perturbed it: the report
#: covers a prefix of execution.  Deterministic guest faults land here
#: (not ERROR) and are never retried -- re-running replays the same
#: fault.
STATUS_DEGRADED = "DEGRADED"

#: Retry budget: a job may be re-dispatched this many times after a
#: worker crash before it is written off as an ``ERROR`` row (so the
#: default of 1 means "crashes twice -> ERROR").
DEFAULT_MAX_RETRIES = 1

#: Seconds in-flight jobs get to finish once SIGINT/SIGTERM stops a
#: batch; whatever is still running then is killed and reported.
DRAIN_TIMEOUT = 5.0


# ----------------------------------------------------------------------
# job descriptors and results (the cross-process wire format)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TriageJob:
    """One picklable work unit: a builder name + kwargs, no live objects."""

    job_id: int
    name: str
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class JobOutcome:
    """What a job-kind runner returns from inside the worker."""

    verdict: bool
    exit_code: Optional[int] = None
    report: Optional[dict] = None
    instructions: int = 0
    tainted_bytes: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Observability snapshot (``ObsSession.snapshot``) when the job ran
    #: with ``metrics=True``; plain data, so it survives the pipe.
    metrics: Optional[dict] = None
    #: Serialized :class:`~repro.faults.errors.FaultRecord` when the run
    #: was faulted (degraded), else None.
    fault: Optional[dict] = None


@dataclass
class TriageResult:
    """Serializable outcome of one job (OK or ERROR, never an exception)."""

    job_id: int
    name: str
    kind: str
    status: str
    verdict: bool
    error: Optional[str] = None
    exit_code: Optional[int] = None
    duration_s: float = 0.0
    attempts: int = 1
    worker_pid: int = 0
    instructions: int = 0
    tainted_bytes: int = 0
    report: Optional[dict] = None
    extra: Dict[str, Any] = field(default_factory=dict)
    metrics: Optional[dict] = None
    #: Serialized fault record for DEGRADED rows (and for ERROR rows
    #: produced by timeouts/crashes, where it carries the watchdog's
    #: last-known guest state), else None.
    fault: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def degraded(self) -> bool:
        return self.status == STATUS_DEGRADED

    def chains(self) -> List[ProvenanceChain]:
        """Provenance chains reconstructed from the serialized report."""
        if not self.report:
            return []
        return ReportSummary.from_json_dict(self.report).chains

    def to_json_dict(self) -> dict:
        """JSON-shaped result row; inverse of :meth:`from_json_dict`."""
        return {
            "job_id": self.job_id,
            "name": self.name,
            "kind": self.kind,
            "status": self.status,
            "verdict": self.verdict,
            "error": self.error,
            "exit_code": self.exit_code,
            "duration_s": self.duration_s,
            "attempts": self.attempts,
            "worker_pid": self.worker_pid,
            "instructions": self.instructions,
            "tainted_bytes": self.tainted_bytes,
            "report": self.report,
            "extra": dict(self.extra),
            "metrics": self.metrics,
            "fault": self.fault,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TriageResult":
        return cls(
            **{k: d[k] for k in (
                "job_id", "name", "kind", "status", "verdict", "error",
                "exit_code", "duration_s", "attempts", "worker_pid",
                "instructions", "tainted_bytes", "report", "extra",
            )},
            metrics=d.get("metrics"),  # absent in pre-observability dicts
            fault=d.get("fault"),      # absent in pre-fault-taxonomy dicts
        )


# ----------------------------------------------------------------------
# job kinds (resolved by name inside the worker)
# ----------------------------------------------------------------------

JOB_KINDS: Dict[str, Callable[..., JobOutcome]] = {}


def job_kind(name: str):
    """Register a runner under *name* so job descriptors can refer to it."""

    def deco(fn):
        JOB_KINDS[name] = fn
        return fn

    return deco


#: Attack-scenario builders by name (the §VI attack roster).  Every
#: builder accepts ``transient=`` so the comparison matrix can reuse it.
ATTACK_BUILDER_REGISTRY: Dict[str, Callable[..., Any]] = {
    "reflective_dll_inject": build_reflective_dll_scenario,
    "reverse_tcp_dns": build_reverse_tcp_dns_scenario,
    "bypassuac_injection": build_bypassuac_injection_scenario,
    "process_hollowing": build_process_hollowing_scenario,
    "code_injection": build_code_injection_scenario,
    "darkcomet_injection": partial(build_code_injection_scenario, rat="darkcomet"),
    "njrat_injection": partial(build_code_injection_scenario, rat="njrat"),
}


def _faros_outcome(faros: Faros, exit_code: Optional[int] = None,
                   extra: Optional[Dict[str, Any]] = None,
                   include_report: bool = True,
                   session: Optional[ObsSession] = None) -> JobOutcome:
    with session.span("report") if session is not None else nullcontext():
        report = faros.report()
        report_dict = report.to_json_dict() if include_report else None
    # One snapshot per job, taken after the report span closes, injected
    # into both the report export and the outcome: ``repro stats`` and
    # the triage JSON channel must show the *same* numbers.
    snap = None
    if session is not None and session.enabled:
        snap = session.snapshot()
        if report_dict is not None:
            report_dict["metrics"] = snap
    return JobOutcome(
        verdict=faros.attack_detected,
        exit_code=exit_code,
        report=report_dict,
        instructions=faros.tracker.stats.instructions,
        tainted_bytes=faros.tracker.shadow.tainted_bytes,
        extra=extra or {},
        metrics=snap,
        fault=(
            faros.fault_record.to_json_dict()
            if faros.fault_record is not None
            else None
        ),
    )


@job_kind("attack")
def _run_attack_job(attack: str, transient: bool = False,
                    metrics: bool = False, top_blocks: int = 10,
                    execution: Optional[str] = None) -> JobOutcome:
    """Record/replay one attack scenario with FAROS attached (§V-C).

    ``execution="warm"`` serves the job through the per-process
    :class:`~repro.serve.pool.SnapshotPool` -- fork-from-snapshot
    instead of a cold boot, bit-identical by the snapshot differential
    harness, degrading back to this cold path (with a ``DegradedPool``
    fault record) when the pool cannot serve.
    """
    session = ObsSession.create(enabled=metrics, top_blocks=top_blocks)
    if execution == "warm":
        # Imported lazily: repro.serve imports triage at module level,
        # so this edge of the cycle must resolve at call time.
        from repro.serve.pool import warm_attack_outcome

        return warm_attack_outcome(attack, transient=transient,
                                   session=session)
    with session.span("boot"):
        builder = ATTACK_BUILDER_REGISTRY[attack]
        scenario = builder(transient=True) if transient else builder()
    with session.span("attack"):
        recording = record(scenario.scenario)
    faros = Faros(metrics=session.registry)
    with session.span("detection"):
        replay(recording, plugins=session.plugins_for(faros),
               metrics=session.registry)
    return _faros_outcome(faros, session=session)


@job_kind("jit")
def _run_jit_job(name: str, workload: str, metrics: bool = False) -> JobOutcome:
    """One Table III JIT workload (Java applet or AJAX site)."""
    session = ObsSession.create(enabled=metrics)
    with session.span("boot"):
        sample = build_jit_scenario(name, workload)
    faros = Faros(metrics=session.registry)
    with session.span("detection"):
        sample.scenario.run(plugins=session.plugins_for(faros),
                            metrics=session.registry)
    return _faros_outcome(
        faros,
        include_report=faros.attack_detected,
        extra={"workload": workload,
               "expected_flag": sample.uses_native_binding},
        session=session,
    )


@job_kind("corpus")
def _run_corpus_job(metrics: bool = False, **params) -> JobOutcome:
    """One Table IV corpus sample, rebuilt from its picklable spec."""
    session = ObsSession.create(enabled=metrics)
    with session.span("boot"):
        spec = SampleSpec.from_params(**params)
    faros = Faros(metrics=session.registry)
    with session.span("detection"):
        machine = spec.scenario().run(plugins=session.plugins_for(faros),
                                      metrics=session.registry)
    proc = next(iter(machine.kernel.processes.values()))
    return _faros_outcome(
        faros,
        exit_code=proc.exit_code,
        include_report=faros.attack_detected,
        extra={"family": spec.family, "benign": spec.benign},
        session=session,
    )


@job_kind("comparison")
def _run_comparison_job(attack: str, transient: bool = False,
                        metrics: bool = False) -> JobOutcome:
    """One §VI-B row: the same attack under FAROS, Cuckoo, and malfind."""
    session = ObsSession.create(enabled=metrics)
    with session.span("boot"):
        builder = ATTACK_BUILDER_REGISTRY[attack]
        attack_obj = builder(transient=transient)
    faros = Faros(metrics=session.registry)
    with session.span("detection"):
        attack_obj.scenario.run(plugins=session.plugins_for(faros),
                                metrics=session.registry)
    chains = faros.report().chains()
    chain = chains[0] if chains else None

    with session.span("baselines"):
        cuckoo_report = CuckooSandbox().analyze(attack_obj.scenario)
        malfind_detected, _hits = cuckoo_report.detect_injection_with_malfind()
    return _faros_outcome(
        faros,
        extra={
            "transient": transient,
            "has_netflow": bool(chain and chain.netflow),
            "has_provenance": bool(chain and chain.process_chain),
            "cuckoo_detects": cuckoo_report.detect_injection(),
            "malfind_detects": malfind_detected,
        },
        session=session,
    )


@job_kind("chaos")
def _run_chaos_job(attack: str, plan: dict, fault_name: str = "",
                   metrics: bool = False,
                   harness: Optional[str] = None) -> JobOutcome:
    """One chaos-matrix cell: record *attack* under an injected
    :class:`~repro.faults.plan.FaultPlan`, then replay with FAROS.

    The plan travels as its ``to_json_dict`` form so the descriptor
    stays picklable plain data like every other job kind.  Host-layer
    columns name a *harness* instead of carrying plan rules: those
    cells inject the fault around the sample (killing the worker,
    corrupting the snapshot) rather than inside the guest.
    """
    if harness is not None:
        # Imported lazily (serve imports triage at module level).
        from repro.serve.harness import run_harness

        outcome = run_harness(harness, attack)
        outcome.extra.setdefault("attack", attack)
        outcome.extra.setdefault("fault_name", fault_name)
        return outcome
    session = ObsSession.create(enabled=metrics)
    fault_plan = FaultPlan.from_json_dict(plan)
    extra = {"attack": attack, "fault_name": fault_name,
             "rules": [r.describe() for r in fault_plan.rules]}
    try:
        with session.span("boot"):
            scenario = fault_plan.apply(ATTACK_BUILDER_REGISTRY[attack]().scenario)
        with session.span("attack"):
            recording = record(scenario)
        faros = Faros(policy=fault_plan.taint_policy(), metrics=session.registry)
        with session.span("detection"):
            replay(recording, plugins=session.plugins_for(faros),
                   metrics=session.registry)
    except EmulatorFault as exc:
        # A fault outside the machine's run-loop backstop (e.g. a taint
        # budget tripping while the guest *boots*, before run() starts).
        # Still deterministic, still degraded -- just no partial report.
        return JobOutcome(
            verdict=False, extra=extra,
            fault=FaultRecord.from_exception(exc).to_json_dict(),
        )
    return _faros_outcome(faros, extra=extra, session=session)


@job_kind("pyfunc")
def _run_pyfunc_job(target: str, kwargs: Optional[dict] = None) -> JobOutcome:
    """Run ``module:qualname`` with *kwargs* -- the extensibility escape
    hatch (and the fault-injection hook the test suite uses)."""
    modname, _, qualname = target.partition(":")
    fn = operator.attrgetter(qualname)(importlib.import_module(modname))
    value = fn(**(kwargs or {}))
    if isinstance(value, JobOutcome):
        return value
    return JobOutcome(verdict=bool(value))


# ----------------------------------------------------------------------
# job execution (shared by the serial path and the workers)
# ----------------------------------------------------------------------

def _error_result(job: TriageJob, attempts: int, reason: str,
                  duration_s: float = 0.0,
                  fault: Optional[dict] = None) -> TriageResult:
    return TriageResult(
        job_id=job.job_id, name=job.name, kind=job.kind,
        status=STATUS_ERROR, verdict=False, error=reason,
        duration_s=duration_s, attempts=attempts, worker_pid=os.getpid(),
        fault=fault,
    )


def execute_job(job: TriageJob, attempt: int = 1) -> TriageResult:
    """Run one job to a :class:`TriageResult`; exceptions become ERROR
    rows and emulator faults DEGRADED rows (graceful degradation),
    never propagate."""
    start = time.perf_counter()
    try:
        runner = JOB_KINDS[job.kind]
    except KeyError:
        return _error_result(job, attempt, f"unknown job kind {job.kind!r}")
    try:
        outcome = runner(**job.params)
    except EmulatorFault as exc:
        # A guest/emulation fault that escaped the machine's backstop
        # (e.g. raised during scenario construction).  Deterministic:
        # the row is DEGRADED, not ERROR, and is never retried.
        fault = FaultRecord.from_exception(exc)
        return TriageResult(
            job_id=job.job_id, name=job.name, kind=job.kind,
            status=STATUS_DEGRADED, verdict=False,
            error=f"{type(exc).__name__}: {exc}",
            duration_s=time.perf_counter() - start,
            attempts=attempt, worker_pid=os.getpid(),
            fault=fault.to_json_dict(),
        )
    except Exception as exc:  # fault isolation: one bad sample != a dead run
        return _error_result(
            job, attempt, f"{type(exc).__name__}: {exc}",
            duration_s=time.perf_counter() - start,
        )
    # A runner that completed but observed a machine fault produces a
    # DEGRADED row: the report is real but covers a prefix of execution.
    status = STATUS_DEGRADED if outcome.fault is not None else STATUS_OK
    return TriageResult(
        job_id=job.job_id, name=job.name, kind=job.kind,
        status=status, verdict=outcome.verdict,
        exit_code=outcome.exit_code,
        duration_s=time.perf_counter() - start,
        attempts=attempt, worker_pid=os.getpid(),
        instructions=outcome.instructions,
        tainted_bytes=outcome.tainted_bytes,
        report=outcome.report, extra=outcome.extra,
        metrics=outcome.metrics,
        fault=outcome.fault,
    )


# ----------------------------------------------------------------------
# the batch driver
# ----------------------------------------------------------------------

def run_triage(
    jobs_list: Sequence[TriageJob],
    jobs: int = 1,
    timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> List[TriageResult]:
    """Execute *jobs_list*, returning one result per job in submission
    order.

    ``jobs=1`` runs everything in-process (no pool, no timeout
    enforcement -- there is no worker to kill).  ``jobs>1`` runs the
    batch on a :class:`~repro.analysis.supervisor.WorkerPool` of that
    many workers; *timeout* bounds each sample's wall clock and
    *max_retries* bounds re-dispatch after a worker death, under the
    pool's :func:`~repro.analysis.supervisor.settle_death` rule.

    On SIGINT/SIGTERM the batch stops dispatching, gives in-flight jobs
    :data:`DRAIN_TIMEOUT` seconds to finish, and converts whatever
    remains (killed in-flight jobs, never-dispatched pending jobs) into
    ERROR rows with ``Shutdown`` fault records carrying each worker's
    last published guest state -- the batch still comes back complete
    and in submission order.
    """
    if jobs <= 1:
        return [execute_job(job) for job in jobs_list]
    # Imported here: the supervisor imports this module at load time.
    from repro.analysis.supervisor import WorkerPool, settle_death

    pending = deque((job, 1) for job in jobs_list)
    results: Dict[int, TriageResult] = {}
    pool = WorkerPool(size=min(jobs, len(jobs_list)), timeout=timeout)

    # Graceful shutdown: SIGINT/SIGTERM stops dispatching and switches
    # to a bounded drain instead of tearing the pool down mid-flight.
    # Handlers only install on the main thread (signal rules); elsewhere
    # the flag never sets.
    interrupted = threading.Event()
    previous_handlers = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(
                signum, lambda *_args: interrupted.set()
            )
    except ValueError:  # pragma: no cover - not on the main thread
        pass

    drain_deadline: Optional[float] = None
    try:
        while pool.busy_count() or (pending and drain_deadline is None):
            if interrupted.is_set() and drain_deadline is None:
                drain_deadline = time.monotonic() + DRAIN_TIMEOUT
            if drain_deadline is None:
                while pending and pool.submit(*pending[0]):
                    pending.popleft()
            elif time.monotonic() >= drain_deadline:
                break
            for event in pool.poll():
                if event.kind == "result":
                    results[event.job.job_id] = event.result
                    continue
                row = settle_death(event, max_retries)
                if row is None:
                    pending.appendleft((event.job, event.attempt + 1))
                else:
                    results[event.job.job_id] = row
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        killed = pool.shutdown()
    for event in killed:
        results[event.job.job_id] = _error_result(
            event.job, event.attempt,
            f"interrupted: shutdown drain deadline ({DRAIN_TIMEOUT:g}s) "
            "expired with the job in flight",
            fault=event.fault.to_json_dict(),
        )
    for job, attempt in pending:
        results[job.job_id] = _error_result(
            job, attempt, "interrupted: job was never dispatched",
            fault=FaultRecord(
                kind="Shutdown", detail="pending at shutdown",
            ).to_json_dict(),
        )
    return [results[job.job_id] for job in jobs_list]


# ----------------------------------------------------------------------
# batch builders (the experiment runners' job lists)
# ----------------------------------------------------------------------

def _with_metrics(params: Dict[str, Any], metrics: bool) -> Dict[str, Any]:
    """Only set the key when telemetry is on, so descriptors for plain
    runs stay byte-identical to the pre-observability wire format."""
    if metrics:
        params["metrics"] = True
    return params


def attack_jobs(names: Sequence[str], metrics: bool = False) -> List[TriageJob]:
    return [
        TriageJob(job_id=i, name=name, kind="attack",
                  params=_with_metrics({"attack": name}, metrics))
        for i, name in enumerate(names)
    ]


def jit_jobs(workloads: Sequence[Tuple[str, str]],
             metrics: bool = False) -> List[TriageJob]:
    return [
        TriageJob(job_id=i, name=name, kind="jit",
                  params=_with_metrics(
                      {"name": name, "workload": workload}, metrics))
        for i, (name, workload) in enumerate(workloads)
    ]


def corpus_jobs(samples: Sequence[SampleSpec],
                metrics: bool = False) -> List[TriageJob]:
    return [
        TriageJob(job_id=i, name=spec.name, kind="corpus",
                  params=_with_metrics(spec.job_params(), metrics))
        for i, spec in enumerate(samples)
    ]


def comparison_jobs(cases: Sequence[Tuple[str, bool]],
                    metrics: bool = False) -> List[TriageJob]:
    return [
        TriageJob(job_id=i, name=attack, kind="comparison",
                  params=_with_metrics(
                      {"attack": attack, "transient": transient}, metrics))
        for i, (attack, transient) in enumerate(cases)
    ]

"""Triage as a service: warm snapshot pool and a journaled job queue
behind ``repro serve``, running on the supervised worker pool of
:mod:`repro.analysis.supervisor` (the same pool batch triage uses, so
heartbeats, watchdogs, restart backoff and the retry rule live there).

The layering, bottom-up:

* :mod:`repro.serve.journal` -- the crash-safe NDJSON job journal
  (accept before execute, checkpoint on completion, exactly-once
  resume).
* :mod:`repro.serve.pool` -- the warm :class:`SnapshotPool` of
  pre-forked guests, degrading to cold boots under a ``DegradedPool``
  fault record.
* :mod:`repro.serve.service` -- the async socket service: priority
  lanes, per-tenant quotas, backpressure, streaming NDJSON results,
  health/metrics.

See ``docs/triage_service.md`` for the full architecture.
"""

from repro.serve.journal import JobJournal, JournalState
from repro.serve.pool import SnapshotPool, warm_attack_outcome
from repro.serve.service import ServeClient, ServeConfig, TriageService, run_smoke

__all__ = [
    "JobJournal",
    "JournalState",
    "SnapshotPool",
    "warm_attack_outcome",
    "ServeClient",
    "ServeConfig",
    "TriageService",
    "run_smoke",
]

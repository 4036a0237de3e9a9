"""Per-job observability through the triage engine's worker channel.

The acceptance bar: a ``--metrics`` triage run must carry each job's
snapshot through the (pickle/JSON) worker channel intact, and the
numbers in the job's report export must be the same object's numbers --
``repro stats`` and the triage JSON export may never disagree.
"""

import json

import pytest

from repro.analysis.triage import (
    ATTACK_BUILDER_REGISTRY,
    STATUS_OK,
    TriageJob,
    TriageResult,
    attack_jobs,
    corpus_jobs,
    execute_job,
    run_triage,
)
from repro.emulator.record_replay import record, replay
from repro.faros import Faros
from repro.obs.metrics import MetricsRegistry
from repro.obs.session import ObsSession
from repro.obs.spans import Tracer
from repro.serve.pool import warm_attack_outcome
from repro.workloads.corpus import corpus_samples

#: Snapshot keys that are deterministic functions of the guest execution
#: (wall-clock spans and absolute interner cache sizes are not -- the
#: process-wide interner may be pre-warmed by earlier in-process runs).
_DETERMINISTIC_GAUGES = (
    "taint.instructions",
    "taint.fast_retirements",
    "taint.slow_retirements",
    "taint.interner.hits",
    "taint.interner.misses",
    "taint.shadow.tainted_bytes",
    "taint.shadow.dirty_pages",
    "machine.instructions",
)


class TestMetricsThroughWorkers:
    def test_snapshot_survives_the_worker_round_trip(self):
        [result] = run_triage(
            attack_jobs(["code_injection"], metrics=True), jobs=2
        )
        assert result.status == STATUS_OK and result.verdict is True
        snap = result.metrics
        assert set(snap) >= {"counters", "gauges", "histograms",
                             "spans", "hot_blocks"}
        assert snap["counters"]["faros.detector.flags"] > 0
        assert snap["gauges"]["taint.slow_retirements"] > 0
        assert [s["name"] for s in snap["spans"]] == [
            "boot", "attack", "detection", "report",
        ]
        assert snap["hot_blocks"]["top"]

    def test_report_and_outcome_carry_the_same_numbers(self):
        [result] = run_triage(
            attack_jobs(["code_injection"], metrics=True), jobs=2
        )
        assert result.report["metrics"] == result.metrics

    def test_worker_numbers_match_in_process_numbers(self):
        jobs = attack_jobs(["code_injection"], metrics=True)
        [in_process] = run_triage(jobs, jobs=1)
        [via_worker] = run_triage(jobs, jobs=2)
        for name in _DETERMINISTIC_GAUGES:
            assert in_process.metrics["gauges"][name] == \
                via_worker.metrics["gauges"][name], name
        assert in_process.metrics["counters"] == via_worker.metrics["counters"]
        assert in_process.metrics["hot_blocks"]["top"] == \
            via_worker.metrics["hot_blocks"]["top"]

    def test_metrics_round_trip_through_json(self):
        [job] = attack_jobs(["code_injection"], metrics=True)
        result = execute_job(job)
        clone = TriageResult.from_json_dict(
            json.loads(json.dumps(result.to_json_dict()))
        )
        assert clone == result
        assert clone.metrics == result.metrics


class TestMetricsStayOptIn:
    def test_plain_jobs_carry_no_snapshot(self):
        [result] = run_triage(attack_jobs(["code_injection"]), jobs=1)
        assert result.metrics is None
        assert result.report["metrics"] is None

    def test_plain_job_params_are_unchanged(self):
        # metrics=False must not even add the key, so pre-observability
        # job descriptors stay byte-identical on the wire.
        [job] = attack_jobs(["code_injection"])
        assert "metrics" not in job.params


def _attack_job(attack, execution, metrics):
    params = {"attack": attack}
    if execution is not None:
        params["execution"] = execution
    if metrics:
        params["metrics"] = True
    return TriageJob(job_id=0, name=attack, kind="attack", params=params)


def _unobserved_gauges(attack, execution):
    """The deterministic gauges of *attack* run with the plugins of a
    metrics-off job (FAROS alone, no profiler) and a live registry."""
    session = ObsSession(MetricsRegistry(enabled=True), Tracer(enabled=True), None)
    if execution == "warm":
        warm_attack_outcome(attack, session=session)
    else:
        faros = Faros(metrics=session.registry)
        replay(record(ATTACK_BUILDER_REGISTRY[attack]().scenario),
               plugins=session.plugins_for(faros), metrics=session.registry)
    gauges = session.snapshot()["gauges"]
    return {name: gauges[name] for name in _DETERMINISTIC_GAUGES}


def _without_metrics(report):
    return {key: value for key, value in report.items() if key != "metrics"}


class TestObservedRunsExecuteTheShippedTier:
    def test_attack_job_runs_on_the_taint_tier(self):
        [job] = attack_jobs(["process_hollowing"], metrics=True)
        gauges = execute_job(job).metrics["gauges"]
        assert gauges["translate.taint_executions"] > 0
        assert gauges["translate.taint_single_steps"] == 0

    def test_corpus_job_runs_on_the_taint_tier(self):
        [job] = corpus_jobs(corpus_samples()[:1], metrics=True)
        gauges = execute_job(job).metrics["gauges"]
        assert gauges["translate.taint_executions"] > 0
        assert gauges["translate.taint_single_steps"] == 0

    @pytest.mark.parametrize("execution", [None, "warm"], ids=["cold", "warm"])
    def test_metrics_on_and_off_agree(self, execution):
        # The interner's counters depend on what the process interned
        # before; the metrics-off job runs first, so both runs whose
        # gauges are compared see the same interner.
        for attack in sorted(ATTACK_BUILDER_REGISTRY):
            off = execute_job(_attack_job(attack, execution, metrics=False))
            on = execute_job(_attack_job(attack, execution, metrics=True))
            assert on.status == off.status == STATUS_OK, attack
            assert on.verdict == off.verdict, attack
            assert _without_metrics(on.report) == _without_metrics(off.report), attack
            gauges = {name: on.metrics["gauges"][name] for name in _DETERMINISTIC_GAUGES}
            assert gauges == _unobserved_gauges(attack, execution), attack

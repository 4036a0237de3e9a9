"""Graceful degradation end to end: machine backstop -> degraded FAROS
report -> triage classification -> timeout diagnostics."""

import dataclasses

import pytest

from repro.analysis.chaos import FAULT_SPECS, smoke_violations
from repro.analysis.triage import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    TriageJob,
    TriageResult,
    execute_job,
    run_triage,
)
from repro.emulator.machine import Machine, MachineConfig, MachineResult, RunStats
from repro.emulator.plugins import Plugin
from repro.emulator.record_replay import (
    Recording,
    ReplayDivergence,
    Scenario,
    record,
    replay,
)
from repro.faros import Faros
from repro.faults.errors import (
    CLASS_DEGRADED,
    CLASS_RETRYABLE,
    FaultRecord,
    TaintBudgetExceeded,
)
from repro.faults.plan import InjectedMachineFault
from repro.isa.cpu import AccessKind
from repro.taint import shadow as shadow_module
from repro.taint.intern import ProvInterner
from repro.taint.policy import TaintPolicy
from repro.taint.tags import Tag, TagType
from repro.taint.tracker import TaintTracker

from tests.conftest import register_asm, spawn_asm

SPIN = """
start:
    movi r7, 0
loop:
    addi r7, r7, 1
    jmp loop
"""


def _spin_scenario(max_instructions=5_000, events=()):
    def setup(machine):
        register_asm(machine, "spin.exe", SPIN)
        machine.kernel.spawn("spin.exe")

    return Scenario(
        name="spin", setup=setup, events=tuple(events),
        max_instructions=max_instructions,
    )


class _FaultWitness(Plugin):
    """Records every on_machine_fault dispatch it sees."""

    name = "fault-witness"

    def __init__(self):
        super().__init__()
        self.records = []

    def on_machine_fault(self, machine, record):
        self.records.append(record)


class TestMachineBackstop:
    def test_result_alias_is_run_stats(self):
        # The degradation contract speaks of MachineResult; it is the
        # same object RunStats always was.
        assert MachineResult is RunStats

    def test_injected_fault_degrades_the_run(self, machine):
        spawn_asm(machine, "spin.exe", SPIN)
        machine.schedule(1_000, InjectedMachineFault("DeviceFault", "chaos"))
        stats = machine.run(max_instructions=50_000)
        assert stats.stop_reason == "fault"
        assert stats.fault.kind == "DeviceFault"
        assert stats.fault.injected is True
        assert stats.fault.classification == CLASS_DEGRADED
        assert machine.fault is stats.fault
        assert stats.fault in machine.fault_records

    def test_fault_hook_fires_for_terminal_faults(self, machine):
        witness = machine.plugins.register(_FaultWitness())
        spawn_asm(machine, "spin.exe", SPIN)
        machine.schedule(500, InjectedMachineFault("InjectedFault", "boom"))
        machine.run(max_instructions=10_000)
        assert [r.kind for r in witness.records] == ["InjectedFault"]
        assert witness.records[0] is machine.fault

    def test_clean_run_records_no_fault(self, machine):
        spawn_asm(machine, "spin.exe", SPIN)
        stats = machine.run(max_instructions=2_000)
        assert stats.fault is None and machine.fault is None


class TestDegradedReport:
    def _faulted_faros_run(self):
        scenario = _spin_scenario(
            max_instructions=10_000,
            events=[(1_000, InjectedMachineFault("DeviceFault", "mid-run chaos"))],
        )
        faros = Faros()
        machine = scenario.run(plugins=[faros])
        return faros, machine

    def test_report_carries_the_fault(self):
        faros, machine = self._faulted_faros_run()
        assert faros.fault_record is machine.fault
        report = faros.report()
        assert report.degraded is True
        assert report.fault["kind"] == "DeviceFault"
        assert report.fault["classification"] == CLASS_DEGRADED
        d = report.to_json_dict()
        assert d["degraded"] is True and d["fault"]["injected"] is True

    def test_degraded_banner_leads_the_rendering(self):
        faros, _ = self._faulted_faros_run()
        text = faros.report().render()
        header, banner = text.splitlines()[:2]
        assert header == "=== FAROS analysis report ==="
        assert banner.startswith("DEGRADED RUN: DeviceFault: ")
        assert "completed prefix" in banner

    def test_fault_lands_on_the_timeline(self):
        faros, _ = self._faulted_faros_run()
        assert any(
            ev.kind == "fault" and "DeviceFault" in ev.description
            for ev in faros.timeline
        )

    def test_clean_run_is_not_degraded(self):
        faros = Faros()
        _spin_scenario().run(plugins=[faros])
        report = faros.report()
        assert report.degraded is False
        assert report.to_json_dict()["fault"] is None


#: Stores the union of two differently tainted words: with the code
#: table capped at two lists, the store needs a third.
MIX = """
start:
    movi r6, in_a
    ld r1, [r6]
    movi r6, in_b
    ld r2, [r6]
    add r3, r1, r2
    movi r6, out
    st [r6], r3
    movi r7, 0
loop:
    addi r7, r7, 1
    jmp loop
in_a: .word 1
in_b: .word 2
out: .word 0
"""


class TestProvenanceCodeLimit:
    """A shadow that needs more distinct provenance lists than its code
    table holds ends the run in a classified fault, never a host
    exception."""

    def test_code_overflow_degrades_the_run(self, machine, monkeypatch):
        monkeypatch.setattr(shadow_module, "MAX_PROV_CODES", 2)
        tracker = machine.plugins.register(
            TaintTracker(
                policy=TaintPolicy(process_tags_on_access=False),
                interner=ProvInterner(),
            )
        )
        prog = register_asm(machine, "mix.exe", MIX)
        proc = machine.kernel.spawn("mix.exe")
        for label, tag in (("in_a", Tag(TagType.NETFLOW, 0)), ("in_b", Tag(TagType.FILE, 0))):
            paddrs = proc.aspace.translate_range(prog.label(label), 4, AccessKind.READ)
            tracker.taint_range(paddrs, tag)
        stats = machine.run(max_instructions=10_000)
        assert stats.stop_reason == "fault"
        assert stats.fault.kind == "TaintBudgetExceeded"
        assert stats.fault.classification == CLASS_DEGRADED
        assert "provenance codes" in stats.fault.detail
        assert tracker.shadow.tainted_bytes == 8  # the store wrote no taint

    def test_code_overflow_degrades_an_attack_row(self, monkeypatch):
        monkeypatch.setattr(shadow_module, "MAX_PROV_CODES", 4)
        job = TriageJob(job_id=0, name="code_injection", kind="attack",
                        params={"attack": "code_injection"})
        result = execute_job(job)
        assert result.status == STATUS_DEGRADED
        assert result.fault["kind"] == "TaintBudgetExceeded"
        assert result.fault["classification"] == CLASS_DEGRADED


class TestTriageClassification:
    def _chaos_job(self, attack, fault_name):
        spec = FAULT_SPECS[fault_name]
        return TriageJob(
            job_id=0, name=f"{attack}+{fault_name}", kind="chaos",
            params={"attack": attack, "plan": spec.plan.to_json_dict(),
                    "fault_name": fault_name},
        )

    def test_deterministic_fault_degrades_the_row(self):
        result = execute_job(self._chaos_job("reflective_dll_inject", "syscall-fault"))
        assert result.status == STATUS_DEGRADED
        assert result.degraded is True
        assert result.fault["kind"] == "DeviceFault"
        assert result.fault["injected"] is True
        assert result.fault["classification"] == CLASS_DEGRADED
        assert result.error is None  # degraded, not errored

    def test_result_round_trips_with_fault(self):
        result = execute_job(self._chaos_job("reflective_dll_inject", "syscall-fault"))
        back = TriageResult.from_json_dict(result.to_json_dict())
        assert back.status == STATUS_DEGRADED
        assert back.fault == result.fault

    def test_boot_time_fault_still_degrades(self):
        # Taint budgets trip during scenario build (export-table tags at
        # guest boot), *outside* machine.run's backstop; the chaos job
        # must still convert them instead of erroring.
        result = execute_job(self._chaos_job("reflective_dll_inject", "taint-budget"))
        assert result.status == STATUS_DEGRADED
        assert result.fault["kind"] == "TaintBudgetExceeded"


class TestSmokeViolations:
    def _row(self, status, fault=None, fault_name="syscall-fault", error=None):
        return TriageResult(
            job_id=0, name=f"attack+{fault_name}", kind="chaos", status=status,
            verdict=False, error=error, fault=fault,
            extra={"attack": "attack", "fault_name": fault_name},
        )

    def test_clean_degraded_row_passes(self):
        row = self._row(STATUS_DEGRADED, fault={"kind": "DeviceFault", "detail": "x"})
        assert smoke_violations([row]) == []

    def test_error_row_is_a_violation(self):
        [violation] = smoke_violations([self._row(STATUS_ERROR, error="boom")])
        assert "ERROR" in violation

    def test_degraded_without_record_is_a_violation(self):
        [violation] = smoke_violations([self._row(STATUS_DEGRADED, fault={})])
        assert "without a fault record" in violation

    def test_ok_under_always_firing_spec_is_a_violation(self):
        [violation] = smoke_violations([self._row(STATUS_OK)])
        assert "should fire" in violation

    def test_ok_under_shape_dependent_spec_passes(self):
        # Packet rules cannot fire on keystroke-driven attacks; OK is fine.
        assert smoke_violations([self._row(STATUS_OK, fault_name="packet-corrupt")]) == []


def _pyfunc_job(job_id, target, name=None):
    return TriageJob(
        job_id=job_id, name=name or target, kind="pyfunc",
        params={"target": f"tests.analysis.triage_fault_jobs:{target}", "kwargs": {}},
    )


class TestHostFaultRecords:
    def test_timeout_record_carries_guest_position(self):
        # Satellite contract: when the pool kills a wedged worker, the
        # ERROR row's fault record reports where the *guest* was -- the
        # watchdog's shared-progress channel read after the SIGKILL.
        jobs = [_pyfunc_job(0, "spinning_machine_job")]
        [result] = run_triage(jobs, jobs=2, timeout=2.0)
        assert result.status == STATUS_ERROR
        assert result.fault["kind"] == "Timeout"
        assert result.fault["classification"] == CLASS_RETRYABLE
        assert result.fault["tick"] > 0
        assert result.fault["pc"] is not None
        record = FaultRecord.from_json_dict(result.fault)
        assert record.retryable is True

    def test_worker_crash_record_is_retryable(self):
        jobs = [_pyfunc_job(0, "selfkill_job")]
        [result] = run_triage(jobs, jobs=2, max_retries=1)
        assert result.status == STATUS_ERROR
        assert result.fault["kind"] == "WorkerCrash"
        assert result.fault["classification"] == CLASS_RETRYABLE
        assert result.attempts == 2  # host-transient kinds are retried

    def test_host_exception_is_not_degraded(self):
        # A genuine harness bug stays an ERROR (host fault), never a
        # deterministic sample degradation.
        jobs = [_pyfunc_job(0, "raising_job")]
        [result] = run_triage(jobs, jobs=1)
        assert result.status == STATUS_ERROR
        assert result.attempts == 1


class _TaintBomb(Plugin):
    """Replay-only fault source: blows the taint budget at a fixed tick."""

    name = "taint-bomb"

    def __init__(self, at):
        super().__init__()
        self.at = at

    def on_syscall_enter(self, machine, thread, number, args):
        if machine.now >= self.at:
            raise TaintBudgetExceeded("tainted bytes", 1_000, 10)


class TestPrefixReplay:
    def _recording(self):
        def setup(machine):
            register_asm(
                machine, "svc.exe",
                "start:\nmovi r1, 10\nmovi r0, SYS_SLEEP\nsyscall\njmp start",
            )
            machine.kernel.spawn("svc.exe")

        return record(Scenario(name="svc", setup=setup, max_instructions=20_000))

    def test_replay_only_fault_verifies_as_prefix(self):
        # Analysis-side budgets exist only when the plugin is attached,
        # so the replay legitimately stops before the recording did; the
        # verifier accepts any faithful *prefix* of the recorded journal.
        recording = self._recording()
        assert recording.stats.fault is None
        machine = replay(recording, plugins=[_TaintBomb(at=5_000)])
        assert machine.fault is not None
        assert machine.fault.kind == "TaintBudgetExceeded"
        assert machine.now < recording.final_instret

    def test_replay_past_a_faulted_recording_diverges(self):
        recording = self._recording()
        truncated = Recording(
            scenario=recording.scenario,
            journal=list(recording.journal),
            final_instret=recording.final_instret // 2,
            stats=dataclasses.replace(
                recording.stats,
                fault=FaultRecord(kind="InjectedFault", detail="claimed early stop"),
            ),
        )
        with pytest.raises(ReplayDivergence, match="past the recording"):
            replay(truncated)

    def test_unfaulted_replay_still_requires_exact_match(self):
        recording = self._recording()
        shortened = Recording(
            scenario=recording.scenario,
            journal=list(recording.journal),
            final_instret=recording.final_instret - 1,
            stats=recording.stats,  # no fault: strict verification
        )
        with pytest.raises(ReplayDivergence, match="retired"):
            replay(shortened)

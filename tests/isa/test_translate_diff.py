"""Differential harness: block-cache execution vs the interpreter.

The translation cache's whole contract is *bit-identity*: with
``MachineConfig.translate`` on or off, a run must retire the same
instruction stream, deliver the same journal, record the same faults,
and produce the same FAROS report.  This file asserts that end-to-end:

* across all seven attack scenarios (record + analysis replay);
* under a watchdog ``instruction_budget`` trip;
* under a journaled :class:`FaultPlan` ``instret`` trigger;
* and (slow-marked) across randomized guest programs, including
  self-modifying ones, at the bare-CPU level against ``cpu.step``.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.triage import ATTACK_BUILDER_REGISTRY
from repro.emulator.machine import MachineConfig
from repro.emulator.record_replay import record, replay
from repro.faros import Faros
from repro.faults.plan import FaultPlan, FaultRule
from repro.isa.cpu import CPU
from repro.isa.errors import GuestFault
from repro.isa.instructions import Instruction, Op, encode
from repro.isa.memory import PAGE_SIZE, PhysicalMemory
from repro.isa.registers import NUM_REGS, Reg
from repro.isa.translate import BlockTranslator
from repro.obs.metrics import MetricsRegistry
from repro.taint.intern import ProvInterner
from repro.taint.tracker import TaintTracker

ATTACKS = sorted(ATTACK_BUILDER_REGISTRY)


def with_translate(scenario, translate: bool):
    """The same scenario, pinned to one execution path."""
    config = scenario.config if scenario.config is not None else MachineConfig()
    config = dataclasses.replace(config, translate=translate)
    return dataclasses.replace(scenario, config=config)


def journal_repr(journal):
    return [(at, repr(event)) for at, event in journal]


def faults_json(machine):
    return [record.to_json_dict() for record in machine.fault_records]


def record_one(scenario, translate: bool):
    return record(with_translate(scenario, translate))


def comparable_metrics(snapshot):
    """A metrics snapshot minus the ``translate.*`` gauges.

    Everything an analysis consumer reads -- taint stats, interner
    counters, detector counters, machine event/fault counters -- must be
    identical across the translate dimension; only the block cache's own
    instrumentation legitimately differs (it does not exist at all with
    translation off)."""
    return {
        kind: {
            name: value
            for name, value in entries.items()
            if not name.startswith("translate.")
        }
        for kind, entries in snapshot.items()
    }


class TestAttackDifferential:
    @pytest.mark.parametrize("attack", ATTACKS)
    def test_full_run_bit_identical(self, attack):
        outcomes = {}
        for translate in (True, False):
            scenario = with_translate(
                ATTACK_BUILDER_REGISTRY[attack]().scenario, translate
            )
            recording = record(scenario)
            metrics = MetricsRegistry()
            # A per-run interner: with the process-wide default, the
            # first leg would warm the memoisation caches and skew the
            # second leg's hit/miss gauges.
            faros = Faros(
                metrics=metrics,
                tracker_cls=lambda policy, tags, **kw: TaintTracker(
                    policy=policy, tags=tags, interner=ProvInterner(), **kw
                ),
            )
            machine = replay(recording, plugins=[faros], metrics=metrics)
            outcomes[translate] = (recording, faros, machine, metrics)
        rec_on, faros_on, machine_on, metrics_on = outcomes[True]
        rec_off, faros_off, machine_off, metrics_off = outcomes[False]

        assert rec_on.final_instret == rec_off.final_instret
        assert journal_repr(rec_on.journal) == journal_repr(rec_off.journal)
        assert rec_on.stats.stop_reason == rec_off.stats.stop_reason
        assert machine_on.now == machine_off.now
        assert faults_json(machine_on) == faults_json(machine_off)
        assert faros_on.attack_detected == faros_off.attack_detected
        assert (
            faros_on.report().to_json_dict() == faros_off.report().to_json_dict()
        )
        # The rendered report (provenance chains included) and the full
        # metrics snapshot must also match -- the taint-on dimension of
        # the differential: the translate-on analysis replay dispatches
        # through the translated-tainted tier, the off side through the
        # instrumented interpreter.
        assert faros_on.report().render() == faros_off.report().render()
        assert comparable_metrics(metrics_on.snapshot()) == comparable_metrics(
            metrics_off.snapshot()
        )
        # The comparison is only meaningful if the block cache actually
        # exists on the translate-on side and is absent on the other.
        # (The analysis replay itself is instrumented from boot: the
        # kernel loads every image through the file-read hook, so FAROS
        # file-tags each process's code before its first instruction.
        # That tainted code runs on the fused tier with its fetch step,
        # not through interpreter steps.)
        assert machine_on.translator is not None
        assert machine_off.translator is None
        tstats = machine_on.translator.stats()
        assert tstats["taint_lookups"] > 0
        assert tstats["taint_single_steps"] == 0


class TestWatchdogExactness:
    @pytest.mark.parametrize("attack", ["reflective_dll_inject", "process_hollowing"])
    def test_instruction_budget_trips_at_identical_tick(self, attack):
        recordings = {}
        for translate in (True, False):
            scenario = with_translate(
                ATTACK_BUILDER_REGISTRY[attack]().scenario, translate
            )
            scenario.config = dataclasses.replace(
                scenario.config, instruction_budget=50_000
            )
            recordings[translate] = record(scenario)
        on, off = recordings[True], recordings[False]
        assert on.stats.stop_reason == "fault" == off.stats.stop_reason
        assert on.stats.fault.kind == "WatchdogExpired"
        assert on.stats.fault.to_json_dict() == off.stats.fault.to_json_dict()
        assert on.final_instret == off.final_instret
        assert journal_repr(on.journal) == journal_repr(off.journal)


class TestFaultPlanExactness:
    @pytest.mark.parametrize("attack", ["code_injection"])
    def test_instret_trigger_fires_at_identical_retirement(self, attack):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    trigger="instret",
                    at=12_345,
                    action="fault",
                    fault_kind="DeviceFault",
                    detail="translate-diff probe",
                ),
            )
        )
        recordings = {
            translate: record_one(
                plan.apply(ATTACK_BUILDER_REGISTRY[attack]().scenario), translate
            )
            for translate in (True, False)
        }
        on, off = recordings[True], recordings[False]
        assert on.stats.stop_reason == "fault" == off.stats.stop_reason
        assert on.stats.fault.to_json_dict() == off.stats.fault.to_json_dict()
        assert on.final_instret == off.final_instret
        assert journal_repr(on.journal) == journal_repr(off.journal)
        # The trigger is a journaled event: it must appear at the same
        # tick in both journals (the exactness rule under test).
        marks_on = [at for at, ev in on.journal if "DeviceFault" in repr(ev)]
        marks_off = [at for at, ev in off.journal if "DeviceFault" in repr(ev)]
        assert marks_on == marks_off != []


# ---------------------------------------------------------------------------
# randomized bare-CPU sweep (slow)
# ---------------------------------------------------------------------------

RAND_MEM = 16 * PAGE_SIZE  # power of two, so masking preserves page offsets
RAND_CAP = 600             # retirement cap per random program


class MaskMMU:
    """Wraps every access into the test memory, page-consistently."""

    def translate(self, vaddr, access):
        return vaddr & (RAND_MEM - 1)


_REG = st.integers(0, NUM_REGS - 1)
_STRAIGHT_OPS = st.sampled_from(
    [
        Op.NOP, Op.MOV, Op.MOVI, Op.LD, Op.ST, Op.LDB, Op.STB, Op.PUSH, Op.POP,
        Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR,
        Op.ADDI, Op.SUBI, Op.MULI, Op.ANDI, Op.ORI, Op.XORI, Op.SHLI, Op.SHRI,
        Op.NOT, Op.CMP, Op.CMPI, Op.SYSCALL,
    ]
)
_TERM_OPS = st.sampled_from(
    [Op.JMP, Op.JZ, Op.JNZ, Op.JLT, Op.JGE, Op.JLE, Op.JGT,
     Op.CALL, Op.CALLR, Op.JMPR, Op.RET]
)
_IMM = st.one_of(
    st.integers(0, RAND_MEM - 8),            # plausible addresses
    st.integers(0, 0xFFFFFFFF),              # arbitrary 32-bit data
    st.builds(lambda k: k * 8, st.integers(0, 60)),  # aligned jump targets
)


def _insn(op, rd, rs1, rs2, imm):
    return Instruction(op, Reg(rd), Reg(rs1), Reg(rs2), imm)


_INSNS = st.one_of(
    st.builds(_insn, _STRAIGHT_OPS, _REG, _REG, _REG, _IMM),
    st.builds(_insn, _TERM_OPS, _REG, _REG, _REG, _IMM),
)


def _fresh_cpu(code: bytes) -> CPU:
    mem = PhysicalMemory(RAND_MEM)
    mem.write_bytes(0, code)
    cpu = CPU(mem, mmu=MaskMMU())
    cpu.regs.write(Reg.SP, RAND_MEM - 16)
    return cpu


def _run_capped(cpu, stepper) -> tuple:
    """Run until HLT, fault, or the retirement cap; summarize the end state."""
    fault = None
    try:
        while not cpu.halted and cpu.instret < RAND_CAP:
            stepper(cpu)
    except GuestFault as exc:
        fault = type(exc).__name__
    return (
        cpu.instret,
        cpu.pc,
        cpu.regs.snapshot(),
        cpu.flag_z,
        cpu.flag_n,
        cpu.halted,
        fault,
        cpu.memory.read_bytes(0, RAND_MEM),
    )


@pytest.mark.slow
class TestRandomizedDifferential:
    @given(insns=st.lists(_INSNS, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_random_programs_match_step(self, insns):
        code = b"".join(encode(i) for i in insns) + encode(Instruction(Op.HLT))
        ref = _fresh_cpu(code)
        ref_end = _run_capped(ref, lambda c: c.step())

        cpu = _fresh_cpu(code)
        translator = BlockTranslator(cpu.memory)
        trans_end = _run_capped(
            cpu, lambda c: translator.run(c, RAND_CAP - c.instret)
        )
        assert trans_end == ref_end

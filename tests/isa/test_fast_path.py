"""Equivalence tests: the uninstrumented fast path vs. full stepping.

The uninstrumented fast path is the basic-block translation cache;
full stepping is the ``cpu.step`` interpreter.  Record/replay
correctness depends on both paths retiring *identical* instruction
streams -- a recording made on the fast path must replay bit-for-bit
under any instrumented path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.machine import Machine, MachineConfig
from repro.isa.cpu import CPU
from repro.isa.errors import InvalidInstruction, PageFault
from repro.isa.memory import PAGE_SIZE, PhysicalMemory
from repro.isa.registers import Reg
from repro.isa.translate import BlockTranslator

from tests.conftest import spawn_asm
from tests.isa.test_cpu import MEM_SIZE, make_cpu

PROGRAMS = [
    "movi r1, 42\nmov r2, r1\nhlt",
    "movi r1, 0x500\nmovi r2, 0xbeef\nst [r1+4], r2\nld r3, [r1+4]\nhlt",
    "movi r1, 0x500\nmovi r2, 0x1ff\nstb [r1], r2\nldb r3, [r1]\nhlt",
    "movi r1, 5\npush r1\npop r2\nhlt",
    "movi r1, 3\nloop: subi r1, r1, 1\ncmpi r1, 0\njnz loop\nhlt",
    "call fn\nhlt\nfn: movi r1, 9\nret",
    "movi r5, fn\ncallr r5\nhlt\nfn: movi r1, 7\nret",
    "movi r1, 0xffffffff\ncmpi r1, 1\njlt neg\nmovi r3, 0\nhlt\nneg: movi r3, 1\nhlt",
    "movi r1, 6\nmovi r2, 7\nmul r3, r1, r2\nnot r4, r3\nxori r5, r4, 0x55\nhlt",
]


def run_translated(cpu, translator=None):
    if translator is None:
        translator = BlockTranslator(cpu.memory)
    while not cpu.halted:
        translator.run(cpu, 100_000)
    return cpu


def run_both(source):
    slow = make_cpu(source)
    while not slow.halted:
        slow.step()
    return slow, run_translated(make_cpu(source))


class TestPathEquivalence:
    @pytest.mark.parametrize("source", PROGRAMS)
    def test_architectural_state_identical(self, source):
        slow, fast = run_both(source)
        assert slow.regs.snapshot() == fast.regs.snapshot()
        assert slow.pc == fast.pc
        assert slow.instret == fast.instret
        assert (slow.flag_z, slow.flag_n) == (fast.flag_z, fast.flag_n)

    @pytest.mark.parametrize("source", PROGRAMS)
    def test_memory_identical(self, source):
        slow, fast = run_both(source)
        assert slow.memory.read_bytes(0, MEM_SIZE) == fast.memory.read_bytes(0, MEM_SIZE)

    @given(
        a=st.integers(0, 0xFFFFFFFF),
        b=st.integers(0, 0xFFFFFFFF),
        op=st.sampled_from(["add", "sub", "mul", "and", "or", "xor", "shl", "shr"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_alu_property_equivalence(self, a, b, op):
        source = f"movi r1, {a}\nmovi r2, {b}\n{op} r3, r1, r2\nhlt"
        slow, fast = run_both(source)
        assert slow.regs.read(Reg.R3) == fast.regs.read(Reg.R3)

    def test_fast_path_raises_same_faults(self):
        mem = PhysicalMemory(MEM_SIZE)
        mem.write_bytes(0, bytes([0xEE] + [0] * 7))
        cpu = CPU(mem)
        with pytest.raises(InvalidInstruction):
            cpu.step()
        with pytest.raises(InvalidInstruction):
            BlockTranslator(mem).run(cpu, 100)
        assert (cpu.pc, cpu.instret) == (0, 0)

    def test_decode_cache_never_stale_for_modified_code(self):
        # Overwriting an instruction's bytes must change what executes:
        # the decode cache keys on content and the block cache drops
        # blocks of a rewritten page.
        source = "movi r1, 1\nhlt"
        cpu = make_cpu(source)
        translator = BlockTranslator(cpu.memory)
        run_translated(cpu, translator)
        assert cpu.regs.read(Reg.R1) == 1
        # Patch the first instruction to movi r1, 2 and re-run from 0.
        from repro.isa.assembler import assemble

        cpu.memory.write_bytes(0, assemble("movi r1, 2").code)
        cpu.pc = 0
        cpu.halted = False
        run_translated(cpu, translator)
        assert cpu.regs.read(Reg.R1) == 2
        assert translator.invalidations == 1


class TestMachineFastPathSelection:
    def test_recording_run_matches_instrumented_run(self):
        """The whole point: fast (record) and instrumented (replay)
        executions retire identical instruction counts."""
        from repro.emulator.plugins import Plugin

        class Observer(Plugin):
            def __init__(self):
                super().__init__()
                self.count = 0

            def on_insn_exec(self, machine, thread, fx):
                self.count += 1

        def build(plugins):
            machine = Machine(MachineConfig())
            for p in plugins:
                machine.plugins.register(p)
            spawn_asm(
                machine,
                "w.exe",
                """
                start:
                    movi r5, 500
                loop:
                    muli r6, r6, 3
                    subi r5, r5, 1
                    cmpi r5, 0
                    jnz loop
                    movi r1, 0
                    movi r0, SYS_EXIT
                    syscall
                """,
            )
            machine.run(100_000)
            return machine

        fast = build([])
        observer = Observer()
        slow = build([observer])
        assert fast.now == slow.now
        assert observer.count > 0

    def test_plugin_without_insn_hook_gets_fast_path(self):
        from repro.emulator.plugins import Plugin

        class Passive(Plugin):
            pass

        machine = Machine(MachineConfig())
        machine.plugins.register(Passive())
        assert machine.plugins.needs_insn_effects() is False

    def test_faros_gates_instrumentation_on_taint(self):
        from repro.faros import Faros
        from repro.taint.tags import Tag, TagType

        machine = Machine(MachineConfig())
        faros = machine.plugins.register(Faros())
        # Dormant while the system holds no taint: the machine may run
        # its uninstrumented loop (the netflow-arrival optimisation).
        assert machine.plugins.needs_insn_effects() is False
        faros.tracker.taint_range((0x100,), Tag(TagType.NETFLOW, 0))
        assert machine.plugins.needs_insn_effects() is True

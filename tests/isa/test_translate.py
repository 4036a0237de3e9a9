"""Unit tests for the basic-block translation cache (repro.isa.translate).

The differential attack-level suites live in ``test_translate_diff.py``
and ``test_translate_smc.py``; this file pins the translator's local
contracts -- block shapes, cache reuse, chaining, self-loops iterating
in place, budget exactness, precise faults, and page-straddling
instructions in blocks of their own.
"""

import pytest

from repro.emulator.machine import Machine, MachineConfig
from repro.emulator.record_replay import Scenario
from repro.faults.plan import FaultPlan, FaultRule
from repro.isa.assembler import assemble
from repro.isa.cpu import CPU, AccessKind, FlatMMU, cached_decode, decode_cache_info
from repro.isa.errors import InvalidInstruction, PageFault
from repro.isa.instructions import INSTRUCTION_SIZE, Op, encode, make
from repro.isa.memory import PAGE_SIZE, PhysicalMemory
from repro.isa.registers import Reg
from repro.isa.translate import BlockTranslator
from repro.obs.profiler import HotBlockProfiler

from tests.conftest import spawn_asm
from tests.isa.test_cpu import MEM_SIZE, make_cpu
from tests.isa.test_fast_path import PROGRAMS


def make_translated(source, base=0):
    cpu = make_cpu(source, base=base)
    return cpu, BlockTranslator(cpu.memory)


def run_translated(cpu, translator, max_insns=100_000):
    """Drive *cpu* through the translator until HLT (or the cap)."""
    while not cpu.halted and cpu.instret < max_insns:
        translator.run(cpu, max_insns - cpu.instret)
    assert cpu.halted, "program did not halt"
    return cpu


class TestBlockShapes:
    def test_straight_line_block_ends_at_halt(self):
        cpu, tr = make_translated("movi r1, 1\nmovi r2, 2\nadd r3, r1, r2\nhlt")
        block = tr.lookup(cpu)
        assert block.n_body == 3
        assert block.kind == "halt"
        assert block.n_insns == 4
        assert block.pure  # no loads/stores

    def test_block_ends_at_branch(self):
        cpu, tr = make_translated("movi r1, 3\ncmpi r1, 0\njnz 0\nhlt")
        block = tr.lookup(cpu)
        assert block.kind == "jump"
        assert block.n_body == 2

    def test_block_ends_at_syscall(self):
        cpu, tr = make_translated("movi r0, 1\nsyscall\nhlt")
        block = tr.lookup(cpu)
        assert block.kind == "syscall"
        assert block.n_body == 1

    def test_memory_ops_make_block_impure(self):
        cpu, tr = make_translated("movi r1, 0x500\nst [r1+0], r1\nhlt")
        block = tr.lookup(cpu)
        assert not block.pure

    def test_block_ends_at_page_boundary(self):
        # One full page of NOPs: the block must stop at the page edge
        # with kind "fall", not run into the next page.
        nops = "\n".join(["nop"] * (PAGE_SIZE // INSTRUCTION_SIZE + 4)) + "\nhlt"
        cpu, tr = make_translated(nops)
        block = tr.lookup(cpu)
        assert block.kind == "fall"
        assert block.n_body == PAGE_SIZE // INSTRUCTION_SIZE

    def test_translation_watches_the_code_page(self):
        cpu, tr = make_translated("movi r1, 1\nhlt")
        tr.lookup(cpu)
        # The page is now version-tracked: writes into it bump the version.
        assert cpu.memory.code_version(0) == 0
        cpu.memory.write_byte(0x40, 0x7)
        assert cpu.memory.code_version(0) == 1


class TestCacheBehaviour:
    def test_block_translated_once_per_loop(self):
        cpu, tr = make_translated(
            "movi r1, 50\nloop: subi r1, r1, 1\ncmpi r1, 0\njnz loop\nhlt"
        )
        run_translated(cpu, tr)
        # Two blocks (entry, loop body) plus the post-loop halt block.
        assert tr.translations <= 3
        assert tr.executions > 50
        assert tr.stats()["cached_blocks"] == tr.translations

    def test_direct_jumps_chain(self):
        cpu, tr = make_translated(
            "movi r1, 50\nloop: subi r1, r1, 1\ncmpi r1, 0\njnz loop\nhlt"
        )
        run_translated(cpu, tr)
        assert tr.chain_hits > 40

    def test_lookup_by_address_space(self):
        # Two MMUs over the same physical page get distinct cache entries.
        cpu, tr = make_translated("movi r1, 1\nhlt")
        b1 = tr.lookup(cpu)
        cpu.mmu = FlatMMU()
        b2 = tr.lookup(cpu)
        assert b1 is not b2
        assert tr.translations == 2

    def test_top_blocks_deterministic(self):
        # The hot-block profiler ranks the cache's own blocks: a total
        # order that accounts every retirement of a run with no
        # invalidation, each block named after its process.
        machine = Machine(MachineConfig())
        profiler = machine.plugins.register(HotBlockProfiler())
        spawn_asm(
            machine,
            "loop.exe",
            """
            start:
                movi r1, 9
            loop:
                subi r1, r1, 1
                cmpi r1, 0
                jnz loop
                movi r1, 0
                movi r0, SYS_EXIT
                syscall
            """,
        )
        machine.run(10_000)
        top = profiler.top(10)
        keys = [(-b.retired, b.start_pc) for b in top]
        assert keys == sorted(keys)
        assert sum(b.retired for b in top) == machine.now
        assert all(b.processes == ["loop.exe"] for b in top)

    def test_taint_tier_counters_idle_on_uninstrumented_runs(self):
        # The translated-tainted tier (test_translate_taint.py) shares
        # the cache; plain uninstrumented execution must never touch
        # its counters.
        cpu, tr = make_translated("movi r1, 1\nhlt")
        run_translated(cpu, tr)
        stats = tr.stats()
        assert stats["taint_lookups"] == 0
        assert stats["taint_executions"] == 0
        assert stats["taint_single_steps"] == 0


class TestEquivalence:
    @pytest.mark.parametrize("source", PROGRAMS)
    def test_translated_matches_step_fast(self, source):
        # The reference is the cpu.step interpreter.
        ref = make_cpu(source)
        while not ref.halted:
            ref.step()
        cpu, tr = make_translated(source)
        run_translated(cpu, tr)
        assert cpu.regs.snapshot() == ref.regs.snapshot()
        assert (cpu.pc, cpu.instret) == (ref.pc, ref.instret)
        assert (cpu.flag_z, cpu.flag_n) == (ref.flag_z, ref.flag_n)
        assert cpu.memory.read_bytes(0, MEM_SIZE) == ref.memory.read_bytes(0, MEM_SIZE)

    @pytest.mark.parametrize("source", PROGRAMS)
    @pytest.mark.parametrize("budget", [1, 2, 3, 7])
    def test_budget_cuts_are_exact(self, source, budget):
        """Executing through the translator with any per-call budget
        retires exactly the same stream as cpu.step -- the property
        watchdogs and FaultPlan instret triggers rely on."""
        ref = make_cpu(source)
        cpu, tr = make_translated(source)
        while not cpu.halted:
            before = cpu.instret
            tr.run(cpu, budget)
            assert cpu.instret - before <= budget
            while ref.instret < cpu.instret:
                ref.step()
            assert (cpu.pc, cpu.instret) == (ref.pc, ref.instret)
            assert cpu.regs.snapshot() == ref.regs.snapshot()
        assert ref.halted


class TestPreciseFaults:
    def test_undecodable_first_instruction(self):
        mem = PhysicalMemory(MEM_SIZE)
        mem.write_bytes(0, bytes([0xEE] + [0] * 7))
        cpu = CPU(mem)
        tr = BlockTranslator(mem)
        with pytest.raises(InvalidInstruction):
            tr.run(cpu, 100)
        assert (cpu.pc, cpu.instret) == (0, 0)

    def test_undecodable_after_valid_prefix(self):
        # Valid prologue, then junk: the prefix retires, then the fault
        # lands precisely on the junk pc -- as cpu.step would.
        mem = PhysicalMemory(MEM_SIZE)
        prog = assemble("movi r1, 1\nmovi r2, 2")
        mem.write_bytes(0, prog.code)
        mem.write_bytes(len(prog.code), bytes([0xEE] + [0] * 7))
        cpu = CPU(mem)
        tr = BlockTranslator(mem)
        with pytest.raises(InvalidInstruction) as exc:
            while True:
                tr.run(cpu, 100)
        assert exc.value.pc == len(prog.code)
        assert (cpu.pc, cpu.instret) == (len(prog.code), 2)
        assert cpu.regs.read(Reg.R2) == 2

    def test_mid_block_page_fault_is_precise(self):
        class GuardedMMU(FlatMMU):
            def translate(self, vaddr, access):
                if access is AccessKind.READ and vaddr >= 0x800:
                    raise PageFault(vaddr, access.value, "unmapped")
                return vaddr

        source = "movi r1, 0x900\nmovi r2, 7\nld r3, [r1+0]\nhlt"
        ref = make_cpu(source)
        ref.mmu = GuardedMMU()
        with pytest.raises(PageFault):
            while True:
                ref.step()
        cpu, tr = make_translated(source)
        cpu.mmu = GuardedMMU()
        with pytest.raises(PageFault):
            while True:
                tr.run(cpu, 100)
        assert (cpu.pc, cpu.instret) == (ref.pc, ref.instret)
        assert cpu.regs.snapshot() == ref.regs.snapshot()


#: A 6-instruction pure self-loop (head at pc 8) behind a one-instruction
#: entry; the entry block runs the first iteration itself.
SELF_LOOP = """
    movi r5, 40
loop:
    addi r1, r1, 3
    muli r2, r1, 5
    xor r3, r1, r2
    subi r5, r5, 1
    cmpi r5, 0
    jnz loop
    hlt
"""
SELF_LOOP_HEAD = INSTRUCTION_SIZE
SELF_LOOP_SIZE = 6


def assert_executions_add_up(tr):
    """Each dispatched execution -- an in-place iteration included --
    counts once in ``executions`` and once in its block's
    ``exec_count``."""
    assert tr.executions == sum(b.exec_count for b in tr.blocks())


class TestSelfLoops:
    def test_self_loop_is_recognised(self):
        cpu, tr = make_translated(SELF_LOOP)
        cpu.pc = SELF_LOOP_HEAD
        block = tr.lookup(cpu)
        assert block.self_loop
        assert block.n_insns == SELF_LOOP_SIZE
        cpu.pc = 0
        # The entry block jumps to the loop head, not to its own start.
        assert not tr.lookup(cpu).self_loop

    @pytest.mark.parametrize(
        "source, base",
        [
            ("loop: movi r6, 0x500\nld r1, [r6+0]\njmp loop", 0),
            ("loop: call loop", 0),
            ("loop: movi r1, 0\njmpr r1", 0),
            (SELF_LOOP, 0),
            # One `jmp` to itself across a page boundary.
            ("loop: jmp loop", PAGE_SIZE - 4),
        ],
        ids=["impure", "call", "indirect", "targets-another-block", "straddling"],
    )
    def test_other_loops_are_not_self_loops(self, source, base):
        cpu, tr = make_translated(source, base=base)
        block = tr.lookup(cpu)
        assert block.kind == "jump"
        assert not block.self_loop

    def test_accounting_matches_one_dispatch_per_iteration(self):
        cpu, tr = make_translated(SELF_LOOP)
        tr.run(cpu, 100_000)
        assert cpu.halted
        loop = next(b for b in tr.blocks() if b.start_pc == SELF_LOOP_HEAD)
        # 40 trips: the entry block runs the first, the loop block the
        # other 39 in place, each counted as its own execution and
        # each after the first as a chain hit.
        assert loop.exec_count == 39
        assert loop.retired == 39 * SELF_LOOP_SIZE
        assert tr.executions == 1 + 39 + 1
        assert tr.chain_hits == 38
        assert tr.lookups == 3  # entry, loop head, halt
        assert_executions_add_up(tr)
        assert sum(block.retired for block in tr.blocks()) == cpu.instret

    @pytest.mark.parametrize("budget", [5, 7, 11, 13, 25])
    def test_budget_cuts_at_every_offset(self, budget):
        # Budgets coprime to the loop's 6 instructions cut it at every
        # offset in turn; the in-place iterations must leave exactly the
        # interpreter's state at each cut.
        ref = make_cpu(SELF_LOOP)
        cpu, tr = make_translated(SELF_LOOP)
        offsets = set()
        while not cpu.halted:
            before = cpu.instret
            tr.run(cpu, budget)
            assert cpu.instret - before <= budget
            while ref.instret < cpu.instret:
                ref.step()
            assert (cpu.pc, cpu.instret) == (ref.pc, ref.instret)
            assert cpu.regs.snapshot() == ref.regs.snapshot()
            assert (cpu.flag_z, cpu.flag_n) == (ref.flag_z, ref.flag_n)
            offset = (cpu.pc - SELF_LOOP_HEAD) // INSTRUCTION_SIZE
            if 0 <= offset < SELF_LOOP_SIZE:
                offsets.add(offset)
        assert ref.halted
        assert offsets == set(range(SELF_LOOP_SIZE))
        assert_executions_add_up(tr)

    def test_jmp_to_self_trips_instruction_budget_at_identical_tick(self):
        runs = {}
        for translate in (True, False):
            machine = Machine(
                MachineConfig(translate=translate, instruction_budget=12_345)
            )
            spawn_asm(machine, "spin.exe", "start:\n    jmp start")
            runs[translate] = (machine, machine.run(100_000))
        (m_on, on), (m_off, off) = runs[True], runs[False]
        assert on.stop_reason == "fault" == off.stop_reason
        assert on.fault.kind == "WatchdogExpired"
        assert on.fault.to_json_dict() == off.fault.to_json_dict()
        assert m_on.now == m_off.now
        spin = [b for b in m_on.translator.blocks() if b.self_loop]
        assert len(spin) == 1 and spin[0].n_insns == 1
        assert m_on.translator.chain_hits > 12_000

    @pytest.mark.parametrize("at", [1_234, 5_001])
    def test_fault_plan_trigger_mid_loop_fires_at_identical_retirement(self, at):
        source = SELF_LOOP.replace("movi r5, 40", "movi r5, 10000")
        plan = FaultPlan(
            rules=(
                FaultRule(
                    trigger="instret",
                    at=at,
                    action="fault",
                    fault_kind="DeviceFault",
                    detail="self-loop probe",
                ),
            )
        )
        runs = {}
        for translate in (True, False):
            scenario = plan.apply(
                Scenario(
                    "self-loop",
                    lambda m: spawn_asm(m, "loop.exe", "start:" + source),
                    config=MachineConfig(translate=translate),
                    max_instructions=200_000,
                )
            )
            machine = scenario.build()
            runs[translate] = (machine, machine.run(scenario.max_instructions))
        (m_on, on), (m_off, off) = runs[True], runs[False]
        assert on.stop_reason == "fault" == off.stop_reason
        assert on.fault.to_json_dict() == off.fault.to_json_dict()
        assert m_on.now == m_off.now
        assert [(t, repr(e)) for t, e in m_on.journal] == [
            (t, repr(e)) for t, e in m_off.journal
        ]
        contexts_on, contexts_off = (
            [p.main_thread.context for p in m.kernel.processes.values()]
            for m in (m_on, m_off)
        )
        assert contexts_on == contexts_off
        assert any(b.self_loop and b.exec_count for b in m_on.translator.blocks())


class TestPageStraddlingCode:
    def test_unaligned_code_translates_across_pages(self):
        # Code planted at base 4 puts one instruction across the first
        # page boundary (offset 252): the translator gives it a block of
        # its own, fetched from both pages, so nothing single-steps.
        n_insns = PAGE_SIZE // INSTRUCTION_SIZE + 2
        body = "\n".join(f"addi r1, r1, {i}" for i in range(n_insns))
        source = body + "\nhlt"
        ref = make_cpu(source, base=4)
        while not ref.halted:
            ref.step()
        cpu, tr = make_translated(source, base=4)
        run_translated(cpu, tr)
        assert any(block.tail is not None for block in tr.blocks())
        assert cpu.regs.read(Reg.R1) == ref.regs.read(Reg.R1)
        assert (cpu.pc, cpu.instret) == (ref.pc, ref.instret)


class TestSharedDecodeCache:
    def test_cpu_no_longer_owns_a_decode_cache(self):
        cpu = make_cpu("hlt")
        assert not hasattr(cpu, "_decode_cache")

    def test_decode_lru_shared_across_cpus(self):
        # A distinctive immediate so this encoding is cold exactly once.
        raw = encode(make(Op.MOVI, Reg.R4, imm=0x5EED5EED))
        cached_decode(raw)
        hits_before = decode_cache_info().hits
        for _ in range(2):
            mem = PhysicalMemory(MEM_SIZE)
            mem.write_bytes(0, raw + encode(make(Op.HLT)))
            cpu = CPU(mem)
            BlockTranslator(mem).run(cpu, 2)
            assert cpu.regs.read(Reg.R4) == 0x5EED5EED
        assert decode_cache_info().hits >= hits_before + 2

    def test_interpreter_step_decodes_through_the_lru(self):
        # The instrumented interpreter (the "full" tier and the taint
        # tier's page-straddling steps) shares the LRU too.
        raw = encode(make(Op.MOVI, Reg.R5, imm=0x57E95EED))
        cached_decode(raw)
        hits_before = decode_cache_info().hits
        for _ in range(2):
            mem = PhysicalMemory(MEM_SIZE)
            mem.write_bytes(0, raw + encode(make(Op.HLT)))
            cpu = CPU(mem)
            cpu.step()
            assert cpu.regs.read(Reg.R5) == 0x57E95EED
        assert decode_cache_info().hits >= hits_before + 2

    def test_decode_failures_are_not_cached(self):
        bad = bytes([0xEE] + [0] * 7)
        mem = PhysicalMemory(MEM_SIZE)
        mem.write_bytes(0, bad)
        cpu = CPU(mem)
        for _ in range(2):
            with pytest.raises(InvalidInstruction):
                cpu.step()
            cpu.pc = 0

"""Unit tests for the basic-block translation cache (repro.isa.translate).

The differential attack-level suites live in ``test_translate_diff.py``
and ``test_translate_smc.py``; this file pins the translator's local
contracts -- block shapes, cache reuse, chaining, budget exactness,
precise faults, and the single-step escape hatch for page-straddling
instructions.
"""

import pytest

from repro.isa.assembler import assemble
from repro.isa.cpu import CPU, AccessKind, FlatMMU, cached_decode, decode_cache_info
from repro.isa.errors import InvalidInstruction, PageFault
from repro.isa.instructions import INSTRUCTION_SIZE, Op, encode, make
from repro.isa.memory import PAGE_SIZE, PhysicalMemory
from repro.isa.registers import Reg
from repro.isa.translate import BlockTranslator

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
        cpu, tr = make_translated(
            "movi r1, 9\nloop: subi r1, r1, 1\ncmpi r1, 0\njnz loop\nhlt"
        )
        run_translated(cpu, tr)
        top = tr.top_blocks(4)
        assert top == sorted(top, key=lambda t: (-t[1], t[0]))
        assert sum(retired for _pc, retired, _x in top) == cpu.instret

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
        ref = make_cpu(source)
        while not ref.halted:
            ref.step_fast()
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
        retires exactly the same stream as step_fast -- the property
        watchdogs and FaultPlan instret triggers rely on."""
        ref = make_cpu(source)
        cpu, tr = make_translated(source)
        while not cpu.halted:
            before = cpu.instret
            tr.run(cpu, budget)
            assert cpu.instret - before <= budget
            while ref.instret < cpu.instret:
                ref.step_fast()
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
        # lands precisely on the junk pc -- as step_fast would.
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
                ref.step_fast()
        cpu, tr = make_translated(source)
        cpu.mmu = GuardedMMU()
        with pytest.raises(PageFault):
            while True:
                tr.run(cpu, 100)
        assert (cpu.pc, cpu.instret) == (ref.pc, ref.instret)
        assert cpu.regs.snapshot() == ref.regs.snapshot()


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
            ref.step_fast()
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
            cpu.step_fast()
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
                cpu.step_fast()
            cpu.pc = 0

"""Unit tests for the CPU core: semantics, flags, effects, and faults."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.isa.cpu import CPU, AccessKind
from repro.isa.errors import InvalidInstruction, PageFault
from repro.isa.instructions import INSTRUCTION_SIZE, Op
from repro.isa.memory import PAGE_SIZE, PhysicalMemory
from repro.isa.registers import Reg

MEM_SIZE = 16 * PAGE_SIZE


def run_asm(source, max_steps=10_000, setup=None):
    """Assemble *source* at 0, run until HLT, return the CPU."""
    cpu = make_cpu(source)
    if setup:
        setup(cpu)
    steps = 0
    while not cpu.halted:
        cpu.step()
        steps += 1
        if steps > max_steps:
            raise AssertionError("program did not halt")
    return cpu


def make_cpu(source, base=0):
    mem = PhysicalMemory(MEM_SIZE)
    prog = assemble(source, base=base)
    mem.write_bytes(base, prog.code)
    cpu = CPU(mem)
    cpu.pc = prog.entry
    cpu.regs.write(Reg.SP, MEM_SIZE)  # stack at top of memory
    return cpu


class TestDataMovement:
    def test_movi_mov(self):
        cpu = run_asm("movi r1, 99\nmov r2, r1\nhlt")
        assert cpu.regs.read(Reg.R2) == 99

    def test_ld_st_word(self):
        cpu = run_asm(
            "movi r1, 0x500\nmovi r2, 0xdeadbeef\nst [r1+4], r2\nld r3, [r1+4]\nhlt"
        )
        assert cpu.regs.read(Reg.R3) == 0xDEADBEEF
        assert cpu.memory.read_word(0x504) == 0xDEADBEEF

    def test_ldb_zero_extends(self):
        cpu = run_asm(
            "movi r1, 0x500\nmovi r2, 0x1ff\nstb [r1], r2\nldb r3, [r1]\nhlt"
        )
        assert cpu.regs.read(Reg.R3) == 0xFF

    def test_negative_displacement(self):
        cpu = run_asm(
            "movi r1, 0x508\nmovi r2, 7\nst [r1-8], r2\nld r3, [r1-8]\nhlt"
        )
        assert cpu.regs.read(Reg.R3) == 7
        assert cpu.memory.read_word(0x500) == 7

    def test_push_pop(self):
        cpu = run_asm("movi r1, 11\npush r1\nmovi r1, 0\npop r2\nhlt")
        assert cpu.regs.read(Reg.R2) == 11
        assert cpu.regs.read(Reg.SP) == MEM_SIZE

    def test_push_grows_down(self):
        cpu = run_asm("movi r1, 1\npush r1\nhlt")
        assert cpu.regs.read(Reg.SP) == MEM_SIZE - 4


class TestAlu:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("add", 2, 3, 5),
            ("sub", 3, 5, 0xFFFFFFFE),
            ("mul", 7, 6, 42),
            ("and", 0xF0, 0x3C, 0x30),
            ("or", 0xF0, 0x0F, 0xFF),
            ("xor", 0xFF, 0x0F, 0xF0),
            ("shl", 1, 4, 16),
            ("shr", 256, 4, 16),
        ],
    )
    def test_register_forms(self, op, a, b, expected):
        cpu = run_asm(f"movi r1, {a}\nmovi r2, {b}\n{op} r3, r1, r2\nhlt")
        assert cpu.regs.read(Reg.R3) == expected

    @pytest.mark.parametrize(
        "op,a,imm,expected",
        [
            ("addi", 2, 3, 5),
            ("subi", 10, 4, 6),
            ("muli", 5, 5, 25),
            ("andi", 0xFF, 0x0F, 0x0F),
            ("ori", 0x10, 0x01, 0x11),
            ("xori", 0b1010, 0b0110, 0b1100),
            ("shli", 3, 2, 12),
            ("shri", 12, 2, 3),
        ],
    )
    def test_immediate_forms(self, op, a, imm, expected):
        cpu = run_asm(f"movi r1, {a}\n{op} r2, r1, {imm}\nhlt")
        assert cpu.regs.read(Reg.R2) == expected

    def test_not(self):
        cpu = run_asm("movi r1, 0\nnot r2, r1\nhlt")
        assert cpu.regs.read(Reg.R2) == 0xFFFFFFFF

    def test_add_wraps_32_bits(self):
        cpu = run_asm("movi r1, 0xffffffff\naddi r2, r1, 1\nhlt")
        assert cpu.regs.read(Reg.R2) == 0

    def test_shift_amount_masked_to_5_bits(self):
        cpu = run_asm("movi r1, 1\nmovi r2, 33\nshl r3, r1, r2\nhlt")
        assert cpu.regs.read(Reg.R3) == 2

    @given(a=st.integers(0, 0xFFFFFFFF), b=st.integers(0, 0xFFFFFFFF))
    def test_xor_self_inverse_property(self, a, b):
        cpu = run_asm(
            f"movi r1, {a}\nmovi r2, {b}\nxor r3, r1, r2\nxor r4, r3, r2\nhlt"
        )
        assert cpu.regs.read(Reg.R4) == a


class TestControlFlow:
    def test_jmp(self):
        cpu = run_asm("jmp over\nmovi r1, 1\nover: hlt")
        assert cpu.regs.read(Reg.R1) == 0

    @pytest.mark.parametrize(
        "a,b,branch,taken",
        [
            (5, 5, "jz", True),
            (5, 6, "jz", False),
            (5, 6, "jnz", True),
            (1, 2, "jlt", True),
            (2, 1, "jlt", False),
            (2, 1, "jge", True),
            (1, 1, "jge", True),
            (1, 1, "jle", True),
            (2, 1, "jgt", True),
            (1, 1, "jgt", False),
        ],
    )
    def test_conditional_branches(self, a, b, branch, taken):
        cpu = run_asm(
            f"movi r1, {a}\nmovi r2, {b}\ncmp r1, r2\n{branch} yes\n"
            "movi r3, 0\nhlt\nyes: movi r3, 1\nhlt"
        )
        assert cpu.regs.read(Reg.R3) == (1 if taken else 0)

    def test_signed_comparison(self):
        # 0xffffffff is -1 signed, so -1 < 1
        cpu = run_asm(
            "movi r1, 0xffffffff\ncmpi r1, 1\njlt neg\nmovi r3, 0\nhlt\nneg: movi r3, 1\nhlt"
        )
        assert cpu.regs.read(Reg.R3) == 1

    def test_call_ret(self):
        cpu = run_asm(
            "call fn\nmovi r2, 2\nhlt\nfn: movi r1, 1\nret"
        )
        assert cpu.regs.read(Reg.R1) == 1
        assert cpu.regs.read(Reg.R2) == 2

    def test_callr_through_register(self):
        cpu = run_asm(
            "movi r5, fn\ncallr r5\nhlt\nfn: movi r1, 77\nret"
        )
        assert cpu.regs.read(Reg.R1) == 77

    def test_jmpr(self):
        cpu = run_asm("movi r5, out\njmpr r5\nmovi r1, 1\nout: hlt")
        assert cpu.regs.read(Reg.R1) == 0

    def test_loop_counts(self):
        cpu = run_asm(
            """
            movi r1, 0
            movi r2, 10
            loop:
                addi r1, r1, 1
                cmp r1, r2
                jnz loop
            hlt
            """
        )
        assert cpu.regs.read(Reg.R1) == 10


class TestEffectsTracing:
    def test_fetch_paddrs_cover_instruction_bytes(self):
        cpu = make_cpu("movi r1, 1\nhlt")
        fx = cpu.step()
        assert fx.fetch_paddrs == tuple(range(INSTRUCTION_SIZE))

    def test_load_effects(self):
        cpu = make_cpu("movi r1, 0x500\nld r2, [r1+4]\nhlt")
        cpu.memory.write_word(0x504, 123)
        cpu.step()
        fx = cpu.step()
        (read,) = fx.reads
        assert read.vaddr == 0x504
        assert read.paddrs == (0x504, 0x505, 0x506, 0x507)
        assert read.value == 123
        assert fx.reg_written is Reg.R2
        # Journals and digests print accesses and hash them.
        assert repr(read) == (
            "MemoryAccess(vaddr=1284, paddrs=(1284, 1285, 1286, 1287), value=123)"
        )
        assert hash(read) == hash((0x504, (0x504, 0x505, 0x506, 0x507), 123))
        assert read.size == 4

    def test_store_effects(self):
        cpu = make_cpu("movi r1, 0x500\nmovi r2, 9\nstb [r1], r2\nhlt")
        cpu.step()
        cpu.step()
        fx = cpu.step()
        (write,) = fx.writes
        assert write.paddrs == (0x500,) and write.value == 9

    def test_branch_effects(self):
        cpu = make_cpu("cmpi r0, 0\njz 0x20\nhlt")
        fx = cpu.step()
        assert fx.flags_written
        fx = cpu.step()
        assert fx.flags_read and fx.branch_taken is True and fx.next_pc == 0x20

    def test_syscall_effect_advances_pc(self):
        cpu = make_cpu("syscall\nhlt")
        fx = cpu.step()
        assert fx.syscall and cpu.pc == INSTRUCTION_SIZE

    def test_instret_counts(self):
        cpu = run_asm("nop\nnop\nhlt")
        assert cpu.instret == 3


class TestFaults:
    def test_undefined_opcode_faults(self):
        mem = PhysicalMemory(MEM_SIZE)
        mem.write_bytes(0, bytes([0xEE] + [0] * 7))
        cpu = CPU(mem)
        with pytest.raises(InvalidInstruction):
            cpu.step()

    def test_page_fault_propagates(self):
        class DenyMMU:
            def translate(self, vaddr, access):
                if access is AccessKind.WRITE:
                    raise PageFault(vaddr, access.value, "write to read-only page")
                return vaddr

        mem = PhysicalMemory(MEM_SIZE)
        prog = assemble("movi r1, 0x500\nst [r1], r1\nhlt")
        mem.write_bytes(0, prog.code)
        cpu = CPU(mem, mmu=DenyMMU())
        cpu.step()
        with pytest.raises(PageFault):
            cpu.step()

    def test_context_roundtrip(self):
        cpu = make_cpu("movi r1, 5\ncmpi r1, 5\nhlt")
        cpu.step()
        cpu.step()
        ctx = cpu.context()
        other = make_cpu("hlt")
        other.restore_context(ctx)
        assert other.regs.read(Reg.R1) == 5
        assert other.flag_z is True
        assert other.pc == cpu.pc

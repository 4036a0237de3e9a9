"""Unit tests for the two-pass assembler."""

import pytest

from repro.analysis.triage import ATTACK_BUILDER_REGISTRY
from repro.isa import assembler
from repro.isa.assembler import AssemblerError, assemble
from repro.isa.instructions import INSTRUCTION_SIZE, Op, decode
from repro.isa.registers import Reg
from repro.workloads.corpus import corpus_samples


def first(program):
    return decode(program.code)


class TestInstructions:
    def test_movi(self):
        insn = first(assemble("movi r1, 42"))
        assert insn.op is Op.MOVI and insn.rd is Reg.R1 and insn.imm == 42

    def test_hex_immediate(self):
        assert first(assemble("movi r0, 0xff")).imm == 0xFF

    def test_negative_immediate_wraps(self):
        assert first(assemble("addi sp, sp, -8")).imm == 0xFFFFFFF8

    def test_memory_operand_with_displacement(self):
        insn = first(assemble("ld r1, [r2+12]"))
        assert (insn.op, insn.rd, insn.rs1, insn.imm) == (Op.LD, Reg.R1, Reg.R2, 12)

    def test_memory_operand_without_displacement(self):
        assert first(assemble("ldb r1, [sp]")).imm == 0

    def test_memory_operand_negative_displacement(self):
        assert first(assemble("st [fp-4], r1")).imm == 0xFFFFFFFC

    def test_store_register_fields(self):
        insn = first(assemble("st [r6+4], r3"))
        assert (insn.rs1, insn.rs2) == (Reg.R6, Reg.R3)

    def test_three_operand_alu(self):
        insn = first(assemble("xor r1, r2, r3"))
        assert (insn.op, insn.rd, insn.rs1, insn.rs2) == (Op.XOR, Reg.R1, Reg.R2, Reg.R3)

    def test_case_insensitive(self):
        assert first(assemble("MOVI R1, 1")).op is Op.MOVI

    def test_zero_operand_ops(self):
        for text, op in [("nop", Op.NOP), ("hlt", Op.HLT), ("ret", Op.RET), ("syscall", Op.SYSCALL)]:
            assert first(assemble(text)).op is op


class TestLabelsAndSymbols:
    def test_forward_reference(self):
        prog = assemble("jmp end\nnop\nend: hlt")
        assert decode(prog.code).imm == 2 * INSTRUCTION_SIZE

    def test_backward_reference(self):
        prog = assemble("top: nop\njmp top")
        assert decode(prog.code, 8).imm == 0

    def test_base_offsets_labels(self):
        prog = assemble("nop\nhere: hlt", base=0x1000)
        assert prog.label("here") == 0x1000 + INSTRUCTION_SIZE

    def test_entry_defaults_to_base(self):
        assert assemble("nop", base=0x400).entry == 0x400

    def test_entry_honours_start_label(self):
        prog = assemble("nop\nstart: hlt", base=0x400)
        assert prog.entry == 0x400 + 8

    def test_equ_constant(self):
        prog = assemble(".equ ANSWER, 42\nmovi r0, ANSWER")
        assert first(prog).imm == 42

    def test_label_plus_offset(self):
        prog = assemble("movi r1, data+4\ndata: .word 1, 2")
        assert first(prog).imm == prog.label("data") + 4

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("a: nop\na: nop")

    def test_undefined_symbol_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("jmp nowhere")

    def test_multiple_labels_one_line(self):
        prog = assemble("a: b: hlt")
        assert prog.label("a") == prog.label("b") == 0


class TestDataDirectives:
    def test_word_emits_little_endian(self):
        prog = assemble(".word 0x11223344")
        assert prog.code == b"\x44\x33\x22\x11"

    def test_word_list_and_label_pointer(self):
        prog = assemble("ptr: .word ptr, 7", base=0x100)
        assert prog.code[:4] == (0x100).to_bytes(4, "little")
        assert prog.code[4:8] == (7).to_bytes(4, "little")

    def test_byte_values(self):
        assert assemble(".byte 1, 2, 0xff").code == b"\x01\x02\xff"

    def test_byte_range_checked(self):
        with pytest.raises(AssemblerError):
            assemble(".byte 256")

    def test_ascii_and_asciz(self):
        assert assemble('.ascii "hi"').code == b"hi"
        assert assemble('.asciz "hi"').code == b"hi\x00"

    def test_ascii_escapes(self):
        assert assemble('.ascii "a\\n"').code == b"a\n"

    def test_space(self):
        assert assemble(".space 5").code == b"\x00" * 5

    def test_labels_account_for_data_sizes(self):
        prog = assemble('.ascii "abc"\nafter: hlt')
        assert prog.label("after") == 3


class TestErrorsAndComments:
    def test_comments_stripped(self):
        assert assemble("nop ; trailing\n; full line\n").code == assemble("nop").code

    def test_semicolon_inside_string_kept(self):
        assert assemble('.ascii "a;b"').code == b"a;b"

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError):
            assemble("frobnicate r1")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError):
            assemble("mov r1")

    def test_bad_register(self):
        with pytest.raises(AssemblerError):
            assemble("mov r9, r1")

    def test_bad_memory_operand(self):
        with pytest.raises(AssemblerError):
            assemble("ld r1, r2")

    def test_unknown_directive(self):
        with pytest.raises(AssemblerError):
            assemble(".bogus 1")

    def test_error_reports_line_number(self):
        with pytest.raises(AssemblerError) as excinfo:
            assemble("nop\nnop\nbadop")
        assert excinfo.value.lineno == 3


class TestWholePrograms:
    def test_countdown_program_assembles(self):
        prog = assemble(
            """
            start:
                movi r1, 3
            loop:
                subi r1, r1, 1
                cmpi r1, 0
                jnz loop
                hlt
            """
        )
        assert len(prog.code) == 5 * INSTRUCTION_SIZE
        assert decode(prog.code, 3 * INSTRUCTION_SIZE).op is Op.JNZ


class TestLineCache:
    """The first pass memoises each source line's parse: a line served
    from the cache assembles as a fresh parse of it does, wherever it
    sits."""

    def test_cold_and_warm_assemblies_agree(self, monkeypatch):
        sources = []
        first_pass = assembler._first_pass

        def spy(source, base):
            sources.append((source, base))
            return first_pass(source, base)

        monkeypatch.setattr(assembler, "_first_pass", spy)
        for spec in corpus_samples():
            spec.scenario().build(())
        for build in ATTACK_BUILDER_REGISTRY.values():
            build().scenario.build(())
        monkeypatch.undo()
        assert len({source for source, _ in sources}) > 100
        cold = []
        for source, base in sources:
            assembler._LINE_CACHE.clear()
            cold.append(assemble(source, base))
        for source, base in sources:
            assemble(source, base)
        warm = [assemble(source, base) for source, base in sources]
        assert warm == cold

    @pytest.mark.parametrize(
        "seen, source, lineno",
        [
            ("nop\nmovi r1, LIMIT\n.equ LIMIT, 3", "nop\nnop\nmovi r1, LIMIT", 3),
            ("nop\na: nop", "nop\na: nop\na: nop", 3),
        ],
        ids=["undefined_symbol", "duplicate_label"],
    )
    def test_error_on_a_cached_line_names_its_line(self, seen, source, lineno):
        assemble(seen)
        assert set(source.splitlines()) <= set(assembler._LINE_CACHE)
        with pytest.raises(AssemblerError) as excinfo:
            assemble(source)
        assert excinfo.value.lineno == lineno

"""The CPU core: fetch/decode/execute with full effect tracing.

The CPU is deliberately *pure*: :meth:`CPU.step` executes exactly one
instruction against the attached MMU + physical memory and returns an
:class:`InstructionEffects` record describing everything that happened --
which physical bytes were fetched, read, and written, which register was
updated, whether a branch was taken, whether a syscall trapped.

The emulator layers everything else on top of that record: plugin
callbacks, taint propagation, and FAROS' per-instruction detection all
consume :class:`InstructionEffects` without the CPU knowing they exist.
This mirrors how PANDA instruments QEMU's translated code without changing
its semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Protocol, Tuple

from repro.isa.errors import DecodeError, InvalidInstruction
from repro.isa.instructions import (
    COND_BRANCH_OPS,
    IMM_ALU_OPS,
    INSTRUCTION_SIZE,
    Instruction,
    Op,
    REG_ALU_OPS,
    decode,
    signed32,
)
from repro.isa.memory import PhysicalMemory
from repro.isa.registers import MASK32, Reg, RegisterFile

#: Capacity of the process-wide decoded-instruction cache.  Sized so a
#: whole triage corpus of distinct guest images fits with room to spare
#: (one entry per distinct 8-byte encoding, not per address).
DECODE_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=DECODE_CACHE_SIZE)
def cached_decode(raw: bytes) -> Instruction:
    """Decode *raw* through the shared, bounded, process-wide LRU.

    Keyed by the raw 8 bytes -- content, not address -- so
    self-modifying/injected code can never be served a stale decode.
    Module-level on purpose: every CPU in the process (and, via fork,
    every batch-triage worker) shares one warm cache instead of
    re-decoding identical guest code per machine.  Decode *failures*
    are not cached; the error path re-raises per fetch, which is fine
    because a faulting fetch kills the guest process anyway.
    """
    return decode(raw)


def decode_cache_info():
    """Hit/miss statistics of the shared decode LRU (for tests/obs)."""
    return cached_decode.cache_info()


class AccessKind(enum.Enum):
    """Why a virtual address is being translated."""

    FETCH = "fetch"
    READ = "read"
    WRITE = "write"


class MMU(Protocol):
    """Anything that can translate virtual to physical addresses.

    The guest OS supplies per-process address spaces implementing this;
    raising :class:`~repro.isa.errors.PageFault` signals a guest fault.
    """

    def translate(self, vaddr: int, access: AccessKind) -> int:
        """Return the physical address for *vaddr* or raise ``PageFault``."""
        ...  # pragma: no cover - protocol


class FlatMMU:
    """Identity mapping, used by unit tests and bare-metal snippets."""

    def translate(self, vaddr: int, access: AccessKind) -> int:
        return vaddr


@dataclass(frozen=True)
class MemoryAccess:
    """One data-memory access performed by an instruction.

    :ivar vaddr: guest virtual address of the first byte.
    :ivar paddrs: physical address of *each* byte (bytes of one access can
        span pages, so they need not be contiguous).
    :ivar value: the 32-bit (or zero-extended 8-bit) value moved.
    """

    vaddr: int
    paddrs: Tuple[int, ...]
    value: int

    @property
    def size(self) -> int:
        return len(self.paddrs)


@dataclass
class InstructionEffects:
    """Everything one executed instruction did, for instrumentation."""

    pc: int
    insn: Instruction
    next_pc: int
    fetch_paddrs: Tuple[int, ...]
    reads: List[MemoryAccess] = field(default_factory=list)
    writes: List[MemoryAccess] = field(default_factory=list)
    reg_written: Optional[Reg] = None
    regs_read: Tuple[Reg, ...] = ()
    flags_read: bool = False
    flags_written: bool = False
    branch_taken: Optional[bool] = None
    syscall: bool = False
    halted: bool = False


class CPU:
    """A single in-order core executing the :mod:`repro.isa` instruction set."""

    def __init__(self, memory: PhysicalMemory, mmu: Optional[MMU] = None) -> None:
        self.memory = memory
        self.mmu: MMU = mmu if mmu is not None else FlatMMU()
        self.regs = RegisterFile()
        self.pc = 0
        self.flag_z = False
        self.flag_n = False
        self.halted = False
        self.instret = 0  # retired-instruction counter (the machine's clock)

    # -- context switching -------------------------------------------------------

    def context(self) -> dict:
        """Capture the full architectural state (for scheduler switches)."""
        return {
            "regs": self.regs.snapshot(),
            "pc": self.pc,
            "flag_z": self.flag_z,
            "flag_n": self.flag_n,
            "halted": self.halted,
        }

    def restore_context(self, ctx: dict) -> None:
        """Restore state captured by :meth:`context`."""
        self.regs.restore(ctx["regs"])
        self.pc = ctx["pc"]
        self.flag_z = ctx["flag_z"]
        self.flag_n = ctx["flag_n"]
        self.halted = ctx["halted"]

    # -- memory helpers ----------------------------------------------------------

    def _translate_range(self, vaddr: int, n: int, access: AccessKind) -> Tuple[int, ...]:
        """Translate each byte of an *n*-byte access (handles page spans)."""
        return tuple(
            self.mmu.translate((vaddr + i) & MASK32, access) for i in range(n)
        )

    def _load(self, vaddr: int, n: int) -> Tuple[int, Tuple[int, ...]]:
        paddrs = self._translate_range(vaddr, n, AccessKind.READ)
        value = 0
        for i, paddr in enumerate(paddrs):
            value |= self.memory.read_byte(paddr) << (8 * i)
        return value, paddrs

    def _store(self, vaddr: int, n: int, value: int) -> Tuple[int, ...]:
        paddrs = self._translate_range(vaddr, n, AccessKind.WRITE)
        for i, paddr in enumerate(paddrs):
            self.memory.write_byte(paddr, (value >> (8 * i)) & 0xFF)
        return paddrs

    # -- execution ---------------------------------------------------------------

    def step(self) -> InstructionEffects:
        """Execute one instruction and return its effects.

        Guest faults (:class:`~repro.isa.errors.PageFault`,
        :class:`~repro.isa.errors.InvalidInstruction`) propagate to the
        caller; the architectural state is left at the faulting
        instruction so the kernel can report a precise crash address.
        """
        pc = self.pc
        fetch_paddrs = self._translate_range(pc, INSTRUCTION_SIZE, AccessKind.FETCH)
        raw = bytes(self.memory.read_byte(p) for p in fetch_paddrs)
        try:
            insn = cached_decode(raw)
        except DecodeError as exc:
            raise InvalidInstruction(pc, str(exc)) from None

        effects = InstructionEffects(
            pc=pc,
            insn=insn,
            next_pc=(pc + INSTRUCTION_SIZE) & MASK32,
            fetch_paddrs=fetch_paddrs,
        )
        self._execute(insn, effects)
        self.pc = effects.next_pc
        self.instret += 1
        if effects.halted:
            self.halted = True
        return effects

    def _execute(self, insn: Instruction, fx: InstructionEffects) -> None:
        op = insn.op
        regs = self.regs

        if op is Op.NOP:
            return
        if op is Op.HLT:
            fx.halted = True
            return

        if op is Op.MOV:
            regs.write(insn.rd, regs.read(insn.rs1))
            fx.reg_written, fx.regs_read = insn.rd, (insn.rs1,)
            return
        if op is Op.MOVI:
            regs.write(insn.rd, insn.imm)
            fx.reg_written = insn.rd
            return

        if op is Op.LD or op is Op.LDB:
            vaddr = (regs.read(insn.rs1) + signed32(insn.imm)) & MASK32
            size = 4 if op is Op.LD else 1
            value, paddrs = self._load(vaddr, size)
            regs.write(insn.rd, value)
            fx.reads.append(MemoryAccess(vaddr, paddrs, value))
            fx.reg_written, fx.regs_read = insn.rd, (insn.rs1,)
            return
        if op is Op.ST or op is Op.STB:
            vaddr = (regs.read(insn.rs1) + signed32(insn.imm)) & MASK32
            size = 4 if op is Op.ST else 1
            value = regs.read(insn.rs2) & (MASK32 if size == 4 else 0xFF)
            paddrs = self._store(vaddr, size, value)
            fx.writes.append(MemoryAccess(vaddr, paddrs, value))
            fx.regs_read = (insn.rs1, insn.rs2)
            return
        if op is Op.PUSH:
            sp = (regs.read(Reg.SP) - 4) & MASK32
            value = regs.read(insn.rs1)
            paddrs = self._store(sp, 4, value)
            regs.write(Reg.SP, sp)
            fx.writes.append(MemoryAccess(sp, paddrs, value))
            fx.regs_read = (insn.rs1, Reg.SP)
            return
        if op is Op.POP:
            sp = regs.read(Reg.SP)
            value, paddrs = self._load(sp, 4)
            regs.write(insn.rd, value)
            regs.write(Reg.SP, (sp + 4) & MASK32)
            fx.reads.append(MemoryAccess(sp, paddrs, value))
            fx.reg_written, fx.regs_read = insn.rd, (Reg.SP,)
            return

        if op in REG_ALU_OPS:
            a, b = regs.read(insn.rs1), regs.read(insn.rs2)
            regs.write(insn.rd, _alu(op, a, b))
            fx.reg_written, fx.regs_read = insn.rd, (insn.rs1, insn.rs2)
            return
        if op in IMM_ALU_OPS:
            a = regs.read(insn.rs1)
            if op is Op.NOT:
                result = (~a) & MASK32
            else:
                result = _alu(_IMM_TO_REG[op], a, insn.imm)
            regs.write(insn.rd, result)
            fx.reg_written, fx.regs_read = insn.rd, (insn.rs1,)
            return

        if op is Op.CMP or op is Op.CMPI:
            a = regs.read(insn.rs1)
            b = regs.read(insn.rs2) if op is Op.CMP else insn.imm
            self.flag_z = (a & MASK32) == (b & MASK32)
            self.flag_n = signed32(a) < signed32(b)
            fx.flags_written = True
            fx.regs_read = (insn.rs1, insn.rs2) if op is Op.CMP else (insn.rs1,)
            return

        if op is Op.JMP:
            fx.next_pc = insn.imm & MASK32
            return
        if op in COND_BRANCH_OPS:
            taken = _branch_taken(op, self.flag_z, self.flag_n)
            fx.flags_read = True
            fx.branch_taken = taken
            if taken:
                fx.next_pc = insn.imm & MASK32
            return
        if op is Op.CALL:
            regs.write(Reg.LR, fx.next_pc)
            fx.next_pc = insn.imm & MASK32
            fx.reg_written = Reg.LR
            return
        if op is Op.CALLR:
            regs.write(Reg.LR, fx.next_pc)
            fx.next_pc = regs.read(insn.rs1)
            fx.reg_written = Reg.LR
            fx.regs_read = (insn.rs1,)
            return
        if op is Op.JMPR:
            fx.next_pc = regs.read(insn.rs1)
            fx.regs_read = (insn.rs1,)
            return
        if op is Op.RET:
            fx.next_pc = regs.read(Reg.LR)
            fx.regs_read = (Reg.LR,)
            return

        if op is Op.SYSCALL:
            fx.syscall = True
            return

        raise InvalidInstruction(fx.pc, f"unimplemented opcode {op!r}")  # pragma: no cover


_IMM_TO_REG = {
    Op.ADDI: Op.ADD,
    Op.SUBI: Op.SUB,
    Op.MULI: Op.MUL,
    Op.ANDI: Op.AND,
    Op.ORI: Op.OR,
    Op.XORI: Op.XOR,
    Op.SHLI: Op.SHL,
    Op.SHRI: Op.SHR,
}


def _alu(op: Op, a: int, b: int) -> int:
    if op is Op.ADD:
        return (a + b) & MASK32
    if op is Op.SUB:
        return (a - b) & MASK32
    if op is Op.MUL:
        return (a * b) & MASK32
    if op is Op.AND:
        return a & b & MASK32
    if op is Op.OR:
        return (a | b) & MASK32
    if op is Op.XOR:
        return (a ^ b) & MASK32
    if op is Op.SHL:
        return (a << (b & 31)) & MASK32
    if op is Op.SHR:
        return (a & MASK32) >> (b & 31)
    raise AssertionError(f"not an ALU op: {op!r}")  # pragma: no cover


def _branch_taken(op: Op, z: bool, n: bool) -> bool:
    if op is Op.JZ:
        return z
    if op is Op.JNZ:
        return not z
    if op is Op.JLT:
        return n
    if op is Op.JGE:
        return not n
    if op is Op.JLE:
        return z or n
    if op is Op.JGT:
        return not z and not n
    raise AssertionError(f"not a branch op: {op!r}")  # pragma: no cover

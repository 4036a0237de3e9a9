"""A small two-pass assembler for the ISA.

Guest programs in this reproduction -- attack loaders, injected payloads,
benign workloads, JIT runtimes -- are written in assembly text and
assembled to raw bytes that the guest OS loader maps into memory.  Syntax:

.. code-block:: asm

    ; comments run to end of line
    .equ SYS_EXIT, 1          ; named constant
    start:
        movi r1, 10
    loop:
        subi r1, r1, 1
        cmpi r1, 0
        jnz  loop
        movi r0, SYS_EXIT
        syscall
        hlt
    message:
        .asciz "done"         ; also: .ascii, .byte, .word, .space

Labels resolve to absolute addresses (``base`` + offset), so a program
must be assembled for the virtual address it will be mapped at.  ``.word``
may reference labels, which is how guests embed pointers into data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import (
    COND_BRANCH_OPS,
    IMM_ALU_OPS,
    INSTRUCTION_SIZE,
    Instruction,
    Op,
    REG_ALU_OPS,
    encode,
)
from repro.isa.registers import Reg


class AssemblerError(Exception):
    """Raised for any syntax or semantic error in assembly source."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class Program:
    """The output of :func:`assemble`.

    :ivar code: the raw image (instructions and data interleaved).
    :ivar base: virtual address the image was assembled for.
    :ivar labels: label name -> absolute virtual address.
    :ivar entry: absolute address of the ``start`` label if present,
        else :attr:`base`.
    """

    code: bytes
    base: int
    labels: Dict[str, int] = field(default_factory=dict)

    @property
    def entry(self) -> int:
        return self.labels.get("start", self.base)

    def label(self, name: str) -> int:
        """Return the absolute address of *name* or raise ``KeyError``."""
        return self.labels[name]


_MEM_RE = re.compile(r"^\[\s*(\w+)\s*(?:([+-])\s*(\w+)\s*)?\]$")
_LABEL_RE = re.compile(r"^(\w+)\s*:\s*(.*)$")
_EQU_RE = re.compile(r"^(\w+)\s*,\s*(\S+)$")
_STRING_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"$')
_OFFSET_RE = re.compile(r"^(\w+)\s*([+-])\s*(\w+)$")

# (emitted later) pseudo-item kinds for the first pass
_Item = Tuple[int, str, object]  # (lineno, kind, payload)


def assemble(source: str, base: int = 0) -> Program:
    """Assemble *source* for load address *base* and return a :class:`Program`."""
    items, labels, equs = _first_pass(source, base)
    out = bytearray()
    symbols = dict(equs)
    symbols.update(labels)
    for lineno, kind, payload in items:
        if kind == "insn":
            mnemonic, operands = payload  # type: ignore[misc]
            insn = _build_instruction(lineno, mnemonic, operands, symbols)
            out += encode(insn)
        elif kind == "bytes":
            out += payload  # type: ignore[arg-type]
        elif kind == "words":
            for token in payload:  # type: ignore[union-attr]
                value = _resolve(lineno, token, symbols)
                out += (value & 0xFFFFFFFF).to_bytes(4, "little")
        elif kind == "bytevals":
            for token in payload:  # type: ignore[union-attr]
                value = _resolve(lineno, token, symbols)
                if not 0 <= value <= 0xFF:
                    raise AssemblerError(lineno, f".byte value {value} out of range")
                out.append(value)
        else:  # pragma: no cover - first pass emits only the kinds above
            raise AssemblerError(lineno, f"internal: unknown item kind {kind}")
    return Program(bytes(out), base, labels)


def _first_pass(source: str, base: int) -> Tuple[List[_Item], Dict[str, int], Dict[str, int]]:
    """Strip comments, collect labels/constants, and size every item.

    Each line's parse -- its label names, item and size -- depends on
    the line alone, so it is memoised on the raw line
    (:data:`_LINE_CACHE`): every program repeats the same prelude.  The
    checks that depend on the program (duplicate symbols) and the line
    number every item and error carries are applied per use.
    """
    items: List[_Item] = []
    labels: Dict[str, int] = {}
    equs: Dict[str, int] = {}
    offset = 0
    cache = _LINE_CACHE
    for lineno, raw in enumerate(source.splitlines(), start=1):
        parsed = cache.get(raw)
        if parsed is None:
            names, line = _peel_labels(_strip_comment(raw).strip())
        else:
            names, kind, payload, size = parsed
        for name in names:
            if name in labels or name in equs:
                raise AssemblerError(lineno, f"duplicate symbol {name!r}")
            labels[name] = base + offset
        if parsed is None:
            kind, payload, size = _parse_statement(lineno, line)
            if len(cache) >= _LINE_CACHE_SIZE:
                cache.clear()
            cache[raw] = (names, kind, payload, size)
        if kind == ".equ":
            equs[payload[0]] = payload[1]
        elif kind is not None:
            items.append((lineno, kind, payload))
        offset += size
    return items, labels, equs


#: Raw source line -> ``(label names, item kind, payload, size)`` of its
#: first-pass parse; the kind is None for a line without an item.
_LINE_CACHE: Dict[str, Tuple[Tuple[str, ...], Optional[str], object, int]] = {}
#: Entries kept before the cache starts over.
_LINE_CACHE_SIZE = 4096


def _peel_labels(line: str) -> Tuple[Tuple[str, ...], str]:
    """Split leading labels (``a: b: insn`` is legal) off a stripped
    line: their names and the rest of the line."""
    names = []
    while True:
        m = _LABEL_RE.match(line)
        if not m:
            return tuple(names), line
        names.append(m.group(1))
        line = m.group(2).strip()


def _parse_statement(lineno: int, line: str) -> Tuple[Optional[str], object, int]:
    """Parse what follows a line's labels: ``(item kind, payload, byte
    size)``, kind None for nothing and ``".equ"`` for a constant."""
    if not line:
        return None, None, 0
    if line.startswith("."):
        return _parse_directive(lineno, line)
    mnemonic, _, rest = line.partition(" ")
    operands = tuple(tok.strip() for tok in rest.split(",")) if rest.strip() else ()
    return "insn", (mnemonic.lower(), operands), INSTRUCTION_SIZE


def _strip_comment(line: str) -> str:
    """Remove ``;`` comments, honouring string literals."""
    if '"' not in line:
        return line.partition(";")[0]
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        if ch == ";" and not in_string:
            break
        out.append(ch)
    return "".join(out)


def _parse_directive(lineno: int, line: str) -> Tuple[Optional[str], object, int]:
    """Parse one directive: ``(item kind, payload, byte size)``."""
    directive, _, rest = line.partition(" ")
    directive = directive.lower()
    rest = rest.strip()
    if directive == ".equ":
        m = _EQU_RE.match(rest)
        if not m:
            raise AssemblerError(lineno, ".equ expects NAME, VALUE")
        return ".equ", (m.group(1), _parse_number(lineno, m.group(2))), 0
    if directive in (".ascii", ".asciz"):
        m = _STRING_RE.match(rest)
        if not m:
            raise AssemblerError(lineno, f"{directive} expects a quoted string")
        data = m.group(1).encode().decode("unicode_escape").encode("latin-1")
        if directive == ".asciz":
            data += b"\x00"
        return "bytes", data, len(data)
    if directive == ".space":
        n = _parse_number(lineno, rest)
        if n < 0:
            raise AssemblerError(lineno, ".space size must be non-negative")
        return "bytes", b"\x00" * n, n
    if directive == ".word":
        tokens = tuple(tok.strip() for tok in rest.split(",") if tok.strip())
        if not tokens:
            raise AssemblerError(lineno, ".word expects at least one value")
        return "words", tokens, 4 * len(tokens)
    if directive == ".byte":
        tokens = tuple(tok.strip() for tok in rest.split(",") if tok.strip())
        if not tokens:
            raise AssemblerError(lineno, ".byte expects at least one value")
        return "bytevals", tokens, len(tokens)
    raise AssemblerError(lineno, f"unknown directive {directive}")


def _parse_number(lineno: int, token: str) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(lineno, f"expected a number, got {token!r}") from None


def _resolve(lineno: int, token: str, symbols: Dict[str, int]) -> int:
    """Resolve *token*: a number, a symbol, or symbol+/-constant."""
    token = token.strip()
    m = _OFFSET_RE.match(token)
    if m:
        left = _resolve(lineno, m.group(1), symbols)
        right = _resolve(lineno, m.group(3), symbols)
        return left + right if m.group(2) == "+" else left - right
    if token in symbols:
        return symbols[token]
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(lineno, f"undefined symbol {token!r}") from None


def _reg(lineno: int, token: str) -> Reg:
    try:
        return Reg.parse(token)
    except ValueError as exc:
        raise AssemblerError(lineno, str(exc)) from None


def _mem_operand(lineno: int, token: str, symbols: Dict[str, int]) -> Tuple[Reg, int]:
    """Parse ``[reg]``, ``[reg+disp]`` or ``[reg-disp]``."""
    m = _MEM_RE.match(token.strip())
    if not m:
        raise AssemblerError(lineno, f"bad memory operand {token!r}")
    reg = _reg(lineno, m.group(1))
    disp = 0
    if m.group(3) is not None:
        disp = _resolve(lineno, m.group(3), symbols)
        if m.group(2) == "-":
            disp = -disp
    return reg, disp & 0xFFFFFFFF


def _build_instruction(
    lineno: int,
    mnemonic: str,
    operands: Tuple[str, ...],
    symbols: Dict[str, int],
) -> Instruction:
    """Turn one parsed source line into an :class:`Instruction`."""
    try:
        op = Op[mnemonic.upper()]
    except KeyError:
        raise AssemblerError(lineno, f"unknown mnemonic {mnemonic!r}") from None

    def want(n: int) -> None:
        if len(operands) != n:
            raise AssemblerError(
                lineno, f"{mnemonic} expects {n} operand(s), got {len(operands)}"
            )

    if op in (Op.NOP, Op.HLT, Op.RET, Op.SYSCALL):
        want(0)
        return Instruction(op)
    if op is Op.MOV:
        want(2)
        return Instruction(op, rd=_reg(lineno, operands[0]), rs1=_reg(lineno, operands[1]))
    if op is Op.MOVI:
        want(2)
        return Instruction(
            op, rd=_reg(lineno, operands[0]), imm=_resolve(lineno, operands[1], symbols)
        )
    if op in (Op.LD, Op.LDB):
        want(2)
        reg, disp = _mem_operand(lineno, operands[1], symbols)
        return Instruction(op, rd=_reg(lineno, operands[0]), rs1=reg, imm=disp)
    if op in (Op.ST, Op.STB):
        want(2)
        reg, disp = _mem_operand(lineno, operands[0], symbols)
        return Instruction(op, rs1=reg, rs2=_reg(lineno, operands[1]), imm=disp)
    if op is Op.PUSH:
        want(1)
        return Instruction(op, rs1=_reg(lineno, operands[0]))
    if op is Op.POP:
        want(1)
        return Instruction(op, rd=_reg(lineno, operands[0]))
    if op in REG_ALU_OPS:
        want(3)
        return Instruction(
            op,
            rd=_reg(lineno, operands[0]),
            rs1=_reg(lineno, operands[1]),
            rs2=_reg(lineno, operands[2]),
        )
    if op is Op.NOT:
        want(2)
        return Instruction(op, rd=_reg(lineno, operands[0]), rs1=_reg(lineno, operands[1]))
    if op in IMM_ALU_OPS:
        want(3)
        return Instruction(
            op,
            rd=_reg(lineno, operands[0]),
            rs1=_reg(lineno, operands[1]),
            imm=_resolve(lineno, operands[2], symbols),
        )
    if op is Op.CMP:
        want(2)
        return Instruction(op, rs1=_reg(lineno, operands[0]), rs2=_reg(lineno, operands[1]))
    if op is Op.CMPI:
        want(2)
        return Instruction(
            op, rs1=_reg(lineno, operands[0]), imm=_resolve(lineno, operands[1], symbols)
        )
    if op in COND_BRANCH_OPS or op in (Op.JMP, Op.CALL):
        want(1)
        return Instruction(op, imm=_resolve(lineno, operands[0], symbols))
    if op in (Op.CALLR, Op.JMPR):
        want(1)
        return Instruction(op, rs1=_reg(lineno, operands[0]))
    raise AssemblerError(lineno, f"unhandled mnemonic {mnemonic!r}")  # pragma: no cover

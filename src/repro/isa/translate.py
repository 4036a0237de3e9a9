"""Basic-block translation cache: the QEMU translated-block analog.

The interpreter (:meth:`CPU.step`) pays a fetch translation per byte, a
decode-cache probe, an if/elif dispatch and an effects record *per
retired instruction*.  This module translates each
straight-line run of guest code -- ending at the first branch, syscall,
``HLT``, undecodable word, or page boundary -- **once**, into a
:class:`TranslatedBlock` of per-instruction specialized closures.  An
instruction whose 8 bytes straddle two guest pages gets a block of its
own, fetched from both pages (QEMU's cross-page translated block):

* the decode is resolved at translation time (no per-step cache probe);
* the ALU operation and operand register indices are bound into each
  closure (no opcode dispatch at execution time);
* page-local load/store fast paths are precomputed (one MMU translation
  per access, word-wide physical I/O when the access cannot span pages).

Executing a block is then one closure call per instruction plus a few
per-block bookkeeping operations, which is where the bulk of the
uninstrumented path's speedup comes from.

**Cache keying and invalidation.**  Blocks are cached per address space
(the MMU object), keyed by ``(physical page, page code-version)`` and
the virtual start pc.  The translator *watches* every physical page it
translates from (:meth:`PhysicalMemory.watch_code_page`); any write into
a watched page -- an instruction store, a kernel ``NtWriteVirtualMemory``
into a hollowed victim, a DMA-style device copy, or frame recycling --
bumps the page's code version, so the next lookup discards every block
decoded from the stale bytes.  Injected code is *freshly written memory*,
which makes this invalidation the threat model rather than an edge case:
each code-writing attack in the suite doubles as an invalidation test.

A store *inside* a block re-checks its own page's version immediately,
so a block that overwrites itself stops at the exact store that modified
it (reason ``"smc"``), with ``pc``/``instret`` pointing at the next
instruction -- precisely what the interpreter would have retired.  A
page-straddling block watches its second page too, and every entry into
it (looked up or chained) re-checks that page's FETCH translation and
code version (:meth:`TranslatedBlock.tail_valid`); a second page no
longer mapped executable raises the interpreter's ``PageFault`` with
nothing retired.

**Exactness contract.**  Block execution is budget-limited: the machine
passes the remaining slice quantum, and a block never retires more than
that, so quantum expiry, watchdog instruction budgets, and journaled
``FaultPlan`` instret triggers all fire at the same retirement count as
instruction-at-a-time execution.  Guest faults restore ``pc`` and
``instret`` to the faulting instruction before propagating.  See
``docs/block_translation.md``.

**Self-loops.**  Direct jumps chain, each hop revalidated.  The one
chain that needs no revalidation is a *self-loop*: a pure block (no
data memory), not page-straddling, whose direct ``JMP``/``Jcc``
targets its own start -- a compute loop such as ``muli/addi/subi/
cmpi/jnz``.  Such a block runs as many whole iterations in place as
the budget covers (:meth:`TranslatedBlock.iterate` gives the exactness
argument); a remainder smaller than one iteration runs through the
dispatcher as before.

**The translated-tainted tier.**  Once taint exists, the machine used to
drop to the per-instruction interpreter.  :meth:`BlockTranslator.run_taint`
instead executes the same cached blocks, each one of two ways:

* **replay** -- a *pure* block (no data memory) on a clean register
  bank, with no pending control window, no taint budget and budget
  left for the whole block, runs its plain closures and replays the
  counter delta its record run recorded
  (:meth:`BlockTranslator._replay`); a self-loop replays it once per
  iteration it runs in place.  With no valid record the block makes a
  *record run* instead: each instruction's plain closure plus its
  fetch step, all a fused run of it could do there;
* **fused** -- every other block runs its *fused taint closures*
  (:func:`_compile_taint`), compiled the first time the block runs
  fused.  Each closure does the instruction's architectural work, then
  its fetch step, then the tracker's all-clean gate (bank clean, no
  pending control window, data bytes on clean shadow pages -- one
  membership probe against the live dirty-page index), and only on a
  gate miss the full Table I slow path, mirroring
  :meth:`~repro.taint.tracker.TaintTracker.on_insn_exec` bit-for-bit.

The fetch step is the one place fetch cleanliness is decided, per
instruction and byte-precisely.  It is the interpreter's step 1 --
append the process tag to each tainted fetch byte, union them into
``insn_prov`` (:func:`_fetch_scan`).  A fused closure memoises it
(:func:`_compile_fetch`) on the instruction's own 24 shadow-code bytes
(3 per fetch byte) plus the process tag, so a steady-state loop pays
one slice compare per instruction whether its bytes are clean or
file-tagged (every image FAROS loads is: ``Kernel.spawn`` reads it
through the file hook).  Only a change to those codes forces a rescan,
not taint landing beside them; a store that writes the bytes also
rewrites the watched code page and ends the block at that store
(``"smc"``).  The replay record is keyed on the block's fetch codes
plus the process tag.  A fused load memoises its data side the same
way (interpreter step 2: union the read bytes' provenance, append the
process tag), keyed on the read bytes' own shadow codes plus the
process tag; a page-straddling load scans byte by byte.
Page-straddling instructions run like any other; no retirement steps
through the interpreter.  See ``docs/taint_model.md`` for the dispatch
picture.

Blocks bind a specific CPU's register file and a specific MMU at
translation time; a :class:`BlockTranslator` therefore belongs to one
machine, and its cache is keyed by the MMU object so a block can only
ever run under the address space it was translated for.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.isa.cpu import CPU, AccessKind, MemoryAccess, cached_decode
from repro.isa.errors import DecodeError, GuestFault, InvalidInstruction
from repro.isa.instructions import (
    COND_BRANCH_OPS,
    IMM_ALU_OPS,
    INSTRUCTION_SIZE,
    Instruction,
    Op,
    REG_ALU_OPS,
    signed32,
)
from repro.isa.memory import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory
from repro.isa.registers import MASK32, Reg

_PAGE_MASK = PAGE_SIZE - 1
#: Highest page offset at which a 4-byte access cannot span pages.
_WORD_FAST_LIMIT = PAGE_SIZE - 4
#: Highest page offset at which a whole instruction fits in the page.
_FETCH_FAST_LIMIT = PAGE_SIZE - INSTRUCTION_SIZE

_SP = int(Reg.SP)
_LR = int(Reg.LR)
#: Enum members as module constants: a class attribute load on an enum
#: costs ~100 ns, and chain hops translate every jump target.
_FETCH = AccessKind.FETCH
_SIGN_BIT = 0x80000000
_WRAP = 0x100000000

#: Opcodes that end a block with a control transfer.
_JUMP_OPS = frozenset(COND_BRANCH_OPS) | {Op.JMP, Op.JMPR, Op.CALL, Op.CALLR, Op.RET}

#: Max direct-jump successors remembered per block.
_CHAIN_LIMIT = 8

# --- lazily-imported taint runtime -------------------------------------------
#
# The translated-tainted tier fuses Table I propagation into block
# closures, which needs a few names from ``repro.taint``.  They cannot be
# imported at module level: ``repro.taint.tracker`` imports
# ``repro.emulator.plugins``, whose package ``__init__`` imports the
# machine, which imports *this* module -- a cycle whichever end loads
# first.  Taint compilation only ever happens once taint exists, so the
# names load on first use instead.

SHADOW_PAGE_SHIFT: Optional[int] = None
_EMPTY_PROV: Tuple = ()
_LoadObservation = None

#: The shadow codes of one clean instruction: 3 zero bytes per fetch byte.
_CLEAN_CODES = bytes(3 * INSTRUCTION_SIZE)


def _load_taint_runtime() -> None:
    global SHADOW_PAGE_SHIFT, _EMPTY_PROV, _LoadObservation
    if SHADOW_PAGE_SHIFT is None:
        from repro.taint.provenance import EMPTY
        from repro.taint.shadow import SHADOW_PAGE_SHIFT as _SHIFT
        from repro.taint.tracker import LoadObservation

        SHADOW_PAGE_SHIFT = _SHIFT
        _EMPTY_PROV = EMPTY
        _LoadObservation = LoadObservation


class TranslatedBlock:
    """One translated straight-line run of guest instructions.

    ``body`` holds one closure per non-terminating instruction; a store
    closure returns ``True`` so the executor knows to re-check the code
    version.  ``kind`` says how the block ends: ``"jump"`` (a control
    transfer, executed by the ``term`` closure), ``"syscall"``,
    ``"halt"``, or ``"fall"`` (page boundary / undecodable successor --
    execution continues at the next pc with a fresh lookup).

    A block with a ``tail`` holds one instruction whose bytes straddle
    two guest pages: ``start_paddr`` is its first byte, on ``phys_page``,
    and ``tail`` is ``(vaddr, paddr, code_version)`` of the first byte
    on the second page.
    """

    __slots__ = (
        "cpu",
        "start_pc",
        "start_paddr",
        "phys_page",
        "version",
        "tail",
        "body",
        "n_body",
        "n_insns",
        "kind",
        "term",
        "pure",
        "self_loop",
        "chain",
        "exec_count",
        "retired",
        "taint_slow",
        "_code_version",
        "insns",
        "term_insn",
        "taint_body",
        "taint_term",
        "taint_ctx",
        "fetch_bytes",
        "replay",
    )

    def __init__(
        self,
        cpu: CPU,
        start_pc: int,
        start_paddr: int,
        version: int,
        body: List[Callable[[], Optional[bool]]],
        kind: str,
        term: Optional[Callable[[], int]],
        insns: Optional[List[Instruction]] = None,
        term_insn: Optional[Instruction] = None,
        tail: Optional[Tuple[int, int, int]] = None,
    ) -> None:
        self.cpu = cpu
        self.start_pc = start_pc
        self.start_paddr = start_paddr
        self.phys_page = start_paddr >> PAGE_SHIFT
        self.version = version
        self.tail = tail
        self.body = body
        self.n_body = len(body)
        #: Total instructions in the block, terminator included.
        self.n_insns = self.n_body + (1 if kind != "fall" else 0)
        self.kind = kind
        self.term = term
        # A block with no memory operations can neither fault nor modify
        # code, so it runs on an unindexed loop when the budget allows.
        self.pure = not any(getattr(fn, "is_mem", False) for fn in body)
        #: A pure, single-page block whose direct branch targets its own
        #: start: it iterates in place (:meth:`iterate`).
        self.self_loop = (
            self.pure
            and tail is None
            and term_insn is not None
            and (term_insn.op is Op.JMP or term_insn.op in COND_BRANCH_OPS)
            and term_insn.imm & MASK32 == start_pc
        )
        self.chain: Dict[int, "TranslatedBlock"] = {}
        self.exec_count = 0
        self.retired = 0
        #: Slow retirements on the taint tier (:meth:`execute_taint` and
        #: :meth:`BlockTranslator._replay`), the per-block share of the
        #: tracker's ``slow_retirements``.
        self.taint_slow = 0
        self._code_version = cpu.memory.code_version
        #: The decoded instructions behind ``body``/``term`` -- kept so
        #: the taint tier can compile its fused closures lazily.
        self.insns = insns
        self.term_insn = term_insn
        self.taint_body: Optional[List[Callable]] = None
        self.taint_term: Optional[Callable] = None
        #: The block-taint context the block is bound to
        #: (:meth:`bind_taint`; fetch memos and replay records are per
        #: tracker).
        self.taint_ctx = None
        #: The block's fetch byte addresses in fetch order: a range, or a
        #: straddling instruction's two runs as a tuple.  Set by
        #: :meth:`bind_taint`.
        self.fetch_bytes: Sequence[int] = ()
        #: The block-replay record (:meth:`BlockTranslator._replay`):
        #: ``(fetch codes, slow retirements, interner lookups, process
        #: tag)`` of a record run that moved nothing but counters.
        self.replay: Optional[Tuple] = None

    def tail_valid(self) -> bool:
        """Whether a straddling block's second page still holds the bytes
        it was translated from: the same FETCH translation and the same
        code version.

        Raises the :class:`PageFault` ``cpu.step`` raises when the page
        is no longer mapped executable.
        """
        vaddr, paddr, version = self.tail
        return (
            self.cpu.mmu.translate(vaddr, _FETCH) == paddr
            and self._code_version(paddr >> PAGE_SHIFT) == version
        )

    def execute(self, budget: int) -> str:
        """Run up to *budget* instructions of this block.

        Returns the reason execution stopped: the block ``kind`` when it
        ran to completion, ``"smc"`` if a store invalidated the block's
        own page, or ``"fall"`` on a budget cut or fall-through end.
        On return (or guest fault), ``cpu.pc`` and ``cpu.instret`` are
        exactly where instruction-at-a-time execution would have left
        them.
        """
        cpu = self.cpu
        n = self.n_body
        i = 0
        if self.pure and budget >= n:
            for fn in self.body:
                fn()
            i = n
        else:
            body = self.body
            limit = n if budget >= n else budget
            code_version = self._code_version
            page = self.phys_page
            version = self.version
            try:
                while i < limit:
                    if body[i]():
                        i += 1
                        if code_version(page) != version:
                            cpu.pc = (self.start_pc + i * INSTRUCTION_SIZE) & MASK32
                            cpu.instret += i
                            self.exec_count += 1
                            self.retired += i
                            return "smc"
                    else:
                        i += 1
            except GuestFault:
                # Precise fault: state points at the faulting instruction.
                cpu.pc = (self.start_pc + i * INSTRUCTION_SIZE) & MASK32
                cpu.instret += i
                self.exec_count += 1
                self.retired += i
                raise
        kind = self.kind
        if i == n and budget > n and kind != "fall":
            # Retire the terminator too.
            if kind == "jump":
                cpu.pc = self.term()
            else:
                cpu.pc = (self.start_pc + (n + 1) * INSTRUCTION_SIZE) & MASK32
                if kind == "halt":
                    cpu.halted = True
            cpu.instret += n + 1
            self.exec_count += 1
            self.retired += n + 1
            return kind
        cpu.pc = (self.start_pc + i * INSTRUCTION_SIZE) & MASK32
        cpu.instret += i
        self.exec_count += 1
        self.retired += i
        return "fall"

    def iterate(self, budget: int) -> int:
        """Run whole iterations of a self-loop in place; return how many.

        Iterates while *budget* covers another whole iteration and the
        branch is taken, each iteration being the body closures plus
        ``term()``, with no lookup, chain probe or MMU translation in
        between.  On return ``cpu.pc`` is the loop head (budget spent)
        or the fall-through pc, and ``exec_count``/``retired`` have
        advanced per iteration, as if each had been dispatched.

        Exact because nothing a dispatcher would check between two
        iterations can change inside the loop:

        * a pure block makes no store, so it cannot write a code page
          (no SMC) or change a shadow code, and it cannot fault;
        * it makes no syscall, so no remap happens, and events are
          delivered only between slices;
        * so the FETCH translation, the code version and the block
          looked up for the loop head would all be this block again.

        Caller contract: ``self_loop`` holds, ``cpu.pc`` is
        ``start_pc`` and *budget* covers at least one iteration.
        """
        body = self.body
        term = self.term
        start = self.start_pc
        n = self.n_insns
        limit = budget // n
        k = 0
        pc = start
        while pc == start and k < limit:
            for fn in body:
                fn()
            pc = term()
            k += 1
        cpu = self.cpu
        cpu.pc = pc
        cpu.instret += k * n
        self.exec_count += k
        self.retired += k * n
        return k

    # -- the translated-tainted tier ---------------------------------------------

    def bind_taint(self, ctx) -> None:
        """Bind the block to *ctx*'s tracker: set its fetch bytes and
        forget the replay record and the fused closures.

        Both hold one tracker's shadow codes and interner counts (the
        closures in their fetch memos), so a block reached through
        another tracker's context starts afresh.
        """
        start = self.start_paddr
        if self.tail is None:
            self.fetch_bytes = range(start, start + self.n_insns * INSTRUCTION_SIZE)
        else:
            head = PAGE_SIZE - (start & _PAGE_MASK)
            tail_paddr = self.tail[1]
            self.fetch_bytes = tuple(range(start, start + head)) + tuple(
                range(tail_paddr, tail_paddr + INSTRUCTION_SIZE - head)
            )
        self.replay = None
        self.taint_body = None
        self.taint_term = None
        self.taint_ctx = ctx

    def compile_taint(self) -> None:
        """Compile the fused taint closures, the first time the block
        runs fused since :meth:`bind_taint`.

        Compilation is deferred past plain translation and past binding:
        most blocks only ever run uninstrumented, and a pure block on a
        clean bank records and replays instead
        (:meth:`BlockTranslator._replay`), so most taint-tier blocks
        never need them.  The register-only closures wrap the block's
        plain closures.
        """
        fetch_bytes = self.fetch_bytes
        cpu = self.cpu
        body = self.body
        taint_body: List[Callable] = []
        pc = self.start_pc
        for i, insn in enumerate(self.insns):
            insn_bytes = fetch_bytes[i * INSTRUCTION_SIZE : (i + 1) * INSTRUCTION_SIZE]
            taint_body.append(_compile_taint(insn, cpu, pc, i, insn_bytes, body[i]))
            pc = (pc + INSTRUCTION_SIZE) & MASK32
        # Only "fall" blocks lack a terminator, and they never run one.
        self.taint_term = (
            _compile_taint_term(
                self.term_insn,
                _compile_fetch(fetch_bytes[self.n_body * INSTRUCTION_SIZE :]),
            )
            if self.term_insn is not None
            else None
        )
        self.taint_body = taint_body

    def execute_taint(self, budget: int, ctx) -> str:
        """Run up to *budget* instructions with fused Table I propagation.

        The taint-tier twin of :meth:`execute`, with the same exactness
        contract (budget cuts, precise guest faults, ``"smc"`` stops --
        a store that writes this block's fetch bytes, tainting them or
        not, rewrites its watched code page and stops the block there).
        A :class:`~repro.faults.errors.TaintBudgetExceeded` out of a
        slow arm propagates with *post*-instruction state -- the
        interpreter raises after the instruction retired, and the
        differential suite holds the two paths to the same tick.

        Caller contract: the block is bound to *ctx* and
        :meth:`compile_taint` ran since.  Each fused closure decides its
        own fetch bytes' cleanliness through its memoised fetch step,
        whatever the surrounding shadow page holds.

        Stats contract: every retirement here is accounted on the
        tracker's counters with the same fast/slow split the interpreter
        would produce, flushed in bulk on every exit path.
        """
        cpu = self.cpu
        n = self.n_body
        stats = ctx.stats
        slow0 = stats.slow_retirements
        start_pc = self.start_pc
        retired = 0
        try:
            i = 0
            taint_body = self.taint_body
            limit = n if budget >= n else budget
            code_version = self._code_version
            page = self.phys_page
            version = self.version
            try:
                while i < limit:
                    stored = taint_body[i](ctx)
                    i += 1
                    if stored and code_version(page) != version:
                        retired = i
                        cpu.pc = (start_pc + i * INSTRUCTION_SIZE) & MASK32
                        cpu.instret += i
                        return "smc"
            except GuestFault:
                # Precise fault: the faulting instruction did not retire
                # and made no taint mutations (every fused closure does
                # its architectural work first).
                retired = i
                cpu.pc = (start_pc + i * INSTRUCTION_SIZE) & MASK32
                cpu.instret += i
                raise
            except Exception:
                # Anything else out of a slow arm -- a taint-budget trip,
                # tag-space exhaustion, a listener error -- happens
                # *after* the architectural work, and the interpreter
                # counts such instructions as retired (``on_insn_exec``
                # accounts first, then works).
                i += 1
                retired = i
                cpu.pc = (start_pc + i * INSTRUCTION_SIZE) & MASK32
                cpu.instret += i
                raise
            kind = self.kind
            if i == n and budget > n and kind != "fall":
                if kind == "jump":
                    cpu.pc = self.term()
                else:
                    cpu.pc = (start_pc + (n + 1) * INSTRUCTION_SIZE) & MASK32
                    if kind == "halt":
                        cpu.halted = True
                cpu.instret += n + 1
                retired = n + 1
                # May raise a taint-budget trip: post-instruction state
                # is already in place, exactly as the interpreter leaves
                # it after the terminator retires.
                self.taint_term(ctx)
                return kind
            cpu.pc = (start_pc + i * INSTRUCTION_SIZE) & MASK32
            cpu.instret += i
            retired = i
            return "fall"
        finally:
            slow = stats.slow_retirements - slow0
            self.exec_count += 1
            self.retired += retired
            self.taint_slow += slow
            stats.instructions += retired
            stats.fast_retirements += retired - slow


def _mem(fn: Callable) -> Callable:
    """Tag a closure as performing a data-memory access."""
    fn.is_mem = True
    return fn


def _compile_straight(insn: Instruction, cpu: CPU) -> Callable[[], Optional[bool]]:
    """Compile one non-terminating instruction into a closure.

    Registers, immediates, and the MMU/memory entry points are bound
    now; executing the closure performs only the instruction's work.
    Store closures return ``True`` (see :meth:`TranslatedBlock.execute`);
    everything else returns ``None``.
    """
    op = insn.op
    v = cpu.regs._values
    rd = int(insn.rd)
    rs1 = int(insn.rs1)
    rs2 = int(insn.rs2)
    imm = insn.imm & MASK32

    if op is Op.NOP:
        def nop() -> None:
            return None
        return nop
    if op is Op.MOV:
        def mov() -> None:
            v[rd] = v[rs1]
        return mov
    if op is Op.MOVI:
        def movi() -> None:
            v[rd] = imm
        return movi

    if op in (Op.LD, Op.LDB, Op.ST, Op.STB, Op.PUSH, Op.POP):
        disp = signed32(insn.imm)
        translate = cpu.mmu.translate
        memory = cpu.memory
        read_word = memory.read_word
        read_byte = memory.read_byte
        write_word = memory.write_word
        write_byte = memory.write_byte
        load_slow = cpu._load
        store_slow = cpu._store
        READ = AccessKind.READ
        WRITE = AccessKind.WRITE

        if op is Op.LD:
            @_mem
            def ld() -> None:
                vaddr = (v[rs1] + disp) & MASK32
                if (vaddr & _PAGE_MASK) <= _WORD_FAST_LIMIT:
                    v[rd] = read_word(translate(vaddr, READ))
                else:
                    v[rd] = load_slow(vaddr, 4)[0]
            return ld
        if op is Op.LDB:
            @_mem
            def ldb() -> None:
                v[rd] = read_byte(translate((v[rs1] + disp) & MASK32, READ))
            return ldb
        if op is Op.ST:
            @_mem
            def st() -> bool:
                vaddr = (v[rs1] + disp) & MASK32
                if (vaddr & _PAGE_MASK) <= _WORD_FAST_LIMIT:
                    write_word(translate(vaddr, WRITE), v[rs2])
                else:
                    store_slow(vaddr, 4, v[rs2])
                return True
            return st
        if op is Op.STB:
            @_mem
            def stb() -> bool:
                write_byte(translate((v[rs1] + disp) & MASK32, WRITE), v[rs2] & 0xFF)
                return True
            return stb
        if op is Op.PUSH:
            @_mem
            def push() -> bool:
                sp = (v[_SP] - 4) & MASK32
                if (sp & _PAGE_MASK) <= _WORD_FAST_LIMIT:
                    write_word(translate(sp, WRITE), v[rs1])
                else:
                    store_slow(sp, 4, v[rs1])
                v[_SP] = sp
                return True
            return push
        # POP
        @_mem
        def pop() -> None:
            sp = v[_SP]
            if (sp & _PAGE_MASK) <= _WORD_FAST_LIMIT:
                v[rd] = read_word(translate(sp, READ))
            else:
                v[rd] = load_slow(sp, 4)[0]
            v[_SP] = (sp + 4) & MASK32
        return pop

    # Register-file values are invariantly masked to 32 bits (every write
    # below re-masks where the operation can overflow), so AND/OR/XOR/SHR
    # results need no extra masking.
    if op is Op.ADD:
        def add() -> None:
            v[rd] = (v[rs1] + v[rs2]) & MASK32
        return add
    if op is Op.SUB:
        def sub() -> None:
            v[rd] = (v[rs1] - v[rs2]) & MASK32
        return sub
    if op is Op.MUL:
        def mul() -> None:
            v[rd] = (v[rs1] * v[rs2]) & MASK32
        return mul
    if op is Op.AND:
        def and_() -> None:
            v[rd] = v[rs1] & v[rs2]
        return and_
    if op is Op.OR:
        def or_() -> None:
            v[rd] = v[rs1] | v[rs2]
        return or_
    if op is Op.XOR:
        def xor() -> None:
            v[rd] = v[rs1] ^ v[rs2]
        return xor
    if op is Op.SHL:
        def shl() -> None:
            v[rd] = (v[rs1] << (v[rs2] & 31)) & MASK32
        return shl
    if op is Op.SHR:
        def shr() -> None:
            v[rd] = v[rs1] >> (v[rs2] & 31)
        return shr

    if op is Op.ADDI:
        def addi() -> None:
            v[rd] = (v[rs1] + imm) & MASK32
        return addi
    if op is Op.SUBI:
        def subi() -> None:
            v[rd] = (v[rs1] - imm) & MASK32
        return subi
    if op is Op.MULI:
        def muli() -> None:
            v[rd] = (v[rs1] * imm) & MASK32
        return muli
    if op is Op.ANDI:
        def andi() -> None:
            v[rd] = v[rs1] & imm
        return andi
    if op is Op.ORI:
        def ori() -> None:
            v[rd] = v[rs1] | imm
        return ori
    if op is Op.XORI:
        def xori() -> None:
            v[rd] = v[rs1] ^ imm
        return xori
    if op is Op.SHLI:
        shift = imm & 31

        def shli() -> None:
            v[rd] = (v[rs1] << shift) & MASK32
        return shli
    if op is Op.SHRI:
        shift = imm & 31

        def shri() -> None:
            v[rd] = v[rs1] >> shift
        return shri
    if op is Op.NOT:
        def not_() -> None:
            v[rd] = (~v[rs1]) & MASK32
        return not_

    if op is Op.CMP:
        def cmp_() -> None:
            a = v[rs1]
            b = v[rs2]
            cpu.flag_z = a == b
            cpu.flag_n = (a - _WRAP if a & _SIGN_BIT else a) < (
                b - _WRAP if b & _SIGN_BIT else b
            )
        return cmp_
    if op is Op.CMPI:
        sb = signed32(insn.imm)

        def cmpi() -> None:
            a = v[rs1]
            cpu.flag_z = a == imm
            cpu.flag_n = (a - _WRAP if a & _SIGN_BIT else a) < sb
        return cmpi

    raise AssertionError(f"not a straight-line op: {op!r}")  # pragma: no cover


def _compile_term(insn: Instruction, cpu: CPU, fall_pc: int) -> Callable[[], int]:
    """Compile a control-transfer terminator into a next-pc closure."""
    op = insn.op
    v = cpu.regs._values
    rs1 = int(insn.rs1)
    target = insn.imm & MASK32

    if op is Op.JMP:
        return lambda: target
    if op is Op.JZ:
        return lambda: target if cpu.flag_z else fall_pc
    if op is Op.JNZ:
        return lambda: fall_pc if cpu.flag_z else target
    if op is Op.JLT:
        return lambda: target if cpu.flag_n else fall_pc
    if op is Op.JGE:
        return lambda: fall_pc if cpu.flag_n else target
    if op is Op.JLE:
        return lambda: target if (cpu.flag_z or cpu.flag_n) else fall_pc
    if op is Op.JGT:
        return lambda: fall_pc if (cpu.flag_z or cpu.flag_n) else target
    if op is Op.CALL:
        def call() -> int:
            v[_LR] = fall_pc
            return target
        return call
    if op is Op.CALLR:
        def callr() -> int:
            v[_LR] = fall_pc
            return v[rs1]
        return callr
    if op is Op.JMPR:
        return lambda: v[rs1]
    if op is Op.RET:
        return lambda: v[_LR]
    raise AssertionError(f"not a terminator op: {op!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# the translated-tainted tier: fused Table I closures
# ---------------------------------------------------------------------------
#
# Every fused closure must reproduce TaintTracker.on_insn_exec *exactly*
# for its instruction shape -- same shadow/bank mutations, same interner
# call sequence, same stats splits, same listener observations at the
# same machine tick (tests/taint/test_differential.py compares them all
# bit-for-bit).  Every closure calls its memoised fetch step
# (:func:`_compile_fetch`, interpreter step 1) before the all-clean
# gate: clean fetch bytes leave the gate to decide, tainted ones fail it
# outright.  Closures do their architectural work *first*, so a guest
# fault leaves both machine and taint state exactly pre-instruction.


def _fetch_codes(pages: Dict, paddrs: Sequence[int]) -> bytearray:
    """The shadow codes of fetch bytes *paddrs*, 3 bytes per address in
    fetch order, from the live shadow page table *pages* (absent page:
    code 0, clean).  A range lies on one shadow page (a guest page never
    straddles one): one slice.  A straddling instruction's tuple of two
    runs reads byte by byte.
    """
    shift = SHADOW_PAGE_SHIFT
    if type(paddrs) is range:
        first = paddrs[0]
        page = pages.get(first >> shift)
        if page is None:
            return bytearray(3 * len(paddrs))
        a3 = (first - (first >> shift << shift)) * 3
        return page.tags[a3 : a3 + 3 * len(paddrs)]
    codes = bytearray()
    for paddr in paddrs:
        page = pages.get(paddr >> shift)
        off = (paddr - (paddr >> shift << shift)) * 3
        codes += page.tags[off : off + 3] if page is not None else bytes(3)
    return codes


def _compile_fetch(paddrs: Sequence[int]) -> Callable:
    """Interpreter step 1 for the instruction fetched from *paddrs* (its
    8 physical byte addresses, in fetch order), memoised.

    This is the taint tier's only fetch-cleanliness decision.  The
    closure takes the slice's context and returns ``None`` when the
    instruction's own fetch bytes are clean -- byte-precisely, whatever
    else their shadow page holds: step 1 collects nothing and the
    all-clean gate may still pass.  Otherwise it enters the slow path in
    interpreter order -- count the slow retirement, mint the process
    tag, then :func:`_fetch_scan` -- and returns ``insn_prov``.

    The memo is keyed by the bytes' own 24 shadow-code bytes
    (:func:`_fetch_codes`; all zero means clean) and the process tag,
    compared by value (``TagStore.process_tag`` returns a fresh ``Tag``
    per call).  It is recorded only after a scan that changed no code
    (made no process-tag append), and such a scan repeats identically
    while the key holds: a code names the same provenance list for the
    shadow's whole life (its code table only grows), and the interner
    never evicts, so every memoised lookup in it would hit.  A memo hit
    returns the cached ``insn_prov`` and adds the recorded lookup count
    to ``interner.hits``.  Shadow state, interner counters, stats and
    the process-tag mint order stay bit-identical to
    :meth:`~repro.taint.tracker.TaintTracker.on_insn_exec`.
    """
    memo: List = [None, None, None, 0]  # codes, process tag, insn_prov, lookups

    def fetch(ctx):
        codes = _fetch_codes(ctx.dirty_pages, paddrs)
        stats = ctx.stats
        if codes == memo[0]:
            stats.slow_retirements += 1
            tag = ctx.get_proc_tag()
            if tag is memo[1] or tag == memo[1]:
                memo[1] = tag  # later compares in this slice are identity
                ctx.interner.hits += memo[3]
                return memo[2]
        elif codes == _CLEAN_CODES:
            return None
        else:
            stats.slow_retirements += 1
            tag = ctx.get_proc_tag()
        interner = ctx.interner
        lookups = interner.hits + interner.misses
        appends = stats.process_tag_appends
        insn_prov = _fetch_scan(ctx, paddrs, codes, tag)
        if stats.process_tag_appends == appends:
            lookups = interner.hits + interner.misses - lookups
            memo[:] = bytes(codes), tag, insn_prov, lookups
        return insn_prov

    return fetch


def _fetch_scan(ctx, paddrs: Sequence[int], codes: bytearray, tag) -> Tuple:
    """The scan of interpreter step 1: append *tag* to each tainted
    fetch byte (*codes* are their shadow codes) and union the bytes'
    provenance into ``insn_prov``, which it returns.

    Bytes that are one run on one shadow page with one code (every
    file-tagged image) take the per-byte loop's work in bulk: one
    memoised ``append``, the 7 interner hits its repeats would score and
    one ``set_range``.  Mixed codes and straddling instructions take the
    loop.
    """
    shadow = ctx.shadow
    stats = ctx.stats
    interner = ctx.interner
    if type(paddrs) is range and codes[3:] == codes[:-3]:
        insn_prov = shadow.get(paddrs[0])
        if tag is not None:
            new = ctx.append(insn_prov, tag)
            n = len(paddrs)
            if new is not insn_prov:
                shadow.set_range(paddrs[0], n, new)
                stats.process_tag_appends += n
                insn_prov = new
            interner.hits += n - 1
    else:
        insn_prov = _EMPTY_PROV
        for paddr in paddrs:
            prov = shadow.get(paddr)
            if prov:
                if tag is not None:
                    new = ctx.append(prov, tag)
                    if new is not prov:
                        shadow.set(paddr, new)
                        stats.process_tag_appends += 1
                        prov = new
                insn_prov = ctx.union(insn_prov, prov)
    return insn_prov


def _load_scan(ctx, paddrs: Sequence[int], tag) -> Tuple:
    """Interpreter step 2 for a load of *paddrs*: union the read bytes'
    provenance and, with a process *tag*, append it to each tainted byte
    and to the union, which it returns.

    The fused load memoises it like the fetch step
    (:func:`_compile_fetch`): a scan that appended nothing repeats
    identically while the read bytes' codes and the tag hold.
    """
    shadow = ctx.shadow
    prov = shadow.get_bytes(paddrs)
    if prov and tag is not None:
        append = ctx.append
        stats = ctx.stats
        for paddr in paddrs:
            byte_prov = shadow.get(paddr)
            if byte_prov:
                new = append(byte_prov, tag)
                if new is not byte_prov:
                    shadow.set(paddr, new)
                    stats.process_tag_appends += 1
        prov = append(prov, tag)
    return prov


def _bulk_fetch(ctx, paddrs: range) -> None:
    """The fetch steps of a record run whose fetch bytes *paddrs* are
    one run with one nonzero code, in bulk.

    Each instruction's step would count a slow retirement and take
    :func:`_fetch_scan`'s one-code branch over the same provenance
    list, whose ``append`` only the first step would look up; the
    others would hit it.  Only the first step can raise (tag-space
    exhaustion, a code-table overflow): it mints the process tag and
    encodes the appended list, and ``set_range`` encodes before it
    writes.  So nothing past the first slow retirement is counted
    before the last point that can raise.
    """
    stats = ctx.stats
    stats.slow_retirements += 1
    tag = ctx.get_proc_tag()
    n = len(paddrs)
    if tag is not None:
        prov = ctx.shadow.get(paddrs[0])
        new = ctx.append(prov, tag)
        if new is not prov:
            ctx.shadow.set_range(paddrs[0], n, new)
            stats.process_tag_appends += n
        ctx.interner.hits += n - 1
    stats.slow_retirements += n // INSTRUCTION_SIZE - 1


def _taint_epilogue(ctx) -> None:
    """Interpreter steps 5-6: control-window decrement, budget check.

    (Window *arming* only happens on flags-reading terminators and is
    compiled into :func:`_compile_taint_term`.)
    """
    pending = ctx.pending.get(ctx.tid)
    if pending is not None:
        pending[1] -= 1
        if pending[1] <= 0:
            del ctx.pending[ctx.tid]
    if ctx.budget_check is not None:
        ctx.budget_check()


def _set_with_control(ctx, bank, rd: int, prov) -> None:
    """``TaintTracker._write_reg``: union in the pending control window."""
    if ctx.track_control_deps:
        pending = ctx.pending.get(ctx.tid)
        if pending is not None:
            prov = ctx.union(prov, pending[0])
    bank.set(rd, prov)


def _compile_reg_propagation(insn: Instruction) -> Optional[Callable]:
    """The Table I rule for a register-only instruction, or None.

    Mirrors ``TaintTracker._propagate`` over the same opcode families;
    opcodes Table I ignores (NOP, and anything outside the families)
    compile to None -- the slow path still runs its bookkeeping, it just
    moves no provenance.
    """
    op = insn.op
    rd = int(insn.rd)
    rs1 = int(insn.rs1)
    rs2 = int(insn.rs2)
    if op is Op.MOV:
        def p_mov(ctx, bank) -> None:
            _set_with_control(ctx, bank, rd, bank.regs[rs1])
        return p_mov
    if op is Op.MOVI:
        def p_movi(ctx, bank) -> None:
            _set_with_control(ctx, bank, rd, _EMPTY_PROV)
        return p_movi
    if op in REG_ALU_OPS:
        if rs1 == rs2 and op in (Op.XOR, Op.SUB):
            # Architectural zeroing idiom (Table I delete).
            def p_zero(ctx, bank) -> None:
                _set_with_control(ctx, bank, rd, _EMPTY_PROV)
            return p_zero

        def p_alu(ctx, bank) -> None:
            _set_with_control(
                ctx, bank, rd, ctx.union(bank.regs[rs1], bank.regs[rs2])
            )
        return p_alu
    if op in IMM_ALU_OPS:
        def p_imm(ctx, bank) -> None:
            _set_with_control(ctx, bank, rd, bank.regs[rs1])
        return p_imm
    if op is Op.CMP:
        def p_cmp(ctx, bank) -> None:
            bank.flags = ctx.union(bank.regs[rs1], bank.regs[rs2])
        return p_cmp
    if op is Op.CMPI:
        def p_cmpi(ctx, bank) -> None:
            bank.flags = bank.regs[rs1]
        return p_cmpi
    return None


def _compile_taint(
    insn: Instruction,
    cpu: CPU,
    insn_pc: int,
    index: int,
    fetch_paddrs: Sequence[int],
    arch: Callable[[], Optional[bool]],
) -> Callable:
    """Compile one non-terminating instruction into a fused taint closure.

    *index* is the instruction's position in its block, *fetch_paddrs*
    its 8 fetch byte addresses and *arch* its plain closure, which the
    register-only shapes wrap.  The closure takes the slice's
    :class:`~repro.taint.tracker.BlockTaintContext` (whose tracker the
    fetch memo belongs to) and, like the plain closures, returns
    ``True`` for a retired store (the executor re-checks the code
    version) and ``None`` otherwise.
    """
    op = insn.op
    v = cpu.regs._values
    rd = int(insn.rd)
    rs1 = int(insn.rs1)
    shift = SHADOW_PAGE_SHIFT
    EMPTY = _EMPTY_PROV
    fetch = _compile_fetch(fetch_paddrs)

    if op in (Op.LD, Op.LDB, Op.POP):
        disp = signed32(insn.imm)
        translate = cpu.mmu.translate
        memory = cpu.memory
        read_word = memory.read_word
        read_byte = memory.read_byte
        load_slow = cpu._load
        READ = AccessKind.READ
        pop = op is Op.POP
        byte = op is Op.LDB
        # Length of the read bytes' shadow codes: 3 per byte.
        width3 = 3 if byte else 12
        fetch_paddrs = tuple(fetch_paddrs)
        # Listeners read ``machine.now``; the executor advances
        # ``cpu.instret`` only at block exit, so lend them this
        # instruction's retirement tick.
        retire_ticks = index + 1
        LoadObservation = _LoadObservation
        # Step 2's memo, kept and hit as the fetch memo is: keyed on the
        # read bytes' codes (whatever address they were read from) and
        # the process tag, recorded only after a scan that appended
        # nothing, and a hit adds the recorded lookups to the hits.
        memo: List = [None, None, None, 0]  # codes, process tag, read prov, lookups

        @_mem
        def load(ctx) -> None:
            # Architectural work first: a faulting translation must
            # leave taint state untouched, like the interpreter.
            vaddr = v[_SP] if pop else (v[rs1] + disp) & MASK32
            if byte:
                base = translate(vaddr, READ)
                value = read_byte(base)
                paddrs = (base,)
            elif (vaddr & _PAGE_MASK) <= _WORD_FAST_LIMIT:
                base = translate(vaddr, READ)
                value = read_word(base)
                paddrs = (base, base + 1, base + 2, base + 3)
            else:
                value, paddrs = load_slow(vaddr, 4)
                base = None
            v[rd] = value
            if pop:
                v[_SP] = (vaddr + 4) & MASK32
            # Tainted fetch bytes fail the all-clean gate: fetch(ctx) has
            # then already entered the slow path and run step 1.
            insn_prov = fetch(ctx)
            bank = ctx.bank
            dirty = ctx.dirty_pages
            if insn_prov is None:
                if bank.tainted == 0 and not bank.flags and ctx.tid not in ctx.pending:
                    if not dirty:
                        return
                    p0 = paddrs[0] >> shift
                    if p0 not in dirty:
                        p1 = paddrs[-1] >> shift
                        if p1 == p0 or p1 not in dirty:
                            return
                ctx.stats.slow_retirements += 1
                insn_prov = EMPTY
            # Slow path: interpreter steps 2-4 for a load shape.
            proc_tag = ctx.get_proc_tag()
            if base is None:
                # A page-straddling word: its bytes lie in two guest
                # frames, with no one run of codes to key a memo on.
                prov = _load_scan(ctx, paddrs, proc_tag)
            else:
                page = dirty.get(base >> shift)
                if page is None:
                    prov = EMPTY  # clean bytes: no lookup, no append
                else:
                    a3 = (base - (base >> shift << shift)) * 3
                    codes = page.tags[a3 : a3 + width3]
                    if codes == memo[0] and (proc_tag is memo[1] or proc_tag == memo[1]):
                        memo[1] = proc_tag  # later compares in this slice are identity
                        ctx.interner.hits += memo[3]
                        prov = memo[2]
                    else:
                        interner = ctx.interner
                        stats = ctx.stats
                        lookups = interner.hits + interner.misses
                        appends = stats.process_tag_appends
                        prov = _load_scan(ctx, paddrs, proc_tag)
                        if stats.process_tag_appends == appends:
                            lookups = interner.hits + interner.misses - lookups
                            memo[:] = codes, proc_tag, prov, lookups
            if ctx.listeners:
                observation = LoadObservation(
                    ctx.thread,
                    insn_pc,
                    insn,
                    fetch_paddrs,
                    insn_prov,
                    [(MemoryAccess(vaddr, paddrs, value), prov)],
                )
                cpu.instret += retire_ticks
                try:
                    for listener in ctx.listeners:
                        listener(ctx.machine, observation)
                finally:
                    cpu.instret -= retire_ticks
            if ctx.track_address_deps and not pop:
                prov = ctx.union(prov, bank.regs[rs1])
            _set_with_control(ctx, bank, rd, prov)
            _taint_epilogue(ctx)
        return load

    if op in (Op.ST, Op.STB, Op.PUSH):
        disp = signed32(insn.imm)
        translate = cpu.mmu.translate
        memory = cpu.memory
        write_word = memory.write_word
        write_byte = memory.write_byte
        store_slow = cpu._store
        WRITE = AccessKind.WRITE
        push = op is Op.PUSH
        byte = op is Op.STB
        src = rs1 if push else int(insn.rs2)

        @_mem
        def store(ctx) -> bool:
            if push:
                vaddr = (v[_SP] - 4) & MASK32
            else:
                vaddr = (v[rs1] + disp) & MASK32
            if byte:
                base = translate(vaddr, WRITE)
                write_byte(base, v[src] & 0xFF)
                paddrs = (base,)
            elif (vaddr & _PAGE_MASK) <= _WORD_FAST_LIMIT:
                base = translate(vaddr, WRITE)
                write_word(base, v[src])
                paddrs = (base, base + 1, base + 2, base + 3)
            else:
                paddrs = store_slow(vaddr, 4, v[src])
            if push:
                v[_SP] = vaddr
            bank = ctx.bank
            if fetch(ctx) is None:
                if bank.tainted == 0 and not bank.flags and ctx.tid not in ctx.pending:
                    dirty = ctx.dirty_pages
                    if not dirty:
                        return True
                    p0 = paddrs[0] >> shift
                    if p0 not in dirty:
                        p1 = paddrs[-1] >> shift
                        if p1 == p0 or p1 not in dirty:
                            return True
                ctx.stats.slow_retirements += 1
            proc_tag = ctx.get_proc_tag()
            prov = bank.regs[src]
            if ctx.track_address_deps and not push:
                prov = ctx.union(prov, bank.regs[rs1])
            if ctx.track_control_deps:
                pending = ctx.pending.get(ctx.tid)
                if pending is not None:
                    prov = ctx.union(prov, pending[0])
            if prov and proc_tag is not None:
                prov = ctx.append(prov, proc_tag)
            ctx.shadow.set_bytes(paddrs, prov)
            _taint_epilogue(ctx)
            return True
        return store

    # Register-only shapes: the plain closure does the architectural
    # work; fuse just the propagation rule around the all-clean gate.
    propagate = _compile_reg_propagation(insn)

    def fused(ctx) -> None:
        arch()
        bank = ctx.bank
        if fetch(ctx) is None:
            if bank.tainted == 0 and not bank.flags and ctx.tid not in ctx.pending:
                return
            ctx.stats.slow_retirements += 1
            ctx.get_proc_tag()
        if propagate is not None:
            propagate(ctx, bank)
        _taint_epilogue(ctx)
    return fused


def _compile_taint_term(insn: Instruction, fetch: Callable) -> Callable:
    """The fused taint closure for a block terminator.

    Terminators never touch data memory, so their slow path is the
    fetch step (*fetch*, from :func:`_compile_fetch`) plus bank
    bookkeeping: the CALL link-register rule, the control-window
    decrement, and -- for flags-reading branches under the
    control-dependency policy -- arming a fresh window.
    """
    op = insn.op
    flags_read = op in COND_BRANCH_OPS
    link = op in (Op.CALL, Op.CALLR)
    EMPTY = _EMPTY_PROV

    def term_taint(ctx) -> None:
        bank = ctx.bank
        if fetch(ctx) is None:
            if bank.tainted == 0 and not bank.flags and ctx.tid not in ctx.pending:
                return
            ctx.stats.slow_retirements += 1
            ctx.get_proc_tag()
        if link:
            bank.set(_LR, EMPTY)
        pending = ctx.pending.get(ctx.tid)
        if pending is not None:
            pending[1] -= 1
            if pending[1] <= 0:
                del ctx.pending[ctx.tid]
        if flags_read and ctx.track_control_deps and bank.flags:
            ctx.pending[ctx.tid] = [bank.flags, ctx.control_dep_window]
        if ctx.budget_check is not None:
            ctx.budget_check()
    return term_taint


class BlockTranslator:
    """Translates, caches, and dispatches basic blocks for one machine.

    The cache is a two-level map: address space (weakly referenced, so
    exited processes drop their blocks) -> physical page ->
    ``(code_version, {start_pc: block})``.  A version mismatch at lookup
    discards the whole page entry -- any write into the page may have
    rewritten any instruction in it.
    """

    def __init__(self, memory: PhysicalMemory) -> None:
        self._memory = memory
        self._caches: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.translations = 0
        self.executions = 0
        self.invalidations = 0
        self.chain_hits = 0
        self.lookups = 0
        # Translated-tainted tier counters (the "obs" gauges for the new
        # dispatch tier; see Machine._bind_metrics).
        self.taint_lookups = 0
        self.taint_executions = 0
        #: Instructions stepped outside a block: always 0, since every
        #: instruction (page-straddling ones included) runs in a block.
        #: It stays as a gauge because the end-to-end benchmark reads it.
        self.taint_single_steps = 0
        # Pure blocks that replayed a recorded counter delta instead of
        # running their fused closures.
        self.taint_block_replays = 0
        # Blocks whose fused closures were compiled (once per tracker).
        self.taint_compiles = 0

    # -- cache management --------------------------------------------------------

    def lookup(self, cpu: CPU) -> TranslatedBlock:
        """Return a valid block starting at ``cpu.pc``, translating on miss.

        Propagates :class:`PageFault`/:class:`InvalidInstruction` for a
        non-executable pc or undecodable first instruction -- for a
        page-straddling instruction, also a second page that is not
        mapped executable -- with zero instructions retired (the
        precise-fault contract).
        """
        pc = cpu.pc
        paddr = cpu.mmu.translate(pc, _FETCH)
        page = paddr >> PAGE_SHIFT
        memory = self._memory
        memory.watch_code_page(page)
        version = memory.code_version(page)
        per_as = self._caches.get(cpu.mmu)
        if per_as is None:
            per_as = {}
            self._caches[cpu.mmu] = per_as
        entry = per_as.get(page)
        if entry is not None and entry[0] != version:
            self.invalidations += 1
            entry = None
        if entry is None:
            entry = (version, {})
            per_as[page] = entry
        block = entry[1].get(pc)
        if block is not None and block.tail is not None and not block.tail_valid():
            # A straddling instruction's second page was rewritten or
            # remapped; its first page (the cache key) was not.
            self.invalidations += 1
            block = None
        if block is None:
            block = self._translate(cpu, pc, paddr, page, version)
            entry[1][pc] = block
            self.translations += 1
        return block

    def _translate(
        self, cpu: CPU, start_pc: int, start_paddr: int, page: int, version: int
    ) -> TranslatedBlock:
        memory = self._memory
        off = start_paddr & _PAGE_MASK
        limit = _FETCH_FAST_LIMIT
        tail = None
        if off <= limit:
            raw = memory.read_bytes(page << PAGE_SHIFT, PAGE_SIZE)
        else:
            # The instruction's bytes straddle two guest pages: translate
            # it alone, fetched the way ``cpu.step`` fetches it (the
            # second page's FETCH translation faults the same way).
            head = PAGE_SIZE - off
            tail_vaddr = (start_pc + head) & MASK32
            tail_paddr = cpu.mmu.translate(tail_vaddr, AccessKind.FETCH)
            tail_page = tail_paddr >> PAGE_SHIFT
            memory.watch_code_page(tail_page)
            tail = (tail_vaddr, tail_paddr, memory.code_version(tail_page))
            raw = memory.read_bytes(start_paddr, head) + memory.read_bytes(
                tail_paddr, INSTRUCTION_SIZE - head
            )
            off = limit = 0
        pc = start_pc
        body: List[Callable[[], Optional[bool]]] = []
        insns: List[Instruction] = []
        term_insn: Optional[Instruction] = None
        kind = "fall"
        term: Optional[Callable[[], int]] = None
        while off <= limit:
            try:
                insn = cached_decode(raw[off : off + INSTRUCTION_SIZE])
            except DecodeError as exc:
                if not body:
                    raise InvalidInstruction(pc, str(exc)) from None
                # A later instruction is undecodable: stop the block here;
                # if execution actually falls onto it, the next lookup
                # raises the fault at the precise pc.
                break
            op = insn.op
            if op is Op.SYSCALL:
                kind = "syscall"
                term_insn = insn
                break
            if op is Op.HLT:
                kind = "halt"
                term_insn = insn
                break
            if op in _JUMP_OPS:
                kind = "jump"
                term_insn = insn
                term = _compile_term(insn, cpu, (pc + INSTRUCTION_SIZE) & MASK32)
                break
            body.append(_compile_straight(insn, cpu))
            insns.append(insn)
            off += INSTRUCTION_SIZE
            pc = (pc + INSTRUCTION_SIZE) & MASK32
        return TranslatedBlock(
            cpu, start_pc, start_paddr, version, body, kind, term, insns, term_insn, tail
        )

    # -- execution ---------------------------------------------------------------

    def run(self, cpu: CPU, budget: int) -> str:
        """Execute up to *budget* instructions starting at ``cpu.pc``.

        Chains through directly-reachable blocks until the budget runs
        out or execution hits a syscall, halt, or self-modifying store.
        A self-loop runs as many whole iterations in place as the budget
        covers (:meth:`TranslatedBlock.iterate`); each counts as one
        execution, and each after the first as the chain hit the
        dispatcher would have taken.  Returns the final stop reason
        (``"syscall"``, ``"halt"``, ``"smc"``, ``"jump"``, or
        ``"fall"``); the retirement count is observable as the change in
        ``cpu.instret``.  Guest faults propagate with precise state.
        """
        self.lookups += 1
        block = self.lookup(cpu)
        memory = self._memory
        mmu_translate = cpu.mmu.translate
        code_version = memory.code_version
        spent = 0
        while True:
            before = cpu.instret
            left = budget - spent
            if block.self_loop and left >= block.n_insns:
                k = block.iterate(left)
                self.executions += k
                self.chain_hits += k - 1
                reason = "jump"
            else:
                reason = block.execute(left)
                self.executions += 1
            spent += cpu.instret - before
            if spent >= budget or reason == "syscall" or reason == "halt" or reason == "smc":
                return reason
            pc = cpu.pc
            if reason == "jump":
                nxt = block.chain.get(pc)
                if (
                    nxt is not None
                    and nxt.version == code_version(nxt.phys_page)
                    and mmu_translate(pc, _FETCH) == nxt.start_paddr
                    and (nxt.tail is None or nxt.tail_valid())
                ):
                    self.chain_hits += 1
                    block = nxt
                    continue
                self.lookups += 1
                nxt = self.lookup(cpu)
                if len(block.chain) < _CHAIN_LIMIT:
                    block.chain[pc] = nxt
                block = nxt
                continue
            # reason == "fall" with budget remaining: page-boundary
            # fall-through -- continue at the next page.
            self.lookups += 1
            block = self.lookup(cpu)

    def run_taint(self, cpu: CPU, budget: int, ctx) -> str:
        """Taint-tier twin of :meth:`run`: block execution with fused
        Table I propagation against *ctx* (a
        :class:`~repro.taint.tracker.BlockTaintContext`).

        Each block, entry and chain alike, runs one of two ways.  A pure
        block on a clean bank, with no pending control window, no taint
        budget and budget left for the whole block, replays its record,
        or makes a record run when it has no valid one (:meth:`_replay`)
        -- a self-loop replays once per iteration it runs in place.
        Every other block runs its fused closures
        (:meth:`TranslatedBlock.execute_taint`), compiled the first time
        it gets here, each of which decides its own fetch bytes'
        cleanliness in its memoised fetch step: the bytes of a
        file-tagged image, or of the possibly-injected code FAROS exists
        to observe, yield their provenance to the detection listeners
        exactly as the interpreter's per-byte scan does.
        """
        _load_taint_runtime()
        self.taint_lookups += 1
        block = self.lookup(cpu)
        memory = self._memory
        mmu_translate = cpu.mmu.translate
        code_version = memory.code_version
        spent = 0
        while True:
            if block.taint_ctx is not ctx:
                block.bind_taint(ctx)
            before = cpu.instret
            bank = ctx.bank
            left = budget - spent
            # Test the block's own slot first: a block that cannot
            # replay pays nothing for the check.
            if (
                block.pure
                and left >= block.n_insns
                and ctx.budget_check is None
                and bank.tainted == 0
                and not bank.flags
                and ctx.tid not in ctx.pending
            ):
                reason = self._replay(block, left, ctx)
            else:
                if block.taint_body is None:
                    block.compile_taint()
                    self.taint_compiles += 1
                reason = block.execute_taint(left, ctx)
            self.taint_executions += 1
            spent += cpu.instret - before
            if spent >= budget or reason == "syscall" or reason == "halt" or reason == "smc":
                return reason
            pc = cpu.pc
            if reason == "jump":
                nxt = block.chain.get(pc)
                if (
                    nxt is not None
                    and nxt.version == code_version(nxt.phys_page)
                    and mmu_translate(pc, _FETCH) == nxt.start_paddr
                    and (nxt.tail is None or nxt.tail_valid())
                ):
                    self.chain_hits += 1
                else:
                    self.taint_lookups += 1
                    nxt = self.lookup(cpu)
                    if len(block.chain) < _CHAIN_LIMIT:
                        block.chain[pc] = nxt
            else:
                # Page-boundary fall-through.
                self.taint_lookups += 1
                nxt = self.lookup(cpu)
            block = nxt

    def _replay(self, block: TranslatedBlock, budget: int, ctx) -> str:
        """Run a pure block whose fused run could only move counters, by
        replaying those counters -- or, with no valid record, by a
        record run that leaves one.

        Caller contract: the block is pure (no data memory), *budget*
        covers it terminator included, the bank is clean, no control
        window is pending and no taint budget is set.  Then each fused
        closure's slow path would change nothing but counters: the bank
        holds no provenance, so every Table I rule writes ``EMPTY``
        over ``EMPTY`` (``union(EMPTY, EMPTY)`` counts no lookup), no
        window can arm, and only the fetch step's tag appends touch the
        shadow.  So such a block never needs its fused closures.  Its
        *record run* is each instruction's plain closure and fetch step
        (count the slow retirement, mint the process tag,
        :func:`_fetch_scan`) over tainted fetch bytes.  A record run
        that made no process-tag append left the shadow codes of its
        fetch bytes (:func:`_fetch_codes`) unchanged, so the record it
        leaves -- its slow retirements and interner lookups, keyed by
        those codes and the process tag (by value) -- repeats exactly
        while the key holds: a code names the same provenance list for
        the shadow's whole life, and the interner never evicts, so every
        recorded lookup would now hit.

        The record run takes the fetch steps first, then the plain
        closures: the two touch disjoint state (shadow, interner, stats
        and tag store against registers and flags), so the order shows
        only where a fetch step raises (a code-table overflow, tag-space
        exhaustion).  The interpreter raises after that instruction
        retired, so the run then retires the plain closures up to and
        including it and propagates with the post-instruction ``pc``,
        ``instret`` and counters, as
        :meth:`TranslatedBlock.execute_taint` does.  When the block's
        fetch bytes hold one code throughout, the fetch steps run in
        bulk (:func:`_bulk_fetch`).

        A replay runs the plain closures and adds the lookups to
        ``interner.hits``, the slow count to ``slow_retirements`` and
        the rest of the block to ``fast_retirements``; the process tag
        is minted (the interpreter's first slow retirement mints it)
        only when the record holds slow retirements.  Over clean fetch
        bytes the record is ``(zero codes, 0, 0, None)``: every
        retirement fast, no lookup, no tag minted.

        A self-loop replays its record once per iteration it runs in
        place (:meth:`TranslatedBlock.iterate`): k iterations add
        ``k * lookups`` hits and ``k * slow`` slow retirements.  The
        replay preconditions hold on every iteration: the plain closures
        touch neither the bank, the control window nor the shadow, and
        the slice, hence the process tag, stays the same.  Each
        iteration counts as one replay and one execution, each after
        the first as a chain hit.
        """
        cpu = block.cpu
        stats = ctx.stats
        interner = ctx.interner
        fetch_bytes = block.fetch_bytes
        codes = _fetch_codes(ctx.dirty_pages, fetch_bytes)
        record = block.replay
        if record is not None and record[0] == codes:
            _, slow, lookups, tag = record
            proc_tag = ctx.get_proc_tag() if slow else None
            if proc_tag is tag or proc_tag == tag:
                before = cpu.instret
                if block.self_loop:
                    k = block.iterate(budget)
                    reason = "jump"
                    # run_taint counts the first execution.
                    self.taint_executions += k - 1
                    self.chain_hits += k - 1
                else:
                    k = 1
                    reason = block.execute(budget)
                self.taint_block_replays += k
                retired = cpu.instret - before
                block.taint_slow += k * slow
                stats.instructions += retired
                stats.slow_retirements += k * slow
                stats.fast_retirements += retired - k * slow
                interner.hits += k * lookups
                return reason
        # The record run.
        slow0 = stats.slow_retirements
        lookups0 = interner.hits + interner.misses
        appends0 = stats.process_tag_appends
        i = 0
        try:
            if type(fetch_bytes) is range and codes[3:] == codes[:-3]:
                if codes[0] or codes[1] or codes[2]:
                    _bulk_fetch(ctx, fetch_bytes)
            else:
                width = len(_CLEAN_CODES)
                for i in range(block.n_insns):
                    insn_codes = codes[i * width : (i + 1) * width]
                    if insn_codes != _CLEAN_CODES:
                        stats.slow_retirements += 1
                        _fetch_scan(
                            ctx,
                            fetch_bytes[i * INSTRUCTION_SIZE : (i + 1) * INSTRUCTION_SIZE],
                            insn_codes,
                            ctx.get_proc_tag(),
                        )
        except Exception:
            # Fetch step i raised: retire through instruction i.
            block.execute(i + 1)
            slow = stats.slow_retirements - slow0
            block.taint_slow += slow
            stats.instructions += i + 1
            stats.fast_retirements += i + 1 - slow
            raise
        before = cpu.instret
        reason = block.execute(budget)
        retired = cpu.instret - before
        slow = stats.slow_retirements - slow0
        block.taint_slow += slow
        stats.instructions += retired
        stats.fast_retirements += retired - slow
        if stats.process_tag_appends == appends0:
            block.replay = (
                bytes(codes),
                slow,
                interner.hits + interner.misses - lookups0,
                ctx.get_proc_tag() if slow else None,
            )
        return reason

    # -- introspection -----------------------------------------------------------

    def cached_blocks(self) -> int:
        """Number of currently valid blocks across all live address spaces."""
        return sum(
            len(entry[1]) for per_as in self._caches.values() for entry in per_as.values()
        )

    def blocks(self) -> List[TranslatedBlock]:
        """All currently cached blocks (invalidated blocks drop their history)."""
        return [block for _space, blocks in self.spaces() for block in blocks]

    def spaces(self) -> List[Tuple[object, List[TranslatedBlock]]]:
        """``(address space, its cached blocks)`` for every live address
        space: the MMU each block was translated under."""
        return [
            (mmu, [block for entry in per_as.values() for block in entry[1].values()])
            for mmu, per_as in self._caches.items()
        ]

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (also exported as ``translate.*`` gauges)."""
        return {
            "translations": self.translations,
            "executions": self.executions,
            "invalidations": self.invalidations,
            "chain_hits": self.chain_hits,
            "lookups": self.lookups,
            "taint_lookups": self.taint_lookups,
            "taint_executions": self.taint_executions,
            "taint_single_steps": self.taint_single_steps,
            "taint_block_replays": self.taint_block_replays,
            "taint_compiles": self.taint_compiles,
            "cached_blocks": self.cached_blocks(),
        }

"""The reference taint implementation (pre-fast-path semantics), kept.

This module preserves the original flat byte-map :class:`ShadowMemory`
and the original, allocation-per-instruction :class:`TaintTracker` as
:class:`ReferenceShadowMemory` and :class:`ReferenceTaintTracker`.  They
are **not dead code**: the differential harness
(``tests/taint/test_differential.py``) executes every randomised
program, kernel copy, external write, and FAROS attack scenario against
both this reference and the optimised fast path, asserting bit-identical
shadow state, identical tainted-load observations, and identical
detection verdicts.  The reference is the spec; the fast path is the
implementation under test.

Deliberate differences from :mod:`repro.taint.tracker`:

* no provenance interner -- every union/append calls the plain
  :mod:`repro.taint.provenance` functions and may allocate;
* the shadow map is one flat ``paddr -> provenance`` dict, probed per
  byte, with no page organisation and no all-clean exits;
* no taint tier: the reference keeps the base
  :meth:`~repro.emulator.plugins.Plugin.block_taint_unit` (``None``), so
  a machine carrying it steps the interpreter and hands it every
  retired instruction's effects.  Attaching the reference alongside the fast
  tracker therefore guarantees both see the identical instruction
  stream.

Keep this module boring.  When propagation semantics change, change the
reference *first*, watch the differential fail, then port the change to
the fast path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.emulator.plugins import Plugin
from repro.isa.cpu import InstructionEffects
from repro.isa.instructions import IMM_ALU_OPS, Op, REG_ALU_OPS
from repro.isa.memory import PAGE_SHIFT, PAGE_SIZE
from repro.isa.registers import Reg
from repro.taint.policy import TaintPolicy
from repro.taint.provenance import EMPTY, append_tag, prov_union, union_all
from repro.taint.shadow import ShadowBank
from repro.taint.tags import Tag, TagStore
from repro.taint.tracker import LoadListener, LoadObservation, TrackerStats

Prov = Tuple[Tag, ...]


class ReferenceShadowMemory:
    """The original sparse byte-granular shadow: one flat dict."""

    def __init__(self) -> None:
        self._mem: Dict[int, Prov] = {}

    def get(self, paddr: int) -> Prov:
        return self._mem.get(paddr, EMPTY)

    def get_bytes(self, paddrs: Iterable[int]) -> Prov:
        """Union of the provenance of several bytes (word loads)."""
        return union_all(self._mem.get(p, EMPTY) for p in paddrs)

    def set(self, paddr: int, prov: Prov) -> None:
        if prov:
            self._mem[paddr] = prov
        else:
            self._mem.pop(paddr, None)

    def set_bytes(self, paddrs: Iterable[int], prov: Prov) -> None:
        if prov:
            for paddr in paddrs:
                self._mem[paddr] = prov
        else:
            for paddr in paddrs:
                self._mem.pop(paddr, None)

    def clear_bytes(self, paddrs: Iterable[int]) -> None:
        for paddr in paddrs:
            self._mem.pop(paddr, None)

    def set_range(self, start: int, length: int, prov: Prov) -> None:
        self.set_bytes(range(start, start + length), prov)

    def clear_range(self, start: int, length: int) -> None:
        self.clear_bytes(range(start, start + length))

    @property
    def tainted_bytes(self) -> int:
        return len(self._mem)

    def items(self):
        return self._mem.items()

    def snapshot(self) -> Dict[int, Prov]:
        return dict(self._mem)


class ReferenceTaintTracker(Plugin):
    """Byte-granular, whole-system DIFT -- the unoptimised original.

    Semantically equivalent to :class:`~repro.taint.tracker.TaintTracker`
    by definition (the differential harness enforces it); structurally it
    is the pre-optimisation code: per-byte dict probes, fresh tuples, no
    fast exits.
    """

    def __init__(
        self,
        policy: Optional[TaintPolicy] = None,
        tags: Optional[TagStore] = None,
    ) -> None:
        super().__init__()
        self.policy = policy or TaintPolicy()
        self.tags = tags or TagStore()
        self.shadow = ReferenceShadowMemory()
        self.banks = ShadowBank()
        self.stats = TrackerStats()
        self._load_listeners: List[LoadListener] = []
        self._pending_control: Dict[int, List] = {}

    # ------------------------------------------------------------------
    # wiring (same surface as the fast tracker)
    # ------------------------------------------------------------------

    def add_load_listener(self, listener: LoadListener) -> None:
        self._load_listeners.append(listener)

    def taint_range(self, paddrs: Sequence[int], tag: Tag) -> None:
        shadow = self.shadow
        for paddr in paddrs:
            shadow.set(paddr, append_tag(shadow.get(paddr), tag))

    def prov_at(self, paddr: int) -> Prov:
        return self.shadow.get(paddr)

    def prov_of_range(self, paddrs: Sequence[int]) -> Prov:
        return self.shadow.get_bytes(paddrs)

    def clear_range(self, paddrs: Sequence[int]) -> None:
        self.shadow.clear_bytes(paddrs)

    # ------------------------------------------------------------------
    # plugin callbacks: non-instruction data movement
    # ------------------------------------------------------------------

    def on_phys_write(self, machine, paddrs, source: str) -> None:
        if not paddrs:
            return
        self.shadow.clear_bytes(paddrs)
        self.stats.external_writes += 1

    def on_phys_copy(self, machine, dst_paddrs, src_paddrs, actor=None) -> None:
        shadow = self.shadow
        actor_tag: Optional[Tag] = None
        if actor is not None and self.policy.process_tags_on_access:
            actor_tag = self.tags.process_tag(actor.cr3)
        if not dst_paddrs:
            return
        for dst, src in zip(dst_paddrs, src_paddrs):
            prov = shadow.get(src)
            if prov and actor_tag is not None:
                prov = append_tag(prov, actor_tag)
                self.stats.process_tag_appends += 1
            shadow.set(dst, prov)
        self.stats.kernel_copies += 1

    def on_frames_freed(self, machine, frames) -> None:
        for frame in frames:
            self.shadow.clear_range(frame << PAGE_SHIFT, PAGE_SIZE)

    def on_process_exit(self, machine, process, status) -> None:
        for thread in process.threads:
            self.banks.drop_thread(thread.tid)
            self._pending_control.pop(thread.tid, None)

    # ------------------------------------------------------------------
    # the per-instruction path: always the full propagation
    # ------------------------------------------------------------------

    def on_insn_exec(self, machine, thread, fx: InstructionEffects) -> None:
        self.stats.instructions += 1
        self.stats.slow_retirements += 1
        policy = self.policy
        shadow = self.shadow
        bank = self.banks.for_thread(thread.tid)

        proc_tag: Optional[Tag] = None
        if policy.process_tags_on_access:
            proc_tag = self.tags.process_tag(thread.process.cr3)

        insn_prov: Prov = EMPTY
        for paddr in fx.fetch_paddrs:
            prov = shadow.get(paddr)
            if prov:
                if proc_tag is not None:
                    new = append_tag(prov, proc_tag)
                    if new is not prov:
                        shadow.set(paddr, new)
                        self.stats.process_tag_appends += 1
                        prov = new
                insn_prov = prov_union(insn_prov, prov)

        read_provs: List[Prov] = []
        for access in fx.reads:
            prov = shadow.get_bytes(access.paddrs)
            if prov and proc_tag is not None:
                for paddr in access.paddrs:
                    byte_prov = shadow.get(paddr)
                    if byte_prov:
                        new = append_tag(byte_prov, proc_tag)
                        if new is not byte_prov:
                            shadow.set(paddr, new)
                            self.stats.process_tag_appends += 1
                prov = append_tag(prov, proc_tag)
            read_provs.append(prov)

        if self._load_listeners and fx.reads:
            observation = LoadObservation.of_effects(thread, fx, insn_prov, read_provs)
            for listener in self._load_listeners:
                listener(machine, observation)

        self._propagate(fx, bank, read_provs, proc_tag, thread.tid)

        pending = self._pending_control.get(thread.tid)
        if pending is not None:
            pending[1] -= 1
            if pending[1] <= 0:
                del self._pending_control[thread.tid]
        if policy.track_control_deps and fx.flags_read and bank.flags:
            self._pending_control[thread.tid] = [bank.flags, policy.control_dep_window]

    def _propagate(
        self,
        fx: InstructionEffects,
        bank,
        read_provs: List[Prov],
        proc_tag: Optional[Tag],
        tid: int,
    ) -> None:
        insn = fx.insn
        op = insn.op
        policy = self.policy

        if op is Op.MOV:
            self._write_reg(bank, insn.rd, bank.get(insn.rs1), tid)
        elif op is Op.MOVI:
            self._write_reg(bank, insn.rd, EMPTY, tid)
        elif op in (Op.LD, Op.LDB, Op.POP):
            prov = read_provs[0] if read_provs else EMPTY
            if policy.track_address_deps and op is not Op.POP:
                prov = prov_union(prov, bank.get(insn.rs1))
            self._write_reg(bank, insn.rd, prov, tid)
        elif op in (Op.ST, Op.STB, Op.PUSH):
            src_reg = insn.rs1 if op is Op.PUSH else insn.rs2
            prov = bank.get(src_reg)
            if policy.track_address_deps and op is not Op.PUSH:
                prov = prov_union(prov, bank.get(insn.rs1))
            prov = self._with_control(tid, prov)
            if prov and proc_tag is not None:
                prov = append_tag(prov, proc_tag)
            for access in fx.writes:
                self.shadow.set_bytes(access.paddrs, prov)
        elif op in REG_ALU_OPS:
            if insn.rs1 == insn.rs2 and op in (Op.XOR, Op.SUB):
                self._write_reg(bank, insn.rd, EMPTY, tid)
            else:
                self._write_reg(
                    bank, insn.rd, prov_union(bank.get(insn.rs1), bank.get(insn.rs2)), tid
                )
        elif op in IMM_ALU_OPS:
            self._write_reg(bank, insn.rd, bank.get(insn.rs1), tid)
        elif op is Op.CMP:
            bank.flags = prov_union(bank.get(insn.rs1), bank.get(insn.rs2))
        elif op is Op.CMPI:
            bank.flags = bank.get(insn.rs1)
        elif op in (Op.CALL, Op.CALLR):
            bank.set(Reg.LR, EMPTY)

    def _write_reg(self, bank, reg: Reg, prov: Prov, tid: int) -> None:
        bank.set(reg, self._with_control(tid, prov))

    def _with_control(self, tid: int, prov: Prov) -> Prov:
        if not self.policy.track_control_deps:
            return prov
        pending = self._pending_control.get(tid)
        if pending is None:
            return prov
        return prov_union(prov, pending[0])

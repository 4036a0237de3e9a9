"""The whole-system taint tracker (the PANDA taint-core analog).

:class:`TaintTracker` is an emulator plugin that applies the Table I
propagation rules to every retired instruction, every kernel-mediated
physical copy, and every external write.  It also performs FAROS'
provenance enrichment: whenever a *tainted* byte is touched by a process
(instruction fetch, load, store, or a syscall the kernel executes on its
behalf), that process' tag is appended to the byte's chronology.

Detection plugins do not subclass the tracker; they register **load
listeners** via :meth:`add_load_listener`.  Listeners observe each
memory-reading instruction *with pre-propagation shadow state* -- the
provenance of the executed instruction's own bytes and of every byte it
reads -- which is exactly the view FAROS' tag-confluence invariant needs.
Listeners are only invoked for instructions that touch at least one
dirty shadow page or run on a thread holding taint: an instruction whose
every input is provably untainted cannot contribute to any confluence
verdict, so the fast path skips it (see below).

Fast path (the paper's §V-A overhead attack, reproduced):

* **machine-level gating** -- while the system holds no taint at all
  (before the first netflow byte arrives), :meth:`wants_insn_effects`
  answers False and the machine runs its uninstrumented CPU loop,
  reporting retirements in bulk via :meth:`on_insns_skipped`;
* **per-instruction all-clean exit** -- once taint exists somewhere,
  each retired instruction first checks that its thread's register bank
  is clean and that none of its fetch/read/write bytes land on a dirty
  shadow page (one probe per 4 KiB page).  If so, propagation is the
  identity and the instruction retires on the fast path;
* **interned provenance** -- the slow path computes unions/appends
  through a :class:`~repro.taint.intern.ProvInterner`, so repeated
  propagation of the same lists costs dict probes, not allocations.

The reference implementation without any of this lives in
:mod:`repro.taint.reference`; ``tests/taint/test_differential.py`` holds
the two bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.emulator.plugins import Plugin
from repro.faults.errors import TaintBudgetExceeded
from repro.isa.cpu import InstructionEffects, MemoryAccess
from repro.isa.instructions import IMM_ALU_OPS, Op, REG_ALU_OPS
from repro.isa.memory import PAGE_SHIFT, PAGE_SIZE, contiguous_runs
from repro.isa.registers import Reg
from repro.taint.intern import GLOBAL_INTERNER, ProvInterner
from repro.taint.policy import TaintPolicy
from repro.taint.provenance import EMPTY
from repro.taint.shadow import ShadowBank, ShadowMemory
from repro.taint.tags import Tag, TagStore

Prov = Tuple[Tag, ...]


@dataclass
class LoadObservation:
    """What a load listener sees for one memory-reading instruction."""

    thread: object
    fx: InstructionEffects
    #: Union of the provenance of the 8 fetched instruction bytes
    #: (including the just-appended executing-process tag).
    insn_prov: Prov
    #: One ``(access, prov)`` pair per memory read the instruction made.
    reads: List[Tuple[MemoryAccess, Prov]] = field(default_factory=list)


LoadListener = Callable[[object, LoadObservation], None]


@dataclass
class TrackerStats:
    """Counters for overhead/pressure reporting (Table V, E12).

    ``instructions`` counts every retirement the tracker accounted for;
    ``slow_retirements`` of them ran the full propagation path and
    ``fast_retirements`` took an all-clean exit (per-instruction page
    check, or whole uninstrumented slices while the system held no
    taint).  ``instructions == slow_retirements + fast_retirements``.
    """

    instructions: int = 0
    kernel_copies: int = 0
    external_writes: int = 0
    process_tag_appends: int = 0
    fast_retirements: int = 0
    slow_retirements: int = 0


def register_tracker_metrics(registry, tracker) -> None:
    """Expose *tracker*'s hot-path counters as pull-based gauges.

    Everything here is sampled at snapshot time, so instrumentation
    costs the per-instruction path nothing: the gauges read the counters
    the tracker already maintains (:class:`TrackerStats`, the interner's
    hit/miss totals, the shadow store's occupancy).

    Interner hits/misses are reported as **deltas from registration
    time**: trackers default to the process-wide
    :data:`~repro.taint.intern.GLOBAL_INTERNER`, whose absolute totals
    accumulate across every analysis the process has run, and a per-run
    metric must not inherit a previous sample's traffic.
    """
    stats = tracker.stats
    registry.gauge("taint.instructions", lambda: stats.instructions)
    registry.gauge("taint.fast_retirements", lambda: stats.fast_retirements)
    registry.gauge("taint.slow_retirements", lambda: stats.slow_retirements)
    registry.gauge("taint.kernel_copies", lambda: stats.kernel_copies)
    registry.gauge("taint.external_writes", lambda: stats.external_writes)
    registry.gauge("taint.process_tag_appends", lambda: stats.process_tag_appends)

    # The reference tracker has neither an interner nor a paged shadow;
    # only publish what this tracker actually maintains.
    interner = getattr(tracker, "interner", None)
    if interner is not None:
        hits0, misses0 = interner.hits, interner.misses

        def _hit_rate() -> float:
            hits = interner.hits - hits0
            total = hits + (interner.misses - misses0)
            return hits / total if total else 0.0

        registry.gauge("taint.interner.hits", lambda: interner.hits - hits0)
        registry.gauge("taint.interner.misses", lambda: interner.misses - misses0)
        registry.gauge("taint.interner.hit_rate", _hit_rate)
        registry.gauge(
            "taint.interner.canonical_lists",
            lambda: interner.cache_sizes()["canonical"],
        )

    shadow = tracker.shadow
    registry.gauge("taint.shadow.tainted_bytes", lambda: shadow.tainted_bytes)
    if hasattr(shadow, "dirty_page_count"):
        registry.gauge("taint.shadow.dirty_pages", lambda: shadow.dirty_page_count)
        registry.gauge(
            "taint.shadow.page_occupancy",
            lambda: (
                shadow.tainted_bytes / shadow.dirty_page_count
                if shadow.dirty_page_count
                else 0.0
            ),
        )
    if hasattr(shadow, "promotions"):
        # Two-representation shadow: array-vs-dict occupancy, the
        # promotion/demotion churn, and the flag-cache (summary word)
        # service rate.
        registry.gauge("taint.shadow.array_pages", lambda: shadow.array_page_count)
        registry.gauge("taint.shadow.dict_pages", lambda: shadow.dict_page_count)
        registry.gauge("taint.shadow.promotions", lambda: shadow.promotions)
        registry.gauge("taint.shadow.demotions", lambda: shadow.demotions)
        registry.gauge("taint.shadow.flag_cache.hits", lambda: shadow.summary_hits)
        registry.gauge("taint.shadow.flag_cache.misses", lambda: shadow.summary_misses)

        def _flag_cache_hit_rate() -> float:
            total = shadow.summary_hits + shadow.summary_misses
            return shadow.summary_hits / total if total else 0.0

        registry.gauge("taint.shadow.flag_cache.hit_rate", _flag_cache_hit_rate)


class TaintTracker(Plugin):
    """Byte-granular, whole-system DIFT with provenance lists."""

    def __init__(
        self,
        policy: Optional[TaintPolicy] = None,
        tags: Optional[TagStore] = None,
        interner: Optional[ProvInterner] = None,
        shadow_mode: str = "auto",
    ) -> None:
        super().__init__()
        self.policy = policy or TaintPolicy()
        self.tags = tags or TagStore()
        if interner is None and self.policy.max_prov_nodes is not None:
            # A node budget must count only *this run's* provenance: the
            # process-wide GLOBAL_INTERNER accumulates across runs, which
            # would make the trip point depend on what ran before --
            # breaking the determinism contract faulted replays rely on.
            interner = ProvInterner()
        self.interner = interner if interner is not None else GLOBAL_INTERNER
        # ``shadow_mode`` selects the page-representation policy
        # ("auto" / "dict" / "array" / "mixed"); every mode is
        # semantically identical -- the representation-differential
        # matrix holds them bit-identical down to interner counters.
        self.shadow = ShadowMemory(self.interner, mode=shadow_mode)
        self._max_tainted_bytes = self.policy.max_tainted_bytes
        self._max_prov_nodes = self.policy.max_prov_nodes
        self.banks = ShadowBank()
        self.stats = TrackerStats()
        self._load_listeners: List[LoadListener] = []
        #: Per-thread pending control-dependency taint: tid -> [prov, remaining].
        self._pending_control: Dict[int, List] = {}
        #: Reusable per-slice context for the translated-tainted tier.
        self._block_ctx: Optional[BlockTaintContext] = None

    # ------------------------------------------------------------------
    # wiring for detection plugins
    # ------------------------------------------------------------------

    def add_load_listener(self, listener: LoadListener) -> None:
        """Register *listener* to observe every memory-reading instruction."""
        self._load_listeners.append(listener)

    # ------------------------------------------------------------------
    # taint-source API (used by FAROS' tag-insertion hooks)
    # ------------------------------------------------------------------

    def taint_range(self, paddrs: Sequence[int], tag: Tag) -> None:
        """Append *tag* to the provenance of each byte in *paddrs*.

        Decomposed into contiguous physical runs so array-backed shadow
        pages take one bulk (interner-exact) tag op per run instead of a
        per-byte get/append/set loop.
        """
        if not paddrs:
            return
        shadow = self.shadow
        for start, length in contiguous_runs(paddrs):
            shadow.append_range(start, length, tag)
        if self._max_tainted_bytes is not None or self._max_prov_nodes is not None:
            self._check_budget()

    def _check_budget(self) -> None:
        """Trip :class:`TaintBudgetExceeded` if a taint budget is blown.

        Checked per *batch* (taint seeding, kernel copy, slow-path
        instruction), never on the fast path -- the budgets guard
        state-space explosions, which only the slow path can cause.
        """
        limit = self._max_tainted_bytes
        if limit is not None:
            used = self.shadow.tainted_bytes
            if used > limit:
                raise TaintBudgetExceeded("tainted bytes", used, limit)
        limit = self._max_prov_nodes
        if limit is not None:
            used = self.interner.canonical_count
            if used > limit:
                raise TaintBudgetExceeded("provenance nodes", used, limit)

    def prov_at(self, paddr: int) -> Prov:
        return self.shadow.get(paddr)

    def prov_of_range(self, paddrs: Sequence[int]) -> Prov:
        return self.shadow.get_bytes(paddrs)

    def clear_range(self, paddrs: Sequence[int]) -> None:
        shadow = self.shadow
        for start, length in contiguous_runs(paddrs):
            shadow.clear_range(start, length)

    # ------------------------------------------------------------------
    # plugin callbacks: non-instruction data movement
    # ------------------------------------------------------------------

    def on_phys_write(self, machine, paddrs, source: str) -> None:
        # External data overwrites these bytes: whatever provenance they
        # had is gone.  Source-specific tags (netflow, file) are seeded
        # by FAROS' own hooks which run after this one.
        if not paddrs:
            return
        shadow = self.shadow
        for start, length in contiguous_runs(paddrs):
            shadow.clear_range(start, length)
        self.stats.external_writes += 1

    def on_phys_copy(self, machine, dst_paddrs, src_paddrs, actor=None) -> None:
        """Table I copy, plus the acting process' tag.

        Decomposed into runs where *both* sides are physically
        consecutive, so array-page to array-page moves are slice copies
        (:meth:`~repro.taint.shadow.ShadowMemory.copy_range` preserves
        the per-byte zip-order semantics and the interner accounting of
        the byte loop, including overlapping-range ripple).  The actor's
        process tag is minted even for an empty copy, so tag indices
        follow the kernel's copy calls, not their sizes.
        """
        actor_tag: Optional[Tag] = None
        if actor is not None and self.policy.process_tags_on_access:
            actor_tag = self.tags.process_tag(actor.cr3)
        n = len(dst_paddrs)
        if not n:
            return
        shadow = self.shadow
        i = 0
        appends = 0
        while i < n:
            dst, src = dst_paddrs[i], src_paddrs[i]
            j = i + 1
            while j < n and dst_paddrs[j] == dst + (j - i) and src_paddrs[j] == src + (j - i):
                j += 1
            appends += shadow.copy_range(dst, src, j - i, actor_tag)
            i = j
        self.stats.process_tag_appends += appends
        self.stats.kernel_copies += 1
        if self._max_tainted_bytes is not None or self._max_prov_nodes is not None:
            self._check_budget()

    def on_frames_freed(self, machine, frames) -> None:
        shadow = self.shadow
        for frame in frames:
            shadow.clear_range(frame << PAGE_SHIFT, PAGE_SIZE)

    def on_process_exit(self, machine, process, status) -> None:
        for thread in process.threads:
            self.banks.drop_thread(thread.tid)
            self._pending_control.pop(thread.tid, None)

    # ------------------------------------------------------------------
    # instrumentation gating (machine-level fast path)
    # ------------------------------------------------------------------

    def wants_insn_effects(self) -> bool:
        """Per-instruction effects are only needed once taint exists.

        Mirrors the paper's optimisation of enabling heavy tracking only
        when the first netflow byte arrives: with no taint anywhere --
        shadow memory, register banks, pending control windows --
        propagation of every instruction is the identity, so the machine
        may run its uninstrumented loop.  The machine re-asks after
        every syscall, which is the only in-slice path through which
        taint can appear (packet delivery, file reads, remote writes).
        """
        return (
            self.shadow.tainted_bytes > 0
            or bool(self._pending_control)
            or self.banks.any_tainted()
        )

    def on_insns_skipped(self, machine, thread, count: int) -> None:
        """*count* instructions retired while gating had us dormant."""
        self.stats.instructions += count
        self.stats.fast_retirements += count

    # ------------------------------------------------------------------
    # the translated-tainted tier (fused block closures)
    # ------------------------------------------------------------------

    def block_taint_unit(self):
        """This tracker *is* a taint unit: its whole per-instruction need
        is Table I propagation, which the block translator can fuse into
        translated blocks (see :meth:`Plugin.block_taint_unit`)."""
        return self

    def block_context(self, machine, thread) -> "BlockTaintContext":
        """The per-slice context the fused taint closures execute against.

        One reusable object per tracker, rebound to the scheduled thread
        at every slice (and after every syscall); see
        :class:`BlockTaintContext` for the exactness contract.
        """
        ctx = self._block_ctx
        if ctx is None:
            ctx = self._block_ctx = BlockTaintContext(self)
        ctx.rebind(machine, thread)
        return ctx

    # ------------------------------------------------------------------
    # plugin callbacks: the per-instruction hot path
    # ------------------------------------------------------------------

    def on_insn_exec(self, machine, thread, fx: InstructionEffects) -> None:
        stats = self.stats
        stats.instructions += 1
        tid = thread.tid
        bank = self.banks.for_thread(tid)

        # All-clean fast exit: thread bank clean, no pending control
        # window, every *fetched byte* is clean (byte-precise -- code
        # sharing a dirty 4 KiB shadow page with tainted data still
        # qualifies), and no data byte lands on a dirty shadow page.
        # Then every propagation rule is the identity (sources untainted
        # => destinations untainted, and destinations were untainted
        # already), no process tags can attach, and no listener verdict
        # can change (listeners skipped here would only see all-empty
        # provenance).  Data accesses keep the cheaper page-granular
        # probe: their slow path is exact anyway, the fetch probe is the
        # one that decides whether *code* stays on the fast path.
        if bank.tainted == 0 and not bank.flags and tid not in self._pending_control:
            shadow = self.shadow
            if (
                shadow.bytes_clean(fx.fetch_paddrs)
                and (not fx.reads or all(shadow.pages_clean(a.paddrs) for a in fx.reads))
                and (not fx.writes or all(shadow.pages_clean(a.paddrs) for a in fx.writes))
            ):
                stats.fast_retirements += 1
                return

        stats.slow_retirements += 1
        policy = self.policy
        shadow = self.shadow
        interner = self.interner
        append = interner.append
        union = interner.union

        proc_tag: Optional[Tag] = None
        if policy.process_tags_on_access:
            proc_tag = self.tags.process_tag(thread.process.cr3)

        # 1. Fetch access: the executing process touches the instruction
        #    bytes; collect their provenance (the injected-code signal).
        insn_prov: Prov = EMPTY
        for paddr in fx.fetch_paddrs:
            prov = shadow.get(paddr)
            if prov:
                if proc_tag is not None:
                    new = append(prov, proc_tag)
                    if new is not prov:
                        shadow.set(paddr, new)
                        stats.process_tag_appends += 1
                        prov = new
                insn_prov = union(insn_prov, prov)

        # 2. Data reads: collect pre-propagation provenance; reading is
        #    also an access, so tainted source bytes get the process tag.
        read_provs: List[Prov] = []
        for access in fx.reads:
            prov = shadow.get_bytes(access.paddrs)
            if prov and proc_tag is not None:
                for paddr in access.paddrs:
                    byte_prov = shadow.get(paddr)
                    if byte_prov:
                        new = append(byte_prov, proc_tag)
                        if new is not byte_prov:
                            shadow.set(paddr, new)
                            stats.process_tag_appends += 1
                prov = append(prov, proc_tag)
            read_provs.append(prov)

        # 3. Detection listeners observe pre-propagation state.
        if self._load_listeners and fx.reads:
            observation = LoadObservation(
                thread=thread,
                fx=fx,
                insn_prov=insn_prov,
                reads=list(zip(fx.reads, read_provs)),
            )
            for listener in self._load_listeners:
                listener(machine, observation)

        # 4. Propagate per Table I.
        self._propagate(fx, bank, read_provs, proc_tag, tid)

        # 5. Control-dependency window bookkeeping.
        pending = self._pending_control.get(tid)
        if pending is not None:
            pending[1] -= 1
            if pending[1] <= 0:
                del self._pending_control[tid]
        if (
            policy.track_control_deps
            and fx.flags_read
            and bank.flags
        ):
            self._pending_control[tid] = [bank.flags, policy.control_dep_window]

        # 6. Taint-budget watchdog (slow path only; the fast exits above
        #    cannot grow shadow state or mint provenance lists).
        if self._max_tainted_bytes is not None or self._max_prov_nodes is not None:
            self._check_budget()

    # ------------------------------------------------------------------
    # propagation rules
    # ------------------------------------------------------------------

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
        union = self.interner.union

        # Register-destination provenance, by opcode family.
        if op is Op.MOV:
            self._write_reg(bank, insn.rd, bank.get(insn.rs1), tid)
        elif op is Op.MOVI:
            self._write_reg(bank, insn.rd, EMPTY, tid)
        elif op in (Op.LD, Op.LDB, Op.POP):
            prov = read_provs[0] if read_provs else EMPTY
            if policy.track_address_deps and op is not Op.POP:
                prov = union(prov, bank.get(insn.rs1))
            self._write_reg(bank, insn.rd, prov, tid)
        elif op in (Op.ST, Op.STB, Op.PUSH):
            src_reg = insn.rs1 if op is Op.PUSH else insn.rs2
            prov = bank.get(src_reg)
            if policy.track_address_deps and op is not Op.PUSH:
                prov = union(prov, bank.get(insn.rs1))
            prov = self._with_control(tid, prov)
            if prov and proc_tag is not None:
                prov = self.interner.append(prov, proc_tag)
            for access in fx.writes:
                self.shadow.set_bytes(access.paddrs, prov)
        elif op in REG_ALU_OPS:
            if insn.rs1 == insn.rs2 and op in (Op.XOR, Op.SUB):
                # Architectural zeroing idiom: the result is a constant,
                # independent of the operand's value (Table I delete).
                self._write_reg(bank, insn.rd, EMPTY, tid)
            else:
                self._write_reg(
                    bank, insn.rd, union(bank.get(insn.rs1), bank.get(insn.rs2)), tid
                )
        elif op in IMM_ALU_OPS:
            self._write_reg(bank, insn.rd, bank.get(insn.rs1), tid)
        elif op is Op.CMP:
            bank.flags = union(bank.get(insn.rs1), bank.get(insn.rs2))
        elif op is Op.CMPI:
            bank.flags = bank.get(insn.rs1)
        elif op in (Op.CALL, Op.CALLR):
            # LR receives the (untainted) return address.
            bank.set(Reg.LR, EMPTY)
        # JMP/JMPR/RET/NOP/HLT/SYSCALL: no data movement.

    def _write_reg(self, bank, reg: Reg, prov: Prov, tid: int) -> None:
        bank.set(reg, self._with_control(tid, prov))

    def _with_control(self, tid: int, prov: Prov) -> Prov:
        """Union in this thread's pending control-dependency taint."""
        if not self.policy.track_control_deps:
            return prov
        pending = self._pending_control.get(tid)
        if pending is None:
            return prov
        return self.interner.union(prov, pending[0])


class BlockTaintContext:
    """Everything a fused taint closure needs, pre-bound per slice.

    The translated-tainted tier executes blocks of closures compiled by
    :mod:`repro.isa.translate`; each closure receives this context and
    must reproduce :meth:`TaintTracker.on_insn_exec` *exactly* -- same
    shadow mutations, same interner call sequence, same stats splits,
    same listener observations (``tests/taint/test_differential.py``
    enforces all four).  The context therefore exposes the tracker's own
    bound state (the live pending-control dict, the interner's union and
    append, the shadow page table for gate probes, the page-epoch table
    the fetch memos key on) rather than copies.

    ``get_proc_tag`` is **lazy** on purpose: the interpreter mints the
    executing process' tag at the first slow-path instruction, and tag
    indices are assigned in mint order, so minting eagerly at slice
    start would reorder the tag store whenever a slice turns out to be
    wholly fast-path -- breaking provenance-serialisation identity.
    """

    __slots__ = (
        "tracker",
        "machine",
        "thread",
        "tid",
        "bank",
        "shadow",
        "dirty_pages",
        "page_epochs",
        "pending",
        "stats",
        "interner",
        "union",
        "append",
        "listeners",
        "track_address_deps",
        "track_control_deps",
        "control_dep_window",
        "budget_check",
        "_tags_on_access",
        "_proc_tag",
        "_proc_tag_ready",
    )

    def __init__(self, tracker: TaintTracker) -> None:
        self.tracker = tracker
        self.shadow = tracker.shadow
        #: The live shadow page table; ``number in dirty_pages`` is the
        #: data-access cleanliness probe of the all-clean gate
        #: (decision-identical to
        #: :meth:`~repro.taint.shadow.ShadowMemory.pages_clean`).
        self.dirty_pages = tracker.shadow._pages
        #: The live page-epoch table (``number -> epoch``, absent = 0;
        #: epochs only grow, bumped on every content change).
        self.page_epochs = tracker.shadow._epochs
        self.pending = tracker._pending_control
        self.stats = tracker.stats
        self.interner = tracker.interner
        self.union = tracker.interner.union
        self.append = tracker.interner.append
        self.listeners = tracker._load_listeners
        policy = tracker.policy
        self.track_address_deps = policy.track_address_deps
        self.track_control_deps = policy.track_control_deps
        self.control_dep_window = policy.control_dep_window
        self._tags_on_access = policy.process_tags_on_access
        self.budget_check = (
            tracker._check_budget if policy.has_taint_budget else None
        )
        self.machine = None
        self.thread = None
        self.tid = -1
        self.bank = None
        self._proc_tag: Optional[Tag] = None
        self._proc_tag_ready = False

    def rebind(self, machine, thread) -> None:
        """Point the context at the thread about to run."""
        self.machine = machine
        self.thread = thread
        self.tid = thread.tid
        self.bank = self.tracker.banks.for_thread(thread.tid)
        self._proc_tag = None
        self._proc_tag_ready = not self._tags_on_access

    def get_proc_tag(self) -> Optional[Tag]:
        """The executing process' tag, minted at first slow-path use."""
        if self._proc_tag_ready:
            return self._proc_tag
        tag = self.tracker.tags.process_tag(self.thread.process.cr3)
        self._proc_tag = tag
        self._proc_tag_ready = True
        return tag

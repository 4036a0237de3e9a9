"""The whole-system machine: memory + CPU + devices + kernel + plugins.

:class:`Machine` is the QEMU analog.  It owns the physical resources,
drives the scheduler loop, delivers scheduled external events (packets,
keystrokes) at deterministic instruction-count timestamps, and fans every
observable out to plugins.

Determinism contract: given the same guest setup and the same scheduled
events, two machines execute identical instruction streams.  Everything
nondeterministic enters through :meth:`schedule`, and each delivery is
journaled -- which is what makes PANDA-style record/replay work
(:mod:`repro.emulator.record_replay`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.emulator.devices import DeviceBoard, NetworkInterface, Packet
from repro.emulator.plugins import PluginManager
from repro.faults.errors import (
    DeviceFault,
    EmulatorFault,
    FaultMarker,
    FaultRecord,
    WatchdogExpired,
)
from repro.faults.watchdog import progress_sink
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.guestos import layout
from repro.guestos.process import ThreadState
from repro.isa.cpu import CPU
from repro.isa.errors import GuestFault
from repro.isa.memory import FrameAllocator, PhysicalMemory, contiguous_runs
from repro.isa.registers import Reg
from repro.isa.translate import BlockTranslator


@dataclass
class MachineConfig:
    """Construction parameters for one machine."""

    mem_size: int = 1 << 20          # 1 MiB of guest RAM
    quantum: int = 100               # instructions per scheduler slice
    guest_ip: str = "169.254.57.168" # the victim VM's address in the paper
    #: Watchdog: absolute machine-clock cap; execution past this tick
    #: trips :class:`~repro.faults.errors.WatchdogExpired` (a *fault*,
    #: unlike ``run``'s ``max_instructions`` which is a graceful budget
    #: stop).  None disables.
    instruction_budget: Optional[int] = None
    #: Watchdog: max instructions any thread may retire between syscalls
    #: before it is declared a runaway loop.  None disables.
    syscall_step_budget: Optional[int] = None
    #: Execute through the basic-block translation cache
    #: (:mod:`repro.isa.translate`), uninstrumented and on the taint
    #: tier.  Semantically identical to instruction-at-a-time execution
    #: -- same ``instret``, journals, faults, and reports -- just faster.
    #: Off means every slice steps the ``cpu.step`` interpreter (kept for
    #: differential testing and benchmarks).
    translate: bool = True


@dataclass
class RunStats:
    """What one :meth:`Machine.run` call did."""

    instructions: int = 0
    stop_reason: str = ""
    #: The terminal fault when ``stop_reason == "fault"``, else None.
    fault: Optional[FaultRecord] = None


class Machine:
    """One emulated guest machine."""

    def __init__(self, config: Optional[MachineConfig] = None,
                 boot_kernel: bool = True) -> None:
        self.config = config or MachineConfig()
        self.memory = PhysicalMemory(self.config.mem_size)
        self.allocator = FrameAllocator(self.memory, reserved_low=layout.KERNEL_RESERVED)
        self.cpu = CPU(self.memory)
        #: The basic-block translation cache (None when disabled).
        self.translator: Optional[BlockTranslator] = (
            BlockTranslator(self.memory) if self.config.translate else None
        )
        self.plugins = PluginManager()
        self.devices = DeviceBoard(nic=NetworkInterface(self.config.guest_ip))
        self._dma_next = layout.DMA_BASE
        self.metrics = NULL_REGISTRY
        self._bind_metrics()
        self.allocator.on_free = self._frame_freed
        if boot_kernel:
            # Imported here: Kernel and Machine are mutually aware, and
            # the package must be importable from either end of that edge.
            from repro.guestos.kernel import Kernel

            self.kernel = Kernel(self)
        else:
            # Snapshot-restore path: the caller installs a thawed kernel
            # (and the rest of the frozen state) -- booting one here
            # would only be thrown away.  See ``Machine.fork_from``.
            self.kernel = None
        self._events: List[Tuple[int, int, object]] = []  # (at, seq, event) heap
        self._event_seq = 0
        #: Chronological record of delivered events: (instret, event).
        self.journal: List[Tuple[int, object]] = []
        self._started = False
        #: The terminal fault that stopped :meth:`run`, or None.
        self.fault: Optional[FaultRecord] = None
        #: Every fault observed on this machine, terminal and injected.
        self.fault_records: List[FaultRecord] = []
        #: Most recently dispatched syscall number (watchdog diagnostics).
        self.last_syscall: Optional[int] = None
        self._current_thread = None
        self._pending_fault: Optional[EmulatorFault] = None
        self._syscall_override: Optional[Tuple[str, object, str]] = None

    @classmethod
    def fork_from(cls, snapshot, plugins=(), metrics=None,
                  verify: bool = True) -> "Machine":
        """Materialize a runnable guest from a frozen
        :class:`~repro.emulator.snapshot.MachineSnapshot`.

        Restores the captured physical pages (CoW-shared ``bytes``
        blitted into a fresh buffer), thaws the kernel/process/address-
        space tree, registers *plugins*, and replays the captured boot
        events so analysis state (FAROS export tags, interner counters)
        ends bit-identical to a cold boot.  With *verify* (the default)
        the snapshot's integrity digest is checked first and a mismatch
        raises :class:`~repro.emulator.snapshot.SnapshotIntegrityError`.
        """
        return snapshot.fork(plugins=plugins, metrics=metrics, verify=verify)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def use_metrics(self, registry: Optional[MetricsRegistry]) -> None:
        """Attach *registry* (None = the disabled null registry).

        Counter handles are cached on the machine at bind time, so the
        per-event cost with metrics off is a single no-op method call on
        the shared null counter -- nothing is looked up per event.
        """
        self.metrics = registry if registry is not None else NULL_REGISTRY
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        m = self.metrics
        self._ctr_syscalls = m.counter("machine.syscalls")
        self._ctr_packets_in = m.counter("machine.packets_received")
        self._ctr_packets_out = m.counter("machine.packets_sent")
        self._ctr_phys_writes = m.counter("machine.phys_writes")
        self._ctr_phys_copies = m.counter("machine.phys_copies")
        self._ctr_faults = m.counter("machine.guest_faults")
        self._ctr_machine_faults = m.counter("machine.faults")
        self._ctr_injected_faults = m.counter("machine.injected_faults")
        m.gauge("machine.instructions", lambda: self.cpu.instret)
        m.gauge("machine.events_delivered", lambda: len(self.journal))
        m.gauge("machine.fault_records", lambda: len(self.fault_records))
        m.gauge(
            "machine.watchdog.instruction_budget",
            lambda: self.config.instruction_budget or 0,
        )
        m.gauge(
            "machine.watchdog.syscall_step_budget",
            lambda: self.config.syscall_step_budget or 0,
        )
        translator = self.translator
        if translator is not None:
            m.gauge("translate.translations", lambda: translator.translations)
            m.gauge("translate.executions", lambda: translator.executions)
            m.gauge("translate.invalidations", lambda: translator.invalidations)
            m.gauge("translate.chain_hits", lambda: translator.chain_hits)
            m.gauge("translate.cached_blocks", translator.cached_blocks)
            # The translated-tainted tier's retirement counters.
            m.gauge("translate.taint_lookups", lambda: translator.taint_lookups)
            m.gauge("translate.taint_executions", lambda: translator.taint_executions)
            m.gauge(
                "translate.taint_single_steps", lambda: translator.taint_single_steps
            )
            # Pure blocks replaying a recorded counter delta.
            m.gauge(
                "translate.taint_block_replays",
                lambda: translator.taint_block_replays,
            )
            # Blocks that ran fused and so compiled their fused closures.
            m.gauge("translate.taint_compiles", lambda: translator.taint_compiles)

    # ------------------------------------------------------------------
    # time & events
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """The machine clock: retired instructions since boot."""
        return self.cpu.instret

    def schedule(self, at: int, event: object) -> None:
        """Deliver *event* once the clock reaches *at* (absolute ticks).

        *event* must expose ``deliver(machine)``; see
        :mod:`repro.emulator.record_replay` for the standard event types.
        """
        heapq.heappush(self._events, (at, self._event_seq, event))
        self._event_seq += 1

    def _next_event_at(self) -> Optional[int]:
        return self._events[0][0] if self._events else None

    def _deliver_due_events(self) -> None:
        while self._events and self._events[0][0] <= self.now:
            _at, _seq, event = heapq.heappop(self._events)
            self.journal.append((self.now, event))
            event.deliver(self)

    # ------------------------------------------------------------------
    # instrumented physical-memory operations (the kernel's data paths)
    # ------------------------------------------------------------------

    def phys_write(self, paddrs, data: bytes, source: str) -> None:
        """Write external *data* (device input, file content) into memory.

        Bulk path: the per-byte *paddrs* tuple decomposes into at most
        one run per touched guest page, each stored with a single slice
        write (which also handles the watched-code-page version bumps).
        Plugins still receive the full per-byte tuple.
        """
        pos = 0
        for start, length in contiguous_runs(paddrs):
            self.memory.write_bytes(start, data[pos : pos + length])
            pos += length
        self._ctr_phys_writes.inc()
        self.plugins.on_phys_write(self, tuple(paddrs), source)

    def phys_copy(self, dst_paddrs, src_paddrs, actor=None) -> None:
        """Kernel-mediated byte move: ``dst[i] <- src[i]`` with taint.

        *actor* is the guest process the kernel acts for (syscall
        requester); provenance plugins tag moved bytes with it.

        Pairwise-contiguous stretches move as one read/write-bytes pair
        (``read_bytes`` snapshots, so backward overlap is safe); only a
        *forward*-overlapping run keeps the legacy byte loop, whose
        index order deliberately ripples bytes the same copy wrote --
        the shadow memory's ``copy_range`` mirrors exactly this split.
        """
        if len(dst_paddrs) != len(src_paddrs):
            raise DeviceFault(
                "phys-copy",
                f"length mismatch: {len(dst_paddrs)} dst vs {len(src_paddrs)} src bytes",
            )
        memory = self.memory
        i, n = 0, len(dst_paddrs)
        while i < n:
            dst, src = dst_paddrs[i], src_paddrs[i]
            j = i + 1
            while (
                j < n
                and dst_paddrs[j] == dst + (j - i)
                and src_paddrs[j] == src + (j - i)
            ):
                j += 1
            length = j - i
            if src < dst < src + length:
                for k in range(length):
                    memory.write_byte(dst + k, memory.read_byte(src + k))
            else:
                memory.write_bytes(dst, memory.read_bytes(src, length))
            i = j
        self._ctr_phys_copies.inc()
        self.plugins.on_phys_copy(self, tuple(dst_paddrs), tuple(src_paddrs), actor)

    def _frame_freed(self, frame: int) -> None:
        self.plugins.on_frames_freed(self, (frame,))

    def dma_alloc(self, n: int) -> Tuple[int, ...]:
        """Reserve *n* bytes of the NIC DMA ring (wraps around)."""
        if n > layout.DMA_SIZE:
            raise DeviceFault(
                "nic-dma", f"packet of {n} bytes exceeds {layout.DMA_SIZE}-byte DMA ring"
            )
        if self._dma_next + n > layout.DMA_BASE + layout.DMA_SIZE:
            self._dma_next = layout.DMA_BASE
        start = self._dma_next
        self._dma_next += n
        return tuple(range(start, start + n))

    def send_packet(self, packet: Packet) -> None:
        """Transmit *packet* out of the guest (NIC tx path)."""
        self.devices.nic.transmit(packet)
        self._ctr_packets_out.inc()
        self.plugins.on_packet_send(self, packet)

    # ------------------------------------------------------------------
    # fault plumbing (graceful degradation + deterministic injection)
    # ------------------------------------------------------------------

    def inject_syscall_result(self, result: int, note: str) -> None:
        """Arm an override: the syscall being entered returns *result*
        without running (called from ``on_syscall_enter`` hooks)."""
        self._syscall_override = ("result", result, note)

    def inject_syscall_fault(self, fault: EmulatorFault, note: str) -> None:
        """Arm an override: the syscall being entered raises *fault*."""
        self._syscall_override = ("fault", fault, note)

    def note_injected_fault(self, kind: str, detail: str, journal: bool = True) -> FaultRecord:
        """Record a non-terminal injected fault (the run continues).

        With *journal*, a :class:`~repro.faults.errors.FaultMarker` is
        appended to the delivery journal so replay verification covers
        the injection point; pass ``journal=False`` when the caller is
        itself a journaled event.
        """
        if journal:
            self.journal.append((self.now, FaultMarker(f"{kind}: {detail}")))
        thread = self._current_thread
        record = FaultRecord(
            kind=kind,
            detail=detail,
            tick=self.now,
            pc=self.cpu.pc,
            pid=thread.process.pid if thread is not None else None,
            process=thread.process.name if thread is not None else None,
            syscall=self.last_syscall,
            injected=True,
        )
        self.fault_records.append(record)
        self._ctr_injected_faults.inc()
        self.plugins.on_machine_fault(self, record)
        return record

    def _apply_syscall_override(self, override: Tuple[str, object, str]):
        mode, payload, note = override
        self.journal.append((self.now, FaultMarker(note)))
        if mode == "result":
            self.note_injected_fault("InjectedFault", note, journal=False)
            return payload
        raise payload  # type: ignore[misc]  # an armed EmulatorFault

    # ------------------------------------------------------------------
    # the execution loop
    # ------------------------------------------------------------------

    def run(self, max_instructions: int = 2_000_000) -> RunStats:
        """Run until idle or until *max_instructions* more retire.

        Any :class:`~repro.faults.errors.EmulatorFault` that reaches
        this loop -- a device fault out of event delivery, a watchdog or
        taint-budget trip, an injected fault -- stops the run gracefully:
        the machine records a :class:`~repro.faults.errors.FaultRecord`
        (``stats.stop_reason == "fault"``) instead of propagating a host
        exception, so a degraded analysis can still produce a report.
        """
        if not self._started:
            self._started = True
            self.plugins.on_machine_start(self)
        stats = RunStats()
        deadline = self.now + max_instructions
        insn_budget = self.config.instruction_budget
        progress = progress_sink()
        try:
            while self.now < deadline:
                self._deliver_due_events()
                if self._pending_fault is not None:
                    fault, self._pending_fault = self._pending_fault, None
                    raise fault
                if insn_budget is not None and self.now >= insn_budget:
                    raise WatchdogExpired(
                        "instruction", insn_budget,
                        f"machine clock reached {self.now}",
                    )
                thread = self.kernel.pick_thread()
                if thread is None:
                    if not self._skip_idle_time(deadline):
                        stats.stop_reason = "idle"
                        break
                    continue
                self._run_thread(thread, min(self.config.quantum, deadline - self.now))
                if progress is not None:
                    progress.update(self)
        except EmulatorFault as fault:
            record = FaultRecord.from_exception(fault, self)
            self.fault = record
            self.fault_records.append(record)
            self._ctr_machine_faults.inc()
            stats.stop_reason = "fault"
            stats.fault = record
            if progress is not None:
                progress.update(self)
            self.plugins.on_machine_fault(self, record)
        if not stats.stop_reason:
            stats.stop_reason = "budget" if self.now >= deadline else "idle"
        stats.instructions = self.now
        self.plugins.on_machine_stop(self)
        return stats

    def _skip_idle_time(self, deadline: int) -> bool:
        """Advance the clock to the next wake source; False if none exists."""
        candidates = []
        event_at = self._next_event_at()
        if event_at is not None:
            candidates.append(event_at)
        wake_at = self.kernel.next_wake_at()
        if wake_at is not None:
            candidates.append(wake_at)
        if not candidates:
            return False
        target = min(candidates)
        if target > deadline:
            # The next wake source is beyond this run's budget.
            self.cpu.instret = deadline
            return False
        self.cpu.instret = max(self.now + 1, target)
        return True

    def _run_thread(self, thread, quantum: int) -> None:
        cpu = self.cpu
        self._current_thread = thread
        cpu.mmu = thread.process.aspace
        cpu.restore_context(thread.context)
        cpu.halted = False
        thread.state = ThreadState.RUNNING
        # Pick the execution tier per slice (revisited after every
        # syscall -- the only point inside a slice where new
        # analysis-relevant state, like a tainted packet landing in a
        # recv buffer, can appear and re-arm a gated plugin):
        #
        # * "none"  -- nothing instruments instructions: translated
        #   blocks;
        # * "taint" -- every per-instruction consumer reduces to one
        #   taint tracker: translated blocks with fused Table I
        #   propagation closures (the translated-tainted tier);
        # * "full"  -- some plugin needs the real effect stream (the
        #   reference tracker): interpreter stepping with the
        #   on_insn_exec fan-out.
        #
        # With translation off, every slice steps the cpu.step
        # interpreter: "taint" becomes "full", and "none" steps without
        # the fan-out.
        #
        # Whichever tier runs, the budget passed down is the remaining
        # quantum, so slice boundaries -- and with them event delivery,
        # watchdog checks, and FaultPlan instret triggers -- land on the
        # exact same retirement counts as instruction-at-a-time
        # execution.
        plugins = self.plugins
        on_insn_exec = plugins.on_insn_exec
        on_insns_skipped = plugins.on_insns_skipped
        mode, taint_unit = plugins.insn_effects_plan()
        if mode == "taint" and self.translator is None:
            mode = "full"  # no translation cache: interpreter-step
        instrumented = mode == "full"
        translator = self.translator if mode == "none" else None
        taint_ctx = (
            taint_unit.block_context(self, thread) if mode == "taint" else None
        )
        executed = 0
        skipped = 0  # uninstrumented retirements not yet reported
        sys_at = 0   # `executed` offset of this slice's latest syscall
        while executed < quantum:
            if translator is not None:
                before = cpu.instret
                try:
                    reason = translator.run(cpu, quantum - executed)
                except GuestFault as fault:
                    delta = cpu.instret - before
                    executed += delta
                    skipped += delta
                    if skipped:
                        on_insns_skipped(self, thread, skipped)
                    self._ctr_faults.inc()
                    plugins.on_guest_fault(self, thread, fault)
                    self.kernel.crash_process(thread.process, fault)
                    return
                delta = cpu.instret - before
                executed += delta
                skipped += delta
                if reason == "halt":
                    if skipped:
                        on_insns_skipped(self, thread, skipped)
                    thread.context = cpu.context()
                    self.kernel.terminate_process(thread.process, cpu.regs.read(Reg.R0))
                    return
                if reason != "syscall":
                    continue
            elif taint_ctx is not None:
                # The translated-tainted tier: the tracker's counters
                # are maintained inside block execution (no bulk
                # on_insns_skipped here -- every retirement is already
                # accounted with its exact fast/slow split).
                before = cpu.instret
                try:
                    reason = self.translator.run_taint(
                        cpu, quantum - executed, taint_ctx
                    )
                except GuestFault as fault:
                    executed += cpu.instret - before
                    self._ctr_faults.inc()
                    plugins.on_guest_fault(self, thread, fault)
                    self.kernel.crash_process(thread.process, fault)
                    return
                executed += cpu.instret - before
                if reason == "halt":
                    thread.context = cpu.context()
                    self.kernel.terminate_process(thread.process, cpu.regs.read(Reg.R0))
                    return
                if reason != "syscall":
                    continue
            else:
                try:
                    fx = cpu.step()
                except GuestFault as fault:
                    if skipped:
                        on_insns_skipped(self, thread, skipped)
                    self._ctr_faults.inc()
                    plugins.on_guest_fault(self, thread, fault)
                    self.kernel.crash_process(thread.process, fault)
                    return
                executed += 1
                if instrumented:
                    on_insn_exec(self, thread, fx)
                else:
                    skipped += 1
                if fx.halted:
                    if skipped:
                        on_insns_skipped(self, thread, skipped)
                    thread.context = cpu.context()
                    self.kernel.terminate_process(thread.process, cpu.regs.read(Reg.R0))
                    return
                if not fx.syscall:
                    continue

            # -- syscall trap (shared by both execution paths) -----------------
            if skipped:
                on_insns_skipped(self, thread, skipped)
                skipped = 0
            number = cpu.regs.read(Reg.R0)
            args = tuple(cpu.regs.read(r) for r in (Reg.R1, Reg.R2, Reg.R3, Reg.R4, Reg.R5))
            thread.context = cpu.context()
            self._ctr_syscalls.inc()
            self.last_syscall = number
            sys_at = executed
            thread.steps_since_syscall = 0
            plugins.on_syscall_enter(self, thread, number, args)
            override = self._syscall_override
            if override is None:
                result = self.kernel.syscall(thread, number, args)
            else:
                self._syscall_override = None
                result = self._apply_syscall_override(override)
            if result is None:
                return  # blocked or terminated; kernel owns the thread now
            thread.context["regs"][Reg.R0] = result & 0xFFFFFFFF
            plugins.on_syscall_return(self, thread, number, result)
            if thread.state is not ThreadState.RUNNING:
                return  # suspended/killed by its own syscall
            cpu.restore_context(thread.context)
            mode, taint_unit = plugins.insn_effects_plan()
            if mode == "taint" and self.translator is None:
                mode = "full"
            instrumented = mode == "full"
            translator = self.translator if mode == "none" else None
            taint_ctx = (
                taint_unit.block_context(self, thread) if mode == "taint" else None
            )
        if skipped:
            on_insns_skipped(self, thread, skipped)
        thread.context = cpu.context()
        # Syscall-step watchdog, accounted per slice (never per
        # instruction) so the uninstrumented fast path stays fast.
        thread.steps_since_syscall += executed - sys_at
        budget = self.config.syscall_step_budget
        if budget is not None and thread.steps_since_syscall > budget:
            raise WatchdogExpired(
                "syscall-step", budget,
                f"{thread.process.name}(tid={thread.tid}) retired "
                f"{thread.steps_since_syscall} instructions without a syscall",
            )
        self.kernel.requeue(thread)


#: The result of one machine run.  ``RunStats`` predates the fault
#: taxonomy; ``MachineResult`` is the name the degradation contract uses
#: (a run *result* that may carry a :class:`FaultRecord`).
MachineResult = RunStats

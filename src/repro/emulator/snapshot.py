"""Copy-on-write machine snapshots: boot once, fork per sample.

Every triage job used to boot its guest from scratch -- assembling the
attack images, constructing the kernel, spawning the victim processes --
before a single malicious instruction ran.  This module captures that
post-boot state **once** and materializes runnable guests from it at
sample-execution cost:

* **Physical memory** is captured sparsely: only nonzero
  :data:`~repro.isa.memory.PAGE_SIZE`-granular pages are kept, each as
  an immutable ``bytes`` object shared (CoW, both at the Python level
  and -- when a snapshot-primed process forks workers -- at the OS page
  level) by every guest forked from the snapshot.
* **Kernel / process / address-space state** is deep-frozen into a
  single pickle blob.  A custom pickler maps the machine and allocator
  back-references to persistent sentinels, so the frozen tree is
  self-contained and a thaw re-binds it to a *fresh* machine skeleton.
  One blob per snapshot preserves intra-tree identity (the Thread on
  the ready queue *is* the Thread in ``process.threads``).
* An **integrity digest** (SHA-256 over pages + state + events) is
  verified before every fork; corruption raises
  :class:`SnapshotIntegrityError`, which the warm pool degrades to a
  cold boot with a ``DegradedPool`` fault record
  (:mod:`repro.serve.pool`).

**Bit-identity.**  Analysis plugins must observe boot: FAROS plants
export-table tags from the ``on_module_load`` events a cold
``Scenario.build`` fires during setup.  A forked guest has already
booted, so capture records every plugin-observable hook dispatch as
plain data (a *boot journal*) and :meth:`MachineSnapshot.fork` replays
it -- in order, against the fork's freshly registered plugins -- before
scheduling the scenario's events.  Tracker state, interner counters,
and therefore reports and verdicts end identical to a cold boot; the
differential harness (``tests/emulator/test_snapshot_fork.py``) holds
this across the attack roster.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import pickle
from typing import Dict, List, Optional, Sequence, Tuple

from repro.emulator.machine import Machine, MachineConfig
from repro.emulator.plugins import Plugin
from repro.emulator.record_replay import Recording, Scenario, verify_replay
from repro.faults.errors import EmulatorFault
from repro.isa.memory import PAGE_SHIFT, PAGE_SIZE


class SnapshotError(EmulatorFault):
    """A snapshot could not be captured or restored."""


class SnapshotIntegrityError(SnapshotError):
    """The frozen state failed its digest check (corruption).

    An :class:`~repro.faults.errors.EmulatorFault` so it can never
    escape a triage worker as a host crash; the warm pool catches it
    and degrades the job to a cold boot instead.
    """


# ----------------------------------------------------------------------
# sparse page capture (shared with the forensic MemorySnapshot)
# ----------------------------------------------------------------------

def capture_pages(memory) -> Dict[int, bytes]:
    """The nonzero pages of *memory* as ``{page_no: bytes}``.

    Each page is an immutable ``bytes`` object -- the CoW unit every
    consumer (fork restore, forensic reads) shares without copying.
    """
    buf = memory._buf
    size = memory.size
    zero = bytes(PAGE_SIZE)
    pages: Dict[int, bytes] = {}
    pno = 0
    for start in range(0, size, PAGE_SIZE):
        chunk = bytes(buf[start:start + PAGE_SIZE])
        if chunk != zero[: len(chunk)]:
            pages[pno] = chunk
        pno += 1
    return pages


class SparseMemoryImage:
    """Read-only sparse view of captured physical memory.

    Quacks like :class:`~repro.isa.memory.PhysicalMemory` for readers
    (``read_byte``/``read_bytes``/``size``); absent pages read as
    zeroes, exactly what they held at capture time.
    """

    def __init__(self, size: int, pages: Dict[int, bytes]) -> None:
        self.size = size
        self._pages = pages

    @classmethod
    def capture(cls, memory) -> "SparseMemoryImage":
        return cls(memory.size, capture_pages(memory))

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    def read_byte(self, paddr: int) -> int:
        page = self._pages.get(paddr >> PAGE_SHIFT)
        if page is None:
            if not 0 <= paddr < self.size:
                raise IndexError(f"paddr {paddr:#x} outside {self.size}-byte memory")
            return 0
        return page[paddr & (PAGE_SIZE - 1)]

    def read_bytes(self, paddr: int, n: int) -> bytes:
        # bytes-slice semantics: clamp to the captured size, never raise.
        start = max(paddr, 0)
        end = min(paddr + max(n, 0), self.size)
        if end <= start:
            return b""
        out = bytearray(end - start)
        pos = start
        while pos < end:
            off = pos & (PAGE_SIZE - 1)
            take = min(PAGE_SIZE - off, end - pos)
            page = self._pages.get(pos >> PAGE_SHIFT)
            if page is not None:
                out[pos - start:pos - start + take] = page[off:off + take]
            pos += take
        return bytes(out)

    def blit_into(self, memory) -> None:
        """Write the captured pages into a fresh (all-zero) memory."""
        buf = memory._buf
        for pno, page in self._pages.items():
            start = pno << PAGE_SHIFT
            buf[start:start + len(page)] = page


# ----------------------------------------------------------------------
# the boot journal (plugin-observable events during setup)
# ----------------------------------------------------------------------

class BootJournalRecorder(Plugin):
    """Records every plugin-observable hook dispatch as plain data.

    Registered (alone) on the capture machine for the duration of
    ``scenario.setup``; the recorded tuples reference guest objects by
    stable keys (pids, module bases) so replay can resolve them against
    the *forked* machine's restored kernel tree.
    """

    name = "boot-journal"

    def __init__(self) -> None:
        super().__init__()
        self.events: List[tuple] = []

    # Per-instruction hooks cannot fire during setup (nothing executes),
    # so the recorder deliberately leaves on_insn_exec unimplemented.

    def on_phys_write(self, machine, paddrs, source) -> None:
        self.events.append(("on_phys_write", tuple(paddrs), source))

    def on_phys_copy(self, machine, dst_paddrs, src_paddrs, actor=None) -> None:
        self.events.append((
            "on_phys_copy", tuple(dst_paddrs), tuple(src_paddrs),
            actor.pid if actor is not None else None,
        ))

    def on_file_read(self, machine, process, path, version, paddrs) -> None:
        self.events.append(("on_file_read", process.pid, path, version, tuple(paddrs)))

    def on_file_write(self, machine, process, path, version, paddrs) -> None:
        self.events.append(("on_file_write", process.pid, path, version, tuple(paddrs)))

    def on_module_load(self, machine, process, module) -> None:
        self.events.append(("on_module_load", process.pid, module.base))

    def on_process_create(self, machine, process) -> None:
        self.events.append(("on_process_create", process.pid))

    def on_process_exit(self, machine, process, status) -> None:
        self.events.append(("on_process_exit", process.pid, status))

    def on_frames_freed(self, machine, frames) -> None:
        self.events.append(("on_frames_freed", tuple(frames)))

    def on_packet_receive(self, machine, packet, paddrs) -> None:
        self.events.append(("on_packet_receive", packet, tuple(paddrs)))

    def on_packet_send(self, machine, packet) -> None:
        self.events.append(("on_packet_send", packet))


def _resolve_module(machine, pid: int, base: int):
    kernel = machine.kernel
    if kernel.kernel_module.base == base:
        return kernel.kernel_module
    for module in kernel.processes[pid].modules:
        if module.base == base:
            return module
    raise SnapshotError(f"boot journal names unknown module base {base:#x} in pid {pid}")


def replay_boot_events(machine, events: Sequence[tuple]) -> None:
    """Fan the recorded boot events out to *machine*'s plugins, in order."""
    plugins = machine.plugins
    processes = machine.kernel.processes
    for ev in events:
        kind = ev[0]
        if kind == "on_phys_write":
            plugins.on_phys_write(machine, ev[1], ev[2])
        elif kind == "on_phys_copy":
            actor = processes[ev[3]] if ev[3] is not None else None
            plugins.on_phys_copy(machine, ev[1], ev[2], actor)
        elif kind == "on_file_read":
            plugins.on_file_read(machine, processes[ev[1]], ev[2], ev[3], ev[4])
        elif kind == "on_file_write":
            plugins.on_file_write(machine, processes[ev[1]], ev[2], ev[3], ev[4])
        elif kind == "on_module_load":
            plugins.on_module_load(
                machine, processes[ev[1]], _resolve_module(machine, ev[1], ev[2])
            )
        elif kind == "on_process_create":
            plugins.on_process_create(machine, processes[ev[1]])
        elif kind == "on_process_exit":
            plugins.on_process_exit(machine, processes[ev[1]], ev[2])
        elif kind == "on_frames_freed":
            plugins.on_frames_freed(machine, ev[1])
        elif kind == "on_packet_receive":
            plugins.on_packet_receive(machine, ev[1], ev[2])
        elif kind == "on_packet_send":
            plugins.on_packet_send(machine, ev[1])
        else:  # pragma: no cover - forward-compat guard
            raise SnapshotError(f"unknown boot-journal event {kind!r}")


# ----------------------------------------------------------------------
# freeze / thaw (persistent-id pickling around the machine skeleton)
# ----------------------------------------------------------------------

_TAG_MACHINE = "machine"
_TAG_ALLOCATOR = "allocator"
_TAG_MEMORY = "memory"


class _FreezePickler(pickle.Pickler):
    """Maps machine-skeleton back-references to persistent sentinels."""

    def __init__(self, file, machine: Machine) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._machine = machine

    def persistent_id(self, obj):
        if obj is self._machine:
            return _TAG_MACHINE
        if obj is self._machine.allocator:
            return _TAG_ALLOCATOR
        if obj is self._machine.memory:
            return _TAG_MEMORY
        return None


class _ThawUnpickler(pickle.Unpickler):
    """Re-binds the frozen tree's sentinels onto a fresh machine."""

    def __init__(self, file, machine: Machine) -> None:
        super().__init__(file)
        self._machine = machine

    def persistent_load(self, pid):
        if pid == _TAG_MACHINE:
            return self._machine
        if pid == _TAG_ALLOCATOR:
            return self._machine.allocator
        if pid == _TAG_MEMORY:
            return self._machine.memory
        raise SnapshotError(f"unknown persistent id {pid!r}")  # pragma: no cover


def _freeze(machine: Machine, obj) -> bytes:
    buf = io.BytesIO()
    _FreezePickler(buf, machine).dump(obj)
    return buf.getvalue()


def _thaw(blob: bytes, machine: Machine):
    try:
        return _ThawUnpickler(io.BytesIO(blob), machine).load()
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotIntegrityError(f"frozen state failed to thaw: {exc}") from exc


# ----------------------------------------------------------------------
# the snapshot
# ----------------------------------------------------------------------

class MachineSnapshot:
    """Everything needed to materialize the post-boot guest again.

    Immutable by convention: :meth:`fork` never mutates the snapshot, so
    one snapshot serves any number of guests (and, primed before a
    worker fork, is OS-CoW-shared across the whole pool).
    """

    def __init__(self, name: str, config: MachineConfig,
                 image: SparseMemoryImage, state_blob: bytes,
                 boot_blob: bytes, events_blob: bytes,
                 max_instructions: int,
                 digest: Optional[str] = None) -> None:
        self.name = name
        self.config = config
        self.image = image
        self.state_blob = state_blob
        self.boot_blob = boot_blob
        self.events_blob = events_blob
        self.max_instructions = max_instructions
        self.digest = digest if digest is not None else self.compute_digest()
        # Thawed-blob caches.  Boot-journal tuples and scenario events
        # are immutable plain data (frozen dataclasses, tuples of
        # ints/strings), so one thaw serves every fork; the kernel-tree
        # state blob, by contrast, MUST thaw fresh per fork.  Keyed by
        # blob identity so a corrupted (replaced) blob never hits a
        # stale cache.
        self._boot_cache: Optional[Tuple[bytes, list]] = None
        self._events_cache: Optional[Tuple[bytes, list]] = None

    # -- capture -----------------------------------------------------------------

    @classmethod
    def capture(cls, scenario: Scenario, name: Optional[str] = None) -> "MachineSnapshot":
        """Boot *scenario* once (setup only, nothing executed) and freeze it.

        The capture machine carries a :class:`BootJournalRecorder` (and
        nothing else) through setup, so every plugin-observable boot
        event is journaled for replay at fork time.  The scenario's
        scheduled events are frozen alongside: a fork needs no scenario
        object -- and no builder call -- to run the sample.
        """
        machine = Machine(scenario.config)
        recorder = BootJournalRecorder()
        machine.plugins.register(recorder)
        scenario.setup(machine)
        machine.plugins.unregister(recorder)
        return cls.from_machine(
            machine,
            boot_events=recorder.events,
            events=scenario.events,
            max_instructions=scenario.max_instructions,
            name=name or scenario.name,
        )

    @classmethod
    def from_machine(cls, machine: Machine, boot_events: Sequence[tuple] = (),
                     events: Sequence[Tuple[int, object]] = (),
                     max_instructions: int = 2_000_000,
                     name: str = "snapshot") -> "MachineSnapshot":
        """Freeze *machine* as it stands (pre-run: nothing has executed)."""
        if machine._started:
            raise SnapshotError("cannot snapshot a machine that has already run")
        cpu = machine.cpu
        state = {
            "kernel": machine.kernel,
            "devices": machine.devices,
            "allocator_free": list(machine.allocator._free),
            "cpu": {
                "regs": cpu.regs.snapshot(),
                "pc": cpu.pc,
                "flag_z": cpu.flag_z,
                "flag_n": cpu.flag_n,
                "halted": cpu.halted,
                "instret": cpu.instret,
                "mmu": cpu.mmu,
            },
            "machine": {
                "dma_next": machine._dma_next,
                "events": list(machine._events),
                "event_seq": machine._event_seq,
                "journal": list(machine.journal),
                "last_syscall": machine.last_syscall,
                "current_thread": machine._current_thread,
                "fault": machine.fault,
                "fault_records": list(machine.fault_records),
                "pending_fault": machine._pending_fault,
                "syscall_override": machine._syscall_override,
            },
        }
        return cls(
            name=name,
            config=dataclasses.replace(machine.config),
            image=SparseMemoryImage.capture(machine.memory),
            state_blob=_freeze(machine, state),
            boot_blob=_freeze(machine, list(boot_events)),
            events_blob=_freeze(machine, list(events)),
            max_instructions=max_instructions,
        )

    # -- integrity ---------------------------------------------------------------

    def compute_digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.config).encode())
        h.update(self.image.size.to_bytes(8, "little"))
        for pno in sorted(self.image._pages):
            h.update(pno.to_bytes(8, "little"))
            h.update(self.image._pages[pno])
        for blob in (self.state_blob, self.boot_blob, self.events_blob):
            h.update(len(blob).to_bytes(8, "little"))
            h.update(blob)
        return h.hexdigest()

    def verify(self) -> None:
        """Raise :class:`SnapshotIntegrityError` on any digest mismatch."""
        actual = self.compute_digest()
        if actual != self.digest:
            raise SnapshotIntegrityError(
                f"snapshot {self.name!r} digest mismatch: "
                f"expected {self.digest[:16]}..., got {actual[:16]}..."
            )

    # -- restore -----------------------------------------------------------------

    def materialize(self, metrics=None, verify: bool = True) -> Machine:
        """A runnable guest with the frozen state restored, **no plugins**.

        The warm pool pre-forks guests at this stage (plugin-free), then
        :meth:`arm`\\ s each with the job's own plugins at lease time.
        """
        if verify:
            self.verify()
        machine = Machine(dataclasses.replace(self.config), boot_kernel=False)
        if metrics is not None:
            machine.use_metrics(metrics)
        # Memory: blit the CoW pages into the fresh zeroed buffer.  The
        # buffer object itself is never replaced -- the CPU, translator,
        # and thawed address spaces all hold references to it.
        self.image.blit_into(machine.memory)
        state = _thaw(self.state_blob, machine)
        machine.kernel = state["kernel"]
        machine.devices = state["devices"]
        machine.allocator._free[:] = state["allocator_free"]
        cpu_state = state["cpu"]
        cpu = machine.cpu
        cpu.regs.restore(cpu_state["regs"])
        cpu.pc = cpu_state["pc"]
        cpu.flag_z = cpu_state["flag_z"]
        cpu.flag_n = cpu_state["flag_n"]
        cpu.halted = cpu_state["halted"]
        cpu.instret = cpu_state["instret"]
        cpu.mmu = cpu_state["mmu"]
        m = state["machine"]
        machine._dma_next = m["dma_next"]
        machine._events = list(m["events"])
        machine._event_seq = m["event_seq"]
        machine.journal = list(m["journal"])
        machine.last_syscall = m["last_syscall"]
        machine._current_thread = m["current_thread"]
        machine.fault = m["fault"]
        machine.fault_records = list(m["fault_records"])
        machine._pending_fault = m["pending_fault"]
        machine._syscall_override = m["syscall_override"]
        return machine

    def arm(self, machine: Machine, plugins: Sequence[Plugin] = ()) -> Machine:
        """Attach *plugins* to a materialized guest and replay boot.

        Mirrors a cold ``Scenario.build``: plugins first (they must
        observe boot), then the boot-event replay standing in for setup,
        then the scenario's scheduled events.
        """
        machine.plugins.register_all(plugins)
        if self._boot_cache is None or self._boot_cache[0] is not self.boot_blob:
            self._boot_cache = (self.boot_blob, _thaw(self.boot_blob, machine))
        replay_boot_events(machine, self._boot_cache[1])
        if self._events_cache is None or self._events_cache[0] is not self.events_blob:
            self._events_cache = (self.events_blob, _thaw(self.events_blob, machine))
        for at, event in self._events_cache[1]:
            machine.schedule(at, event)
        return machine

    def fork(self, plugins: Sequence[Plugin] = (), metrics=None,
             verify: bool = True) -> Machine:
        """Materialize + arm in one step (``Machine.fork_from`` body)."""
        return self.arm(self.materialize(metrics=metrics, verify=verify), plugins)

    def healthy(self, machine: Machine) -> bool:
        """Pool health check for a pre-forked (materialized) guest."""
        return (
            machine.kernel is not None
            and not machine._started
            and machine.fault is None
            and any(p.alive for p in machine.kernel.processes.values())
        )


# ----------------------------------------------------------------------
# warm record / replay (the snapshot-backed analysis pipeline)
# ----------------------------------------------------------------------

def snapshot_record(snapshot: MachineSnapshot, plugins: Sequence[Plugin] = (),
                    metrics=None, machine: Optional[Machine] = None) -> Recording:
    """:func:`~repro.emulator.record_replay.record`, from a warm fork.

    Pass *machine* to reuse a guest already leased (and armed) from a
    pool; otherwise one is forked here.
    """
    if machine is None:
        machine = snapshot.fork(plugins=plugins, metrics=metrics)
    stats = machine.run(snapshot.max_instructions)
    return Recording(
        scenario=None,  # warm recordings replay via snapshot_replay
        journal=list(machine.journal),
        final_instret=machine.now,
        stats=stats,
    )


def snapshot_replay(snapshot: MachineSnapshot, recording: Recording,
                    plugins: Sequence[Plugin] = (), verify: bool = True,
                    metrics=None, machine: Optional[Machine] = None) -> Machine:
    """:func:`~repro.emulator.record_replay.replay`, from a warm fork.

    The divergence check is the shared
    :func:`~repro.emulator.record_replay.verify_replay` -- warm replays
    honor the exact prefix rule cold replays do.
    """
    if machine is None:
        machine = snapshot.fork(plugins=plugins, metrics=metrics)
    machine.run(snapshot.max_instructions)
    if verify:
        verify_replay(recording, machine)
    return machine

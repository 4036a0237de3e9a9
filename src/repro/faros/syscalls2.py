"""Syscall tracing with argument decoding (the PANDA ``syscalls2`` analog).

The paper modified ``syscalls2`` "to get the system calls arguments and
follow their pointer arguments" (§V).  This plugin does the same: on
every syscall entry it decodes the argument registers against the
:mod:`repro.guestos.syscalls` metadata, dereferencing string pointers in
guest memory, and records one :class:`SyscallEvent` with the eventual
result.

The trace doubles as the API log the Cuckoo baseline analyses -- real
Cuckoo hooks user-mode API calls, which in this guest are 1:1 with
syscalls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.emulator.plugins import Plugin
from repro.guestos.syscalls import ArgKind, arg_specs, syscall_name
from repro.isa.cpu import AccessKind


@dataclass
class SyscallEvent:
    """One traced syscall."""

    tick: int
    pid: int
    process: str
    number: int
    name: str
    args: Dict[str, object] = field(default_factory=dict)
    result: Optional[int] = None

    def __str__(self) -> str:
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.args.items())
        result = "?" if self.result is None else f"{self.result:#x}"
        return f"[{self.tick}] {self.process}({self.pid}) {self.name}({rendered}) = {result}"


class Syscalls2Plugin(Plugin):
    """Records every syscall with decoded arguments."""

    def __init__(self, max_events: int = 100_000) -> None:
        super().__init__()
        self.events: List[SyscallEvent] = []
        self._max_events = max_events
        # Blocking syscalls complete later; match returns by (tid, number).
        self._pending: Dict[Tuple[int, int], SyscallEvent] = {}

    def on_syscall_enter(self, machine, thread, number, args) -> None:
        if len(self.events) >= self._max_events:
            return
        event = SyscallEvent(
            tick=machine.now,
            pid=thread.process.pid,
            process=thread.process.name,
            number=number,
            name=syscall_name(number),
            args=self._decode_args(thread.process, number, args),
        )
        self.events.append(event)
        self._pending[(thread.tid, number)] = event

    def on_syscall_return(self, machine, thread, number, result) -> None:
        event = self._pending.pop((thread.tid, number), None)
        if event is not None:
            event.result = result & 0xFFFFFFFF

    # -- decoding ------------------------------------------------------------------

    def _decode_args(self, process, number: int, raw_args) -> Dict[str, object]:
        decoded: Dict[str, object] = {}
        for spec, value in zip(arg_specs(number), raw_args):
            if spec.kind is ArgKind.PTR_STR:
                decoded[spec.name] = self._read_string(process, value)
            elif spec.kind in (ArgKind.PTR_IN, ArgKind.PTR_OUT):
                decoded[spec.name] = f"ptr:{value:#x}"
            elif spec.kind is ArgKind.VADDR:
                decoded[spec.name] = f"{value:#x}"
            else:
                decoded[spec.name] = value
        return decoded

    def _read_string(self, process, vaddr: int, limit: int = 128) -> str:
        """Follow a guest string pointer (best-effort; bad pointers show
        as a placeholder rather than failing the trace)."""
        out = bytearray()
        try:
            for i in range(limit):
                # The machine reference is not stored; translate through
                # the process and read lazily via its allocator's memory.
                paddr = process.aspace.translate(vaddr + i, AccessKind.READ)
                byte = self._memory.read_byte(paddr)
                if byte == 0:
                    break
                out.append(byte)
        except Exception:
            return f"<bad ptr {vaddr:#x}>"
        return out.decode("latin-1")

    # The memory handle is captured at machine start (plugins are
    # machine-agnostic until attached).
    def on_machine_start(self, machine) -> None:
        self._memory = machine.memory

    # -- queries ---------------------------------------------------------------------

    def for_process(self, name: str) -> List[SyscallEvent]:
        return [e for e in self.events if e.process.lower() == name.lower()]

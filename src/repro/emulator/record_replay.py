"""PANDA-style deterministic record/replay.

The paper's workflow (§V-C): run the malware once in a recording VM
(cheap), then *replay* the recording with the heavyweight FAROS taint
plugin attached.  This module reproduces that shape:

* a :class:`Scenario` bundles the guest setup (images, processes) with
  the scheduled nondeterministic inputs (packets, keystrokes);
* :func:`record` executes it once and captures the delivery journal;
* :func:`replay` re-executes with analysis plugins attached and verifies
  the execution did not diverge (same final instruction count), raising
  :class:`ReplayDivergence` otherwise.

Because every nondeterministic input enters through the machine's event
queue at an instruction-count timestamp, replays are bit-identical --
the property whole-system taint analysis needs to observe "the same"
execution it recorded.

The recording run usually executes through the basic-block translation
cache (:mod:`repro.isa.translate`) while the analysis replay steps
instruction-at-a-time with plugins attached.  That asymmetry is safe by
construction: block execution retires the same instruction stream at
the same clock ticks as interpretation, so journals, divergence checks,
and the faulted-replay *prefix rule* below are unaffected by which path
either run happened to take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.emulator.devices import Packet
from repro.emulator.machine import Machine, MachineConfig, RunStats
from repro.emulator.plugins import Plugin


@dataclass(frozen=True)
class PacketEvent:
    """An inbound packet from the outside world (the attacker machine)."""

    packet: Packet

    def deliver(self, machine: Machine) -> None:
        machine.kernel.deliver_packet(self.packet)

    def __repr__(self) -> str:
        return f"PacketEvent({self.packet!r})"


@dataclass(frozen=True)
class KeystrokeEvent:
    """The (simulated) user typing at the guest keyboard."""

    text: bytes

    def deliver(self, machine: Machine) -> None:
        machine.devices.keyboard.type_keys(self.text)

    def __repr__(self) -> str:
        return f"KeystrokeEvent({self.text!r})"


@dataclass
class Scenario:
    """A reproducible guest workload.

    :ivar setup: callable that prepares the machine -- registers images,
        spawns processes, seeds files.  It must be deterministic.
    :ivar events: ``(at_tick, event)`` pairs delivered during execution.
    :ivar max_instructions: execution budget per run.
    """

    name: str
    setup: Callable[[Machine], None]
    events: Sequence[Tuple[int, object]] = ()
    config: Optional[MachineConfig] = None
    max_instructions: int = 2_000_000

    def build(self, plugins: Sequence[Plugin] = (), metrics=None) -> Machine:
        """Construct a fresh machine with *plugins* attached.

        Plugins are registered *before* setup so they observe boot-time
        events (initial process creation, module loads) -- FAROS needs
        the kernel-module load event to plant export-table tags.

        *metrics* is an optional
        :class:`~repro.obs.metrics.MetricsRegistry` the machine binds
        its event counters into (None keeps the zero-cost null
        registry).
        """
        machine = Machine(self.config)
        if metrics is not None:
            machine.use_metrics(metrics)
        machine.plugins.register_all(plugins)
        self.setup(machine)
        for at, event in self.events:
            machine.schedule(at, event)
        return machine

    def run(self, plugins: Sequence[Plugin] = (), metrics=None) -> Machine:
        """Build and run to completion; returns the finished machine."""
        machine = self.build(plugins, metrics=metrics)
        machine.run(self.max_instructions)
        return machine


@dataclass
class Recording:
    """The artifact of :func:`record`: scenario + what actually happened.

    ``scenario`` is None for warm recordings made from a machine
    snapshot (:func:`repro.emulator.snapshot.snapshot_record`) -- those
    replay through the snapshot, not by rebuilding a scenario.
    """

    scenario: Optional[Scenario]
    journal: List[Tuple[int, object]]
    final_instret: int
    stats: RunStats


class ReplayDivergence(Exception):
    """A replay did not reproduce the recorded execution."""


def record(scenario: Scenario, plugins: Sequence[Plugin] = (), metrics=None) -> Recording:
    """Execute *scenario* once (cheaply) and capture its journal.

    *plugins* here are lightweight observers (e.g. a syscall tracer);
    the expensive analysis belongs in :func:`replay`.
    """
    machine = scenario.build(plugins, metrics=metrics)
    stats = machine.run(scenario.max_instructions)
    return Recording(
        scenario=scenario,
        journal=list(machine.journal),
        final_instret=machine.now,
        stats=stats,
    )


def replay(
    recording: Recording,
    plugins: Sequence[Plugin] = (),
    verify: bool = True,
    metrics=None,
) -> Machine:
    """Re-execute a recording with analysis *plugins* attached.

    With *verify* (default), raises :class:`ReplayDivergence` if the
    replay retires a different number of instructions or delivers a
    different event sequence than the recording -- the smoke test that
    determinism held.
    """
    machine = recording.scenario.build(plugins, metrics=metrics)
    machine.run(recording.scenario.max_instructions)
    if verify:
        verify_replay(recording, machine)
    return machine


def verify_replay(recording: Recording, machine: Machine) -> None:
    """The divergence check :func:`replay` applies, as a reusable piece.

    Warm (snapshot-forked) replays share this exact logic -- including
    the faulted-prefix rule -- via
    :func:`repro.emulator.snapshot.snapshot_replay`.
    """
    recorded = [(at, repr(ev)) for at, ev in recording.journal]
    replayed = [(at, repr(ev)) for at, ev in machine.journal]
    if machine.fault is not None or recording.stats.fault is not None:
        # A faulted run stops at the fault, so the replay may retire
        # fewer instructions than the recording did (analysis plugins
        # can trip replay-only faults, e.g. a taint budget that only
        # exists when FAROS is attached).  Determinism still requires
        # the replayed execution to be a *prefix* of the recording.
        if machine.now > recording.final_instret:
            raise ReplayDivergence(
                f"faulted replay retired {machine.now} instructions, "
                f"past the recording's {recording.final_instret}"
            )
        if replayed != recorded[: len(replayed)]:
            raise ReplayDivergence(
                "faulted replay delivered events the recording did not"
            )
    else:
        if machine.now != recording.final_instret:
            raise ReplayDivergence(
                f"replay retired {machine.now} instructions, "
                f"recording retired {recording.final_instret}"
            )
        if recorded != replayed:
            raise ReplayDivergence("replay delivered a different event sequence")

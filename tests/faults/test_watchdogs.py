"""In-guest watchdogs: instruction budget, runaway-loop containment,
taint budgets, and the shared progress sink they publish through."""

import pytest

from repro.emulator.machine import Machine, MachineConfig
from repro.faults.errors import TaintBudgetExceeded
from repro.faults.watchdog import (
    SharedProgressSink,
    progress_sink,
    read_progress,
    set_progress_sink,
)
from repro.taint.intern import GLOBAL_INTERNER
from repro.taint.policy import TaintPolicy
from repro.taint.tags import Tag, TagType
from repro.taint.tracker import TaintTracker

from tests.conftest import spawn_asm

SPIN = """
start:
    movi r7, 0
loop:
    addi r7, r7, 1
    jmp loop
"""

#: A well-behaved service: a few instructions, then back into the kernel.
SLEEP_LOOP = """
start:
    movi r1, 10
    movi r0, SYS_SLEEP
    syscall
    jmp start
"""


class TestInstructionBudget:
    def test_spinner_trips_the_watchdog(self):
        machine = Machine(MachineConfig(instruction_budget=1_000))
        spawn_asm(machine, "spin.exe", SPIN)
        stats = machine.run(max_instructions=50_000)
        assert stats.stop_reason == "fault"
        assert stats.fault is not None and stats.fault.kind == "WatchdogExpired"
        assert "instruction" in stats.fault.detail
        assert machine.fault is stats.fault
        # The watchdog fires at a slice boundary just past the budget,
        # never anywhere near the graceful max_instructions stop.
        assert 1_000 <= machine.now < 2_000

    def test_short_run_stays_under_budget(self):
        machine = Machine(MachineConfig(instruction_budget=100_000))
        spawn_asm(machine, "spin.exe", SPIN)
        stats = machine.run(max_instructions=5_000)
        assert stats.stop_reason == "budget"
        assert stats.fault is None

    def test_budget_fault_names_the_running_process(self):
        machine = Machine(MachineConfig(instruction_budget=1_000))
        spawn_asm(machine, "spin.exe", SPIN)
        stats = machine.run(max_instructions=50_000)
        assert stats.fault.process == "spin.exe"
        assert stats.fault.tick == machine.now


class TestSyscallStepBudget:
    def test_runaway_loop_is_declared(self):
        machine = Machine(MachineConfig(syscall_step_budget=500))
        spawn_asm(machine, "spin.exe", SPIN)
        stats = machine.run(max_instructions=50_000)
        assert stats.stop_reason == "fault"
        assert stats.fault.kind == "WatchdogExpired"
        assert "without a syscall" in stats.fault.detail
        assert machine.now < 50_000  # cut short, not a graceful stop

    def test_syscall_heavy_guest_survives(self):
        machine = Machine(MachineConfig(syscall_step_budget=500))
        spawn_asm(machine, "svc.exe", SLEEP_LOOP)
        stats = machine.run(max_instructions=20_000)
        assert stats.stop_reason != "fault"
        assert stats.fault is None


class TestTaintBudgets:
    def _paddrs(self, n):
        return list(range(0x1000, 0x1000 + n))

    def test_tainted_bytes_cap_trips(self):
        tracker = TaintTracker(policy=TaintPolicy(max_tainted_bytes=4))
        with pytest.raises(TaintBudgetExceeded) as exc:
            tracker.taint_range(self._paddrs(8), Tag(TagType.NETFLOW, 1))
        assert exc.value.resource == "tainted bytes"
        assert exc.value.used == 8 and exc.value.budget == 4

    def test_under_cap_is_silent(self):
        tracker = TaintTracker(policy=TaintPolicy(max_tainted_bytes=8))
        tracker.taint_range(self._paddrs(8), Tag(TagType.NETFLOW, 1))
        assert tracker.shadow.tainted_bytes == 8

    def test_prov_node_cap_uses_a_private_interner(self):
        # The process-wide interner accumulates canonical nodes across
        # runs; a budget measured against it would trip at a different
        # point every run.  A budgeted tracker must therefore get its
        # own interner automatically.
        tracker = TaintTracker(policy=TaintPolicy(max_prov_nodes=100))
        assert tracker.interner is not GLOBAL_INTERNER
        unbudgeted = TaintTracker(policy=TaintPolicy())
        assert unbudgeted.interner is GLOBAL_INTERNER

    def test_no_budget_means_no_checks(self):
        tracker = TaintTracker(policy=TaintPolicy())
        tracker.taint_range(self._paddrs(64), Tag(TagType.NETFLOW, 1))
        assert tracker.shadow.tainted_bytes == 64


class TestProgressSink:
    @pytest.fixture(autouse=True)
    def _restore_sink(self):
        yield
        set_progress_sink(None)

    def test_update_and_read_round_trip(self, machine):
        array = [0] * 4
        sink = SharedProgressSink(array)
        sink.reset()
        assert read_progress(array) is None  # nothing published yet
        spawn_asm(machine, "spin.exe", SPIN)
        machine.run(max_instructions=500)
        sink.update(machine)
        progress = read_progress(array)
        assert progress == {
            "tick": machine.now,
            "pc": machine.cpu.pc,
            "syscall": machine.last_syscall,
        }

    def test_reset_marks_stale(self):
        array = [0] * 4
        sink = SharedProgressSink(array)
        array[:] = [10, 20, 3, 1]
        assert read_progress(array) is not None
        sink.reset()
        assert read_progress(array) is None

    def test_machine_publishes_every_slice_when_installed(self):
        array = [0] * 4
        set_progress_sink(SharedProgressSink(array))
        assert progress_sink() is not None
        machine = Machine(MachineConfig())
        spawn_asm(machine, "spin.exe", SPIN)
        machine.run(max_instructions=1_000)
        progress = read_progress(array)
        assert progress is not None
        assert progress["tick"] == machine.now

    def test_negative_syscall_slot_decodes_to_none(self):
        assert read_progress([50, 60, -1, 1]) == {
            "tick": 50, "pc": 60, "syscall": None,
        }

"""Unit tests for the plugin manager and callback dispatch."""

from repro.emulator.machine import Machine, MachineConfig
from repro.emulator.plugins import Plugin, PluginManager

from tests.conftest import spawn_asm


class Recorder(Plugin):
    """Counts every callback it receives."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def on_machine_start(self, machine):
        self.calls.append("start")

    def on_machine_stop(self, machine):
        self.calls.append("stop")

    def on_syscall_enter(self, machine, thread, number, args):
        self.calls.append(("enter", number))

    def on_syscall_return(self, machine, thread, number, result):
        self.calls.append(("return", number, result))

    def on_process_create(self, machine, process):
        self.calls.append(("create", process.name))

    def on_process_exit(self, machine, process, status):
        self.calls.append(("exit", process.name, status))


class TestPluginManager:
    def test_registration_order_preserved(self):
        manager = PluginManager()
        a, b = Plugin(), Plugin()
        manager.register(a)
        manager.register(b)
        assert manager.plugins == (a, b)

    def test_unregister(self):
        manager = PluginManager()
        p = manager.register(Plugin())
        manager.unregister(p)
        assert manager.plugins == ()

    def test_register_all(self):
        manager = PluginManager()
        manager.register_all([Plugin(), Plugin()])
        assert len(manager.plugins) == 2

    def test_default_name_is_class_name(self):
        assert Plugin().name == "Plugin"
        assert Recorder().name == "Recorder"

    def test_hook_attribute_reaches_every_plugin(self):
        manager = PluginManager()
        a, b = Recorder(), Recorder()
        manager.register_all([a, b])
        manager.on_machine_start(None)
        assert a.calls == ["start"] and b.calls == ["start"]

    def test_base_noops_are_skipped_in_dispatch_lists(self):
        # A bare Plugin() overrides nothing, so no hook list contains it.
        manager = PluginManager()
        manager.register(Plugin())
        recorder = manager.register(Recorder())
        assert manager.handlers("on_machine_start") == (
            recorder.on_machine_start,
        )
        assert manager.handlers("on_guest_fault") == ()

    def test_instance_assigned_hook_participates(self):
        # The documented contract: a callable assigned on the instance
        # *before* register() joins the dispatch list like an override.
        seen = []
        seeder = Plugin()
        seeder.on_machine_start = lambda machine: seen.append(machine)
        manager = PluginManager()
        manager.register(seeder)
        manager.on_machine_start("m")
        assert seen == ["m"]

    def test_unregister_rebuilds_dispatch_lists(self):
        manager = PluginManager()
        recorder = manager.register(Recorder())
        manager.unregister(recorder)
        manager.on_machine_start(None)
        assert recorder.calls == []


class TestCallbackFlow:
    def test_full_lifecycle_callback_sequence(self):
        machine = Machine(MachineConfig())
        recorder = Recorder()
        machine.plugins.register(recorder)
        spawn_asm(machine, "a.exe", "start: movi r1, 5\nmovi r0, SYS_EXIT\nsyscall")
        machine.run()
        assert recorder.calls[0] == ("create", "a.exe")
        assert "start" in recorder.calls
        assert ("enter", 1) in recorder.calls  # SYS_EXIT
        assert ("exit", "a.exe", 5) in recorder.calls
        assert recorder.calls[-1] == "stop"

    def test_machine_start_fires_once_across_runs(self):
        machine = Machine(MachineConfig())
        recorder = Recorder()
        machine.plugins.register(recorder)
        spawn_asm(machine, "a.exe", "start:\nmovi r1, 9000\nmovi r0, SYS_SLEEP\nsyscall\nhlt")
        machine.run(max_instructions=1_000)
        machine.run(max_instructions=20_000)
        assert recorder.calls.count("start") == 1

    def test_syscall_return_carries_result(self):
        machine = Machine(MachineConfig())
        recorder = Recorder()
        machine.plugins.register(recorder)
        spawn_asm(
            machine,
            "a.exe",
            "start:\nmovi r1, 64\nmovi r2, PERM_RW\nmovi r0, SYS_ALLOC\nsyscall\nhlt",
        )
        machine.run()
        returns = [c for c in recorder.calls if c[0] == "return" and c[1] == 10]
        assert returns and returns[0][2] != 0xFFFFFFFF

    def test_guest_fault_callback(self):
        events = []

        class FaultWatcher(Plugin):
            def on_guest_fault(self, machine, thread, fault):
                events.append(type(fault).__name__)

        machine = Machine(MachineConfig())
        machine.plugins.register(FaultWatcher())
        spawn_asm(machine, "bad.exe", "start: movi r1, 0xff0000\nld r2, [r1]\nhlt")
        machine.run()
        assert events == ["PageFault"]

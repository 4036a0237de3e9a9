"""The plugin callback architecture (PANDA analog).

PANDA's key architectural contribution is a callback registry that lets
analysis plugins observe whole-system execution -- instruction execution,
syscalls, OS events -- without modifying the emulator.  This module
reproduces that shape: :class:`Plugin` declares every observation point as
a no-op method, and :class:`PluginManager` fans events out to registered
plugins in registration order.

Registration order matters for FAROS: the taint tracker must see each
instruction *after* detection logic has inspected pre-propagation shadow
state, so the FAROS plugin registers its detector with the tracker rather
than ordering against it (see :mod:`repro.taint.tracker`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guards, typing only
    from repro.emulator.devices import Packet
    from repro.emulator.machine import Machine
    from repro.guestos.loader import Module
    from repro.guestos.process import Process, Thread
    from repro.isa.cpu import InstructionEffects


class Plugin:
    """Base class for emulator plugins; override the callbacks you need.

    Every callback receives the :class:`~repro.emulator.machine.Machine`
    first, mirroring PANDA's convention of passing the CPU state pointer
    to every callback.
    """

    #: Human-readable plugin name (defaults to the class name).
    name: str = ""

    def __init__(self) -> None:
        if not self.name:
            self.name = type(self).__name__

    # -- machine lifecycle -------------------------------------------------------

    def on_machine_start(self, machine: "Machine") -> None:
        """The machine is about to execute its first instruction."""

    def on_machine_stop(self, machine: "Machine") -> None:
        """The machine stopped (all work done or budget exhausted)."""

    # -- execution ----------------------------------------------------------------

    def on_insn_exec(
        self, machine: "Machine", thread: "Thread", fx: "InstructionEffects"
    ) -> None:
        """One instruction retired on *thread*; *fx* describes its effects."""

    def block_taint_unit(self):
        """The taint engine this plugin's instrumentation reduces to, if any.

        Asked when the plugin manager plans the execution tier, of
        every plugin that implements :meth:`on_insn_exec`.  A plugin
        whose *entire* per-instruction need is Table I taint
        propagation (the taint tracker itself, or FAROS wrapping one)
        returns its :class:`~repro.taint.tracker.TaintTracker`;
        the block translator can then run the slice block-at-a-time
        through fused taint closures (the translated-tainted dispatch
        tier) instead of dropping to the per-instruction interpreter.
        The default ``None`` means "I need the real effect stream" and
        forces interpreter stepping -- the correct answer for any plugin
        that inspects :class:`~repro.isa.cpu.InstructionEffects` in ways
        the taint tier does not reproduce (e.g. the reference tracker,
        trace recorders, custom analyses).  A plugin that only counts
        where execution went should not implement :meth:`on_insn_exec`
        at all: the hot-block profiler
        (:class:`~repro.obs.profiler.HotBlockProfiler`) reads the
        translation cache's per-block counters instead, so an observed
        run executes the same tier as an unobserved one.
        """
        return None

    def on_guest_fault(self, machine: "Machine", thread: "Thread", fault: Exception) -> None:
        """*thread* raised a guest fault (the kernel will kill the process)."""

    def on_machine_fault(self, machine: "Machine", record) -> None:
        """A machine-level fault was recorded (terminal, or an injected
        non-terminal one).  *record* is a
        :class:`~repro.faults.errors.FaultRecord`; analysis plugins use
        it to mark their reports degraded."""

    # -- syscalls (the syscalls2 surface) ------------------------------------------

    def on_syscall_enter(
        self, machine: "Machine", thread: "Thread", number: int, args: Sequence[int]
    ) -> None:
        """A SYSCALL instruction trapped, before the kernel runs it."""

    def on_syscall_return(
        self, machine: "Machine", thread: "Thread", number: int, result: int
    ) -> None:
        """The kernel finished a syscall (blocking calls report on completion)."""

    # -- OS introspection (the OSI surface) -----------------------------------------

    def on_process_create(self, machine: "Machine", process: "Process") -> None:
        """A new process exists (possibly created suspended)."""

    def on_process_exit(self, machine: "Machine", process: "Process", status: int) -> None:
        """A process terminated with *status*."""

    def on_module_load(self, machine: "Machine", process: "Process", module: "Module") -> None:
        """*module* (and its export table) became mapped into *process*."""

    # -- data movement the CPU does not see ------------------------------------------

    def on_phys_write(
        self, machine: "Machine", paddrs: Sequence[int], source: str
    ) -> None:
        """External data (DMA, device input, image load) landed at *paddrs*.

        *source* is a short origin label, e.g. ``"nic"``, ``"keyboard"``,
        ``"image:evil.exe"``; taint plugins decide from it whether the
        write clears or seeds shadow state.
        """

    def on_phys_copy(
        self,
        machine: "Machine",
        dst_paddrs: Sequence[int],
        src_paddrs: Sequence[int],
        actor: "Process" = None,
    ) -> None:
        """The kernel moved bytes (syscall buffer copy, cross-process write).

        ``dst_paddrs[i]`` received the byte at ``src_paddrs[i]``; whole-
        system taint engines must apply their copy rule per byte here,
        because these moves happen inside the kernel where no guest
        instruction is executed.  *actor* is the process on whose behalf
        the kernel moved the bytes (the syscall requester), so provenance
        engines can append its process tag -- that is how the injecting
        process ends up in an injected byte's chronology.
        """

    def on_frames_freed(self, machine: "Machine", frames: Sequence[int]) -> None:
        """Physical *frames* were returned to the allocator (process exit,
        unmap).  Shadow state for those bytes is now stale and must drop."""

    # -- network / file observation ---------------------------------------------------

    def on_packet_receive(
        self, machine: "Machine", packet: "Packet", paddrs: Sequence[int]
    ) -> None:
        """*packet* arrived; its payload now occupies the DMA bytes *paddrs*."""

    def on_packet_send(self, machine: "Machine", packet: "Packet") -> None:
        """The guest transmitted *packet* (observable by sandboxes)."""

    def on_file_read(
        self,
        machine: "Machine",
        process: "Process",
        path: str,
        version: int,
        paddrs: Sequence[int],
    ) -> None:
        """File *path* content was read into memory at *paddrs*."""

    def on_file_write(
        self,
        machine: "Machine",
        process: "Process",
        path: str,
        version: int,
        paddrs: Sequence[int],
    ) -> None:
        """Buffer bytes at *paddrs* were written into file *path*."""


#: Every observation point on the Plugin base class.  Computed once at
#: import: the hook vocabulary is the class surface, not per-instance.
HOOK_NAMES: Tuple[str, ...] = tuple(
    sorted(name for name in vars(Plugin) if name.startswith("on_"))
)


def _noop(*args) -> None:
    """The dispatcher for a hook no registered plugin overrides."""


def _fan(handlers: List[Callable]) -> Callable:
    """A callable invoking *handlers* in order (specialised small cases)."""
    if not handlers:
        return _noop
    if len(handlers) == 1:
        return handlers[0]

    def fan(*args) -> None:
        for handler in handlers:
            handler(*args)

    return fan


class PluginManager:
    """Dispatches machine events to plugins in registration order.

    Dispatch is **precomputed**: :meth:`register` walks the hook surface
    once and, for every hook the plugin actually overrides, appends its
    bound method to that hook's dispatch list.  Each hook is then
    exposed as a plain attribute -- ``manager.on_syscall_enter(machine,
    thread, number, args)`` -- whose call cost is the handlers
    themselves: no string lookup, no ``getattr``, and no visits to
    plugins that would only run the base-class no-op.  A hook nobody
    overrides dispatches to a shared no-op, and a hook exactly one
    plugin overrides dispatches *directly to its bound method*, which is
    what keeps the per-instruction path (``on_insn_exec``) flat.

    A plugin participates in a hook when ``getattr(plugin, name)`` is
    not the inherited :class:`Plugin` no-op -- a class override or a
    callable assigned on the instance both count, but instance
    assignment must happen *before* :meth:`register` (the lists are not
    rebuilt when a registered plugin mutates).

    The same walk fixes :attr:`plan`, the ``(mode, unit)`` pair the
    machine reads at every slice to pick its execution tier:

    * ``("none", None)`` -- no plugin implements ``on_insn_exec``: run
      the uninstrumented path (translated blocks);
    * ``("taint", tracker)`` -- every implementer reduces to the *same*
      taint engine (:meth:`Plugin.block_taint_unit`): run the
      translated-tainted tier, with fused propagation closures standing
      in for the effect stream;
    * ``("full", None)`` -- some implementer needs the real
      :class:`~repro.isa.cpu.InstructionEffects` stream (the reference
      tracker, or two plugins that reduce to different taint engines):
      step the interpreter and fan out ``on_insn_exec``.

    In ``src/`` only the taint trackers implement ``on_insn_exec``
    (FAROS forwards to its tracker), so FAROS runs, observed or not,
    plan ``"taint"`` from their first instruction.
    """

    def __init__(self) -> None:
        self._plugins: List[Plugin] = []
        self._handlers: Dict[str, List[Callable]] = {}
        self._rebuild()

    @property
    def plugins(self) -> Tuple[Plugin, ...]:
        return tuple(self._plugins)

    def _rebuild(self) -> None:
        """Recompute every hook's dispatch list, its fan attribute and
        the execution :attr:`plan`."""
        handlers: Dict[str, List[Callable]] = {name: [] for name in HOOK_NAMES}
        units = []  # block_taint_unit() of each on_insn_exec implementer
        for plugin in self._plugins:
            for name in HOOK_NAMES:
                # A bound method's __func__ is its class function; a
                # callable assigned on the instance has no __func__ and
                # compares as itself.  Either way, anything that is not
                # the Plugin base no-op participates in the hook.
                hook = getattr(plugin, name)
                if getattr(hook, "__func__", hook) is not getattr(Plugin, name):
                    handlers[name].append(hook)
                    if name == "on_insn_exec":
                        units.append(plugin.block_taint_unit())
        self._handlers = handlers
        for name, hooked in handlers.items():
            setattr(self, name, _fan(hooked))
        if not units:
            self.plan = ("none", None)
        elif units[0] is not None and all(u is units[0] for u in units):
            self.plan = ("taint", units[0])
        else:
            self.plan = ("full", None)

    def register(self, plugin: Plugin) -> Plugin:
        """Attach *plugin* and precompute its hook dispatch; returns it
        for chaining."""
        self._plugins.append(plugin)
        self._rebuild()
        return plugin

    def register_all(self, plugins: Iterable[Plugin]) -> None:
        """Attach *plugins* in order with a single rebuild."""
        self._plugins.extend(plugins)
        self._rebuild()

    def unregister(self, plugin: Plugin) -> None:
        self._plugins.remove(plugin)
        self._rebuild()

    def handlers(self, hook: str) -> Tuple[Callable, ...]:
        """The precomputed dispatch list for *hook* (introspection)."""
        return tuple(self._handlers[hook])

"""The guest kernel: syscalls, scheduling, and device plumbing.

Every path data can take between guest-visible locations runs through
methods here, and each one is instrumented for whole-system DIFT:

* packet payloads land in the NIC DMA ring via
  :meth:`Machine.phys_write` (``source="nic"``) and are announced with
  ``on_packet_receive`` -- FAROS' netflow-tag insertion point;
* ``recv``/``NtReadFile``/``NtWriteVirtualMemory`` move bytes with
  :meth:`Machine.phys_copy`, which applies the taint copy rule per byte;
* file reads/writes announce the guest buffer's physical addresses via
  ``on_file_read``/``on_file_write`` -- the file-tag insertion points;
* module loads announce export tables via ``on_module_load``.

Blocking syscalls use a restart model: a blocked thread stores its
syscall number+args and the kernel simply re-runs the handler when the
wait condition may have changed (packet arrival, timer expiry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from collections import deque

from repro.emulator.devices import Packet
from repro.guestos import layout
from repro.guestos.addrspace import (
    PERM_R,
    PERM_RW,
    PERM_RWX,
    PERM_RX,
    PERM_W,
    PERM_X,
    AddressSpace,
)
from repro.guestos.files import FileError, FileNode, FileSystem
from repro.guestos.loader import Module, build_kernel_module, fnv1a32
from repro.guestos.netstack import NetError, NetStack, Socket
from repro.guestos.process import (
    Process,
    Thread,
    ThreadState,
    Wait,
    WaitReason,
    fresh_context,
)
from repro.guestos.syscalls import ERR, Sys
from repro.isa.assembler import Program
from repro.isa.cpu import AccessKind
from repro.isa.errors import GuestFault
from repro.isa.memory import PAGE_SHIFT, PAGE_SIZE, contiguous_runs

if TYPE_CHECKING:  # pragma: no cover
    from repro.emulator.machine import Machine

#: Default stack size per thread, in pages.
STACK_BYTES = layout.STACK_PAGES * PAGE_SIZE


@dataclass
class FileHandle:
    """An open file: the node plus this handle's sequential offset."""

    node: FileNode
    offset: int = 0


class Kernel:
    """The guest OS kernel for one machine."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.fs = FileSystem()
        self.netstack = NetStack(machine.devices.nic.ip)
        self.processes: Dict[int, Process] = {}
        self._images: Dict[str, Program] = {}
        self._next_pid = 100
        self._next_tid = 1000
        self._ready: deque = deque()
        self._blocked: List[Thread] = []
        #: Commands passed to WinExec, for sandbox observation.
        self.shell_log: List[Tuple[int, str]] = []
        #: (pid, text) console lines across all processes.
        self.console_log: List[Tuple[int, str]] = []
        #: Global atom table: atom id -> (kernel paddrs, length).  Atoms
        #: live in kernel-owned frames -- user data parked in kernel
        #: memory, which is what AtomBombing abuses as a covert
        #: cross-process channel.
        self._atoms: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        self._next_atom = 0xC000
        self.kernel_module = self._install_kernel_module()

    # ------------------------------------------------------------------
    # boot-time setup
    # ------------------------------------------------------------------

    def _install_kernel_module(self) -> Module:
        """Place the shared kernel module into reserved physical frames."""
        module = build_kernel_module()
        n_pages = (module.size + PAGE_SIZE - 1) >> PAGE_SHIFT
        # Reserved low memory, above the DMA ring: no user frames live here.
        base_paddr = layout.DMA_BASE + layout.DMA_SIZE
        if base_paddr + n_pages * PAGE_SIZE > layout.KERNEL_RESERVED:
            raise MemoryError("kernel module does not fit in reserved memory")
        self._kernel_frames = [
            (base_paddr >> PAGE_SHIFT) + i for i in range(n_pages)
        ]
        paddrs = tuple(range(base_paddr, base_paddr + module.size))
        self.machine.phys_write(paddrs, module.image, source="kernel")
        return module

    def register_image(self, path: str, program: Program) -> None:
        """Install an executable image on disk (and remember its entry)."""
        if program.base != layout.IMAGE_BASE:
            raise ValueError(
                f"images must be assembled for base {layout.IMAGE_BASE:#x}"
            )
        self.fs.create(path, program.code)
        self._images[path.lower()] = program

    def image_program(self, path: str) -> Optional[Program]:
        return self._images.get(path.lower())

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------

    def spawn(
        self,
        image_path: str,
        name: Optional[str] = None,
        suspended: bool = False,
        parent: Optional[Process] = None,
    ) -> Process:
        """Create a process from a registered image.

        The image content is *read from the filesystem* into the new
        address space through the instrumented write path, so the new
        process' code bytes start life carrying a file tag -- exactly as
        a real loader's ``NtReadFile``-backed section mapping would under
        whole-system DIFT.
        """
        program = self.image_program(image_path)
        if program is None:
            raise FileError(f"no such image: {image_path}")
        pid = self._next_pid
        self._next_pid += 1
        aspace = AddressSpace(asid=0x1000 + pid * 0x10, allocator=self.machine.allocator)
        proc = Process(
            pid=pid,
            name=name or image_path.rsplit("\\", 1)[-1],
            image_path=image_path,
            aspace=aspace,
            parent_pid=parent.pid if parent else None,
        )
        proc.created_suspended = suspended
        self.processes[pid] = proc

        # Shared kernel module (stubs + export table), read+execute.
        aspace.map_shared(
            layout.KERNEL_SHARED_BASE,
            self._kernel_frames,
            PERM_RX,
            name="kernel32.dll",
            module="kernel32.dll",
        )
        # Image: module-backed (so malfind ignores it), RWX for data writes.
        image_size = max(len(program.code), 1)
        aspace.map_region(layout.IMAGE_BASE, image_size, PERM_RWX, name="image")
        for area in aspace.areas:
            if area.name == "image":
                area.module = proc.name
        # Stack.
        aspace.map_region(
            layout.STACK_TOP - STACK_BYTES, STACK_BYTES, PERM_RW, name="stack"
        )

        # Copy the image through the instrumented path: a file read.
        node = self.fs.open(image_path)
        version = node.touch()
        paddrs = aspace.translate_range(
            layout.IMAGE_BASE, len(program.code), AccessKind.WRITE
        )
        self.machine.phys_write(paddrs, program.code, source=f"file:{image_path}")
        self.machine.plugins.on_file_read(
            self.machine, proc, node.path, version, paddrs
        )

        image_module = Module(
            name=proc.name, base=layout.IMAGE_BASE, image=program.code, path=image_path
        )
        proc.modules.append(image_module)

        thread = self._new_thread(proc, entry=program.entry)
        if suspended:
            thread.state = ThreadState.SUSPENDED
        else:
            self._enqueue(thread)

        self.machine.plugins.on_module_load(self.machine, proc, self.kernel_module)
        self.machine.plugins.on_module_load(self.machine, proc, image_module)
        self.machine.plugins.on_process_create(self.machine, proc)
        return proc

    def _new_thread(self, proc: Process, entry: int, sp: Optional[int] = None, arg: int = 0) -> Thread:
        thread = Thread(
            tid=self._next_tid,
            process=proc,
            context=fresh_context(entry, sp=sp if sp is not None else layout.STACK_TOP, arg=arg),
        )
        self._next_tid += 1
        proc.threads.append(thread)
        return thread

    def terminate_process(self, proc: Process, status: int) -> None:
        """Tear a process down (exit, kill, or crash)."""
        if not proc.alive:
            return
        proc.alive = False
        proc.exit_code = status
        for thread in proc.threads:
            thread.state = ThreadState.DEAD
            if thread in self._blocked:
                self._blocked.remove(thread)
        self._ready = deque(t for t in self._ready if t.process is not proc)
        proc.aspace.release_all()
        self.machine.plugins.on_process_exit(self.machine, proc, status)

    def crash_process(self, proc: Process, fault: GuestFault) -> None:
        """Kill *proc* after an unhandled guest fault."""
        self.console_log.append((proc.pid, f"*** fault: {fault}"))
        self.terminate_process(proc, status=0xDEAD)

    def find_process(self, name: str, exclude_pid: Optional[int] = None) -> Optional[Process]:
        for proc in self.processes.values():
            if proc.alive and proc.name.lower() == name.lower() and proc.pid != exclude_pid:
                return proc
        return None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def _enqueue(self, thread: Thread) -> None:
        thread.state = ThreadState.READY
        self._ready.append(thread)

    def requeue(self, thread: Thread) -> None:
        """Put a thread whose quantum expired back on the run queue."""
        self._enqueue(thread)

    def pick_thread(self) -> Optional[Thread]:
        """Wake due sleepers, then pop the next runnable thread."""
        self.wake_sleepers()
        while self._ready:
            thread = self._ready.popleft()
            if thread.state is ThreadState.READY:
                return thread
        return None

    def wake_sleepers(self) -> None:
        now = self.machine.now
        for thread in list(self._blocked):
            wait = thread.wait
            if wait and wait.reason is WaitReason.SLEEP and now >= wait.data:
                self._complete_wait(thread, result=0)

    def next_wake_at(self) -> Optional[int]:
        """Earliest absolute tick a sleeping thread becomes runnable."""
        ticks = [
            t.wait.data
            for t in self._blocked
            if t.wait and t.wait.reason is WaitReason.SLEEP
        ]
        return min(ticks) if ticks else None

    def _block(self, thread: Thread, reason: WaitReason, data, num: int, args: tuple) -> None:
        thread.state = ThreadState.BLOCKED
        thread.wait = Wait(reason, data, num, args)
        self._blocked.append(thread)

    def _complete_wait(self, thread: Thread, result: int) -> None:
        """Finish a blocked syscall: deliver result, make runnable."""
        wait = thread.wait
        thread.wait = None
        if thread in self._blocked:
            self._blocked.remove(thread)
        from repro.isa.registers import Reg

        thread.context["regs"][Reg.R0] = result & 0xFFFFFFFF
        self._enqueue(thread)
        if wait is not None:
            self.machine.plugins.on_syscall_return(
                self.machine, thread, wait.syscall, result
            )

    def _retry_blocked_io(self) -> None:
        """Re-run blocked RECV/ACCEPT handlers after a packet delivery."""
        for thread in list(self._blocked):
            wait = thread.wait
            if wait is None or wait.reason not in (WaitReason.RECV, WaitReason.ACCEPT):
                continue
            result = self._dispatch(thread, wait.syscall, wait.args, retrying=True)
            if result is not None:
                self._complete_wait(thread, result)

    # ------------------------------------------------------------------
    # packet delivery (called by the machine's event loop)
    # ------------------------------------------------------------------

    def deliver_packet(self, packet: Packet) -> None:
        """DMA an inbound packet into guest memory and route it."""
        paddrs = self.machine.dma_alloc(len(packet.payload))
        if packet.payload:
            self.machine.phys_write(paddrs, packet.payload, source="nic")
        self.machine._ctr_packets_in.inc()
        self.machine.plugins.on_packet_receive(
            self.machine, packet, paddrs
        )
        if self.netstack.deliver(packet, paddrs) is not None:
            self._retry_blocked_io()

    # ------------------------------------------------------------------
    # user-memory helpers
    # ------------------------------------------------------------------

    def _read_user(self, proc: Process, vaddr: int, n: int) -> Tuple[bytes, Tuple[int, ...]]:
        paddrs = proc.aspace.translate_range(vaddr, n, AccessKind.READ)
        read_bytes = self.machine.memory.read_bytes
        data = b"".join(
            read_bytes(start, length) for start, length in contiguous_runs(paddrs)
        )
        return data, paddrs

    def _read_user_string(self, proc: Process, vaddr: int, limit: int = 256) -> str:
        out = bytearray()
        for i in range(limit):
            paddr = proc.aspace.translate(vaddr + i, AccessKind.READ)
            byte = self.machine.memory.read_byte(paddr)
            if byte == 0:
                break
            out.append(byte)
        return out.decode("latin-1")

    # ------------------------------------------------------------------
    # syscall dispatch
    # ------------------------------------------------------------------

    def syscall(self, thread: Thread, number: int, args: tuple) -> Optional[int]:
        """Run one syscall; *args* holds the five argument registers
        R1-R5.  Returns the result, or ``None`` if the thread blocked
        (or died) and must not be resumed by the caller."""
        try:
            result = self._dispatch(thread, number, args, retrying=False)
        except GuestFault:
            # A bad pointer from user space is the guest's bug: fail the
            # call rather than the machine (Windows returns an NTSTATUS).
            return ERR
        except (FileError, NetError):
            return ERR
        return result

    def _dispatch(
        self, thread: Thread, number: int, args: tuple, retrying: bool
    ) -> Optional[int]:
        """Run syscall *number* with *args*, the five argument registers
        R1-R5, through the syscall table."""
        handler = _SYSCALL_TABLE.get(number)
        if handler is None:
            return ERR  # unknown syscall number
        return handler(self, thread, number, args, retrying)

    # ------------------------------------------------------------------
    # syscall handlers: (thread, number, five args, retrying) -> result,
    # or None when the thread blocked or died
    # ------------------------------------------------------------------

    # ---- process self-management ---------------------------------
    def _sys_exit(self, thread, number, args, retrying):
        self.terminate_process(thread.process, args[0])
        return None

    def _sys_write_console(self, thread, number, args, retrying):
        proc = thread.process
        data, _ = self._read_user(proc, args[0], min(args[1], 4096))
        text = data.decode("latin-1")
        proc.console.append(text)
        self.console_log.append((proc.pid, text))
        return len(data)

    def _sys_sleep(self, thread, number, args, retrying):
        self._block(thread, WaitReason.SLEEP, self.machine.now + max(args[0], 1), number, args)
        return None

    def _sys_get_time(self, thread, number, args, retrying):
        return self.machine.now & 0x7FFFFFFF

    # ---- own virtual memory --------------------------------------
    def _sys_alloc(self, thread, number, args, retrying):
        return self._alloc_in(thread.process.aspace, size=args[0], perms=args[1], addr_hint=0)

    def _sys_free(self, thread, number, args, retrying):
        try:
            thread.process.aspace.unmap_region(args[0])
            return 0
        except GuestFault:
            return ERR

    def _sys_protect(self, thread, number, args, retrying):
        a1, a2, a3 = args[:3]
        thread.process.aspace.protect_region(a1, a2, a3 or PERM_RW)
        return 0

    # ---- filesystem ----------------------------------------------
    def _sys_create_file(self, thread, number, args, retrying):
        proc = thread.process
        path = self._read_user_string(proc, args[0])
        node = self.fs.create(path)
        return proc.add_handle("file", FileHandle(node))

    def _sys_open_file(self, thread, number, args, retrying):
        proc = thread.process
        path = self._read_user_string(proc, args[0])
        if not self.fs.exists(path):
            return ERR
        return proc.add_handle("file", FileHandle(self.fs.open(path)))

    def _sys_read_file(self, thread, number, args, retrying):
        proc = thread.process
        machine = self.machine
        a1, a2, a3 = args[:3]
        fh = proc.get_handle(a1, "file")
        if fh is None:
            return ERR
        n = min(a3, len(fh.node.data) - fh.offset)
        if n <= 0:
            return 0
        version = fh.node.touch()
        self.fs.audit_log.append(("read", fh.node.path))
        data = bytes(fh.node.data[fh.offset : fh.offset + n])
        paddrs = proc.aspace.translate_range(a2, n, AccessKind.WRITE)
        machine.phys_write(paddrs, data, source=f"file:{fh.node.path}")
        machine.plugins.on_file_read(
            machine, proc, fh.node.path, version, paddrs
        )
        fh.offset += n
        return n

    def _sys_write_file(self, thread, number, args, retrying):
        proc = thread.process
        machine = self.machine
        a1, a2, a3 = args[:3]
        fh = proc.get_handle(a1, "file")
        if fh is None:
            return ERR
        data, src_paddrs = self._read_user(proc, a2, a3)
        version = fh.node.touch()
        self.fs.audit_log.append(("write", fh.node.path))
        end = fh.offset + len(data)
        if len(fh.node.data) < end:
            fh.node.data.extend(b"\x00" * (end - len(fh.node.data)))
        fh.node.data[fh.offset : end] = data
        machine.plugins.on_file_write(
            machine, proc, fh.node.path, version, src_paddrs
        )
        fh.offset = end
        return len(data)

    def _sys_close(self, thread, number, args, retrying):
        entry = thread.process.close_handle(args[0])
        if entry is None:
            return ERR
        if entry.kind == "socket":
            self.netstack.close(self.netstack.get(entry.obj))
        return 0

    def _sys_delete_file(self, thread, number, args, retrying):
        path = self._read_user_string(thread.process, args[0])
        if not self.fs.exists(path):
            return ERR
        self.fs.delete(path)
        return 0

    # ---- network ---------------------------------------------------
    def _sys_socket(self, thread, number, args, retrying):
        proc = thread.process
        sock = self.netstack.create(proc.pid)
        return proc.add_handle("socket", sock.sock_id)

    def _sys_connect(self, thread, number, args, retrying):
        proc = thread.process
        a1, a2, a3 = args[:3]
        sock = self._socket_for(proc, a1)
        if sock is None:
            return ERR
        ip = self._read_user_string(proc, a2)
        self.netstack.connect(sock, ip, a3)
        self.machine.send_packet(
            Packet(self.netstack.local_ip, sock.local_port, ip, a3, b"")
        )
        return 0

    def _sys_send(self, thread, number, args, retrying):
        proc = thread.process
        a1, a2, a3 = args[:3]
        sock = self._socket_for(proc, a1)
        if sock is None or not sock.connected:
            return ERR
        data, _ = self._read_user(proc, a2, a3)
        self.machine.send_packet(
            Packet(
                self.netstack.local_ip,
                sock.local_port,
                sock.remote_ip,
                sock.remote_port,
                data,
            )
        )
        return len(data)

    def _sys_recv(self, thread, number, args, retrying):
        proc = thread.process
        a1, a2, a3 = args[:3]
        sock = self._socket_for(proc, a1)
        if sock is None or not sock.connected:
            return ERR
        if sock.rx_available() == 0:
            if not retrying:
                self._block(thread, WaitReason.RECV, sock.sock_id, number, args)
            return None
        n = min(a3, sock.rx_available())
        src_paddrs = self.netstack.consume(sock, n)
        dst_paddrs = proc.aspace.translate_range(a2, n, AccessKind.WRITE)
        self.machine.phys_copy(dst_paddrs, src_paddrs, actor=proc)
        return n

    def _sys_listen(self, thread, number, args, retrying):
        sock = self._socket_for(thread.process, args[0])
        if sock is None:
            return ERR
        self.netstack.listen(sock, args[1])
        return 0

    def _sys_accept(self, thread, number, args, retrying):
        proc = thread.process
        sock = self._socket_for(proc, args[0])
        if sock is None or not sock.listening:
            return ERR
        if not sock.accept_queue:
            if not retrying:
                self._block(thread, WaitReason.ACCEPT, sock.sock_id, number, args)
            return None
        child = sock.accept_queue.popleft()
        return proc.add_handle("socket", child.sock_id)

    # ---- other processes (the injection surface) --------------------
    def _sys_create_process(self, thread, number, args, retrying):
        proc = thread.process
        path = self._read_user_string(proc, args[0])
        if self.image_program(path) is None:
            return ERR
        child = self.spawn(path, suspended=bool(args[1]), parent=proc)
        return proc.add_handle("process", child.pid)

    def _sys_find_process(self, thread, number, args, retrying):
        proc = thread.process
        name = self._read_user_string(proc, args[0])
        target = self.find_process(name, exclude_pid=proc.pid)
        return target.pid if target else ERR

    def _sys_open_process(self, thread, number, args, retrying):
        target = self.processes.get(args[0])
        if target is None or not target.alive:
            return ERR
        return thread.process.add_handle("process", target.pid)

    def _sys_read_vm(self, thread, number, args, retrying):
        proc = thread.process
        a1, a2, a3, a4 = args[:4]
        target = self._process_for(proc, a1)
        if target is None:
            return ERR
        src = target.aspace.translate_range(a2, a4, AccessKind.READ)
        dst = proc.aspace.translate_range(a3, a4, AccessKind.WRITE)
        self.machine.phys_copy(dst, src, actor=proc)
        return a4

    def _sys_write_vm(self, thread, number, args, retrying):
        proc = thread.process
        a1, a2, a3, a4 = args[:4]
        target = self._process_for(proc, a1)
        if target is None:
            return ERR
        src = proc.aspace.translate_range(a3, a4, AccessKind.READ)
        dst = target.aspace.translate_range(a2, a4, AccessKind.WRITE)
        self.machine.phys_copy(dst, src, actor=proc)
        return a4

    def _sys_alloc_vm(self, thread, number, args, retrying):
        a1, a2, a3, a4 = args[:4]
        target = self._process_for(thread.process, a1)
        if target is None:
            return ERR
        return self._alloc_in(target.aspace, size=a2, perms=a3, addr_hint=a4)

    def _sys_protect_vm(self, thread, number, args, retrying):
        a1, a2, a3, a4 = args[:4]
        target = self._process_for(thread.process, a1)
        if target is None:
            return ERR
        target.aspace.protect_region(a2, a3, a4 or PERM_RW)
        return 0

    def _sys_unmap_vm(self, thread, number, args, retrying):
        target = self._process_for(thread.process, args[0])
        if target is None:
            return ERR
        try:
            target.aspace.unmap_region(args[1])
            return 0
        except GuestFault:
            return ERR

    def _sys_create_remote_thread(self, thread, number, args, retrying):
        a1, a2, a3 = args[:3]
        target = self._process_for(thread.process, a1)
        if target is None:
            return ERR
        stack_base = target.aspace.find_free(
            STACK_BYTES, layout.HEAP_BASE, layout.HEAP_LIMIT
        )
        target.aspace.map_region(stack_base, STACK_BYTES, PERM_RW, name="remote-stack")
        remote = self._new_thread(
            target, entry=a2, sp=stack_base + STACK_BYTES, arg=a3
        )
        self._enqueue(remote)
        return remote.tid

    def _sys_resume_thread(self, thread, number, args, retrying):
        target = self._process_for(thread.process, args[0])
        if target is None:
            return ERR
        for t in target.threads:
            if t.state is ThreadState.SUSPENDED:
                self._enqueue(t)
        return 0

    def _sys_suspend_thread(self, thread, number, args, retrying):
        target = self._process_for(thread.process, args[0])
        if target is None:
            return ERR
        for t in target.threads:
            if t.state in (ThreadState.READY, ThreadState.RUNNING):
                t.state = ThreadState.SUSPENDED
        self._ready = deque(t for t in self._ready if t.process is not target)
        return 0

    def _sys_terminate(self, thread, number, args, retrying):
        target = self._process_for(thread.process, args[0])
        if target is None:
            return ERR
        self.terminate_process(target, args[1])
        return 0

    def _sys_set_context(self, thread, number, args, retrying):
        target = self._process_for(thread.process, args[0])
        if target is None:
            return ERR
        target.main_thread.context["pc"] = args[1] & 0xFFFFFFFF
        return 0

    def _sys_get_context(self, thread, number, args, retrying):
        target = self._process_for(thread.process, args[0])
        if target is None:
            return ERR
        return target.main_thread.context["pc"]

    def _sys_query_process(self, thread, number, args, retrying):
        target = self._process_for(thread.process, args[0])
        return target.pid if target else ERR

    # ---- loader services --------------------------------------------
    def _sys_load_dll(self, thread, number, args, retrying):
        proc = thread.process
        path = self._read_user_string(proc, args[0])
        return self._load_dll(proc, path)

    def _sys_get_proc_addr(self, thread, number, args, retrying):
        for name, addr in self.kernel_module.exports.items():
            if fnv1a32(name) == args[0]:
                return addr
        return ERR

    # ---- devices ------------------------------------------------------
    def _sys_read_keys(self, thread, number, args, retrying):
        machine = self.machine
        data = machine.devices.keyboard.read(args[1])
        if data:
            paddrs = thread.process.aspace.translate_range(
                args[0], len(data), AccessKind.WRITE
            )
            machine.phys_write(paddrs, data, source="keyboard")
        return len(data)

    def _sys_read_audio(self, thread, number, args, retrying):
        machine = self.machine
        data = machine.devices.audio.read(args[1])
        paddrs = thread.process.aspace.translate_range(args[0], len(data), AccessKind.WRITE)
        machine.phys_write(paddrs, data, source="audio")
        return len(data)

    def _sys_capture_screen(self, thread, number, args, retrying):
        machine = self.machine
        screen = machine.devices.screen
        data = screen.capture(0, min(args[1], len(screen.framebuffer)))
        paddrs = thread.process.aspace.translate_range(args[0], len(data), AccessKind.WRITE)
        machine.phys_write(paddrs, data, source="screen")
        return len(data)

    def _sys_draw_screen(self, thread, number, args, retrying):
        screen = self.machine.devices.screen
        data, _ = self._read_user(thread.process, args[0], args[1])
        screen.draw(0, data[: len(screen.framebuffer)])
        return len(data)

    # ---- atom table + APCs (the AtomBombing surface) ---------------------
    def _sys_add_atom(self, thread, number, args, retrying):
        machine = self.machine
        a1, a2 = args[:2]
        if a2 <= 0 or a2 > 16 * PAGE_SIZE:
            return ERR
        src = thread.process.aspace.translate_range(a1, a2, AccessKind.READ)
        n_pages = (a2 + PAGE_SIZE - 1) >> PAGE_SHIFT
        try:
            frames = machine.allocator.alloc_many(n_pages)
        except MemoryError:
            return ERR
        dst = tuple(
            (frames[i >> PAGE_SHIFT] << PAGE_SHIFT) | (i & (PAGE_SIZE - 1))
            for i in range(a2)
        )
        machine.phys_copy(dst, src, actor=thread.process)
        atom = self._next_atom
        self._next_atom += 1
        self._atoms[atom] = (dst, a2)
        return atom

    def _sys_get_atom(self, thread, number, args, retrying):
        proc = thread.process
        a1, a2, a3 = args[:3]
        entry = self._atoms.get(a1)
        if entry is None:
            return ERR
        paddrs, length = entry
        n = min(a3, length)
        if n <= 0:
            return 0
        dst = proc.aspace.translate_range(a2, n, AccessKind.WRITE)
        # The copy-out runs in the CALLER's context: when an APC makes
        # the victim call GlobalGetAtomNameA, the victim is the actor
        # that pulls the bytes into its own memory.
        self.machine.phys_copy(dst, paddrs[:n], actor=proc)
        return n

    def _sys_queue_apc(self, thread, number, args, retrying):
        from repro.guestos.loader import stub_address
        from repro.isa.registers import Reg

        a1, a2, a3, a4, a5 = args
        target = self._process_for(thread.process, a1)
        if target is None:
            return ERR
        try:
            stack_base = target.aspace.find_free(
                STACK_BYTES, layout.HEAP_BASE, layout.HEAP_LIMIT
            )
        except MemoryError:
            return ERR
        target.aspace.map_region(stack_base, STACK_BYTES, PERM_RW, name="apc-stack")
        apc = self._new_thread(
            target, entry=a2, sp=stack_base + STACK_BYTES, arg=a3
        )
        apc.context["regs"][Reg.R2] = a4 & 0xFFFFFFFF
        apc.context["regs"][Reg.R3] = a5 & 0xFFFFFFFF
        # APCs aimed straight at an API stub must return somewhere
        # sane; the dispatcher points LR at ExitThread.
        apc.context["regs"][Reg.LR] = stub_address("ExitThread")
        self._enqueue(apc)
        return apc.tid

    def _sys_exit_thread(self, thread, number, args, retrying):
        proc = thread.process
        thread.state = ThreadState.DEAD
        if all(t.state is ThreadState.DEAD for t in proc.threads):
            self.terminate_process(proc, 0)
        return None

    # ---- shell ----------------------------------------------------------
    def _sys_exec_cmd(self, thread, number, args, retrying):
        proc = thread.process
        cmd = self._read_user_string(proc, args[0])
        self.shell_log.append((proc.pid, cmd))
        if self.image_program(cmd) is not None:
            child = self.spawn(cmd, parent=proc)
            return proc.add_handle("process", child.pid)
        return 0

    # ------------------------------------------------------------------
    # dispatch helpers
    # ------------------------------------------------------------------

    def _socket_for(self, proc: Process, handle: int) -> Optional[Socket]:
        sock_id = proc.get_handle(handle, "socket")
        if sock_id is None:
            return None
        try:
            return self.netstack.get(sock_id)
        except NetError:
            return None

    def _process_for(self, proc: Process, handle: int) -> Optional[Process]:
        pid = proc.get_handle(handle, "process")
        if pid is None:
            return None
        target = self.processes.get(pid)
        return target if target is not None and target.alive else None

    def _alloc_in(self, aspace: AddressSpace, size: int, perms: int, addr_hint: int) -> int:
        if size <= 0:
            return ERR
        perms = perms or PERM_RW
        if addr_hint:
            vaddr = addr_hint & ~(PAGE_SIZE - 1)
        else:
            try:
                vaddr = aspace.find_free(size, layout.HEAP_BASE, layout.HEAP_LIMIT)
            except MemoryError:
                return ERR
        try:
            aspace.map_region(vaddr, size, perms, name="private")
        except (ValueError, MemoryError):
            return ERR
        return vaddr

    def _load_dll(self, proc: Process, path: str) -> int:
        """The *registered* DLL-load path (what reflective loading skips)."""
        if not self.fs.exists(path):
            return ERR
        node = self.fs.open(path)
        version = node.touch()
        self.fs.audit_log.append(("read", node.path))
        image = bytes(node.data)
        try:
            base = proc.aspace.find_free(max(len(image), 1), layout.HEAP_BASE, layout.HEAP_LIMIT)
        except MemoryError:
            return ERR
        proc.aspace.map_region(base, max(len(image), 1), PERM_RWX, name=f"dll:{path}")
        for area in proc.aspace.areas:
            if area.name == f"dll:{path}":
                area.module = path
        if image:
            paddrs = proc.aspace.translate_range(base, len(image), AccessKind.WRITE)
            self.machine.phys_write(paddrs, image, source=f"file:{path}")
            self.machine.plugins.on_file_read(
                self.machine, proc, node.path, version, paddrs
            )
        module = Module(name=path, base=base, image=image, path=path)
        proc.modules.append(module)
        self.machine.plugins.on_module_load(self.machine, proc, module)
        return base


#: The syscall table: syscall number -> :class:`Kernel` handler.  The
#: method ``Kernel._sys_<name>`` handles ``Sys.<NAME>``.
_SYSCALL_TABLE = {
    int(Sys[name[len("_sys_"):].upper()]): handler
    for name, handler in vars(Kernel).items()
    if name.startswith("_sys_")
}

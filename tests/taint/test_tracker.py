"""Integration tests for the whole-system taint tracker.

Each test runs a real guest program under the tracker, seeds provenance
on guest bytes, and checks where it flows.  The Figure 1 / Figure 2
programs from the paper appear here as the canonical indirect-flow
cases.
"""

import pytest

from repro.emulator.devices import Packet
from repro.emulator.machine import Machine, MachineConfig
from repro.emulator.record_replay import PacketEvent
from repro.faros import Faros
from repro.isa.cpu import AccessKind
from repro.isa.registers import Reg
from repro.taint.intern import ProvInterner
from repro.taint.policy import TaintPolicy
from repro.taint.reference import ReferenceTaintTracker
from repro.taint.tags import Tag, TagType
from repro.taint.tracker import TaintTracker

from tests.conftest import register_asm

SEED = Tag(TagType.NETFLOW, 77)

# Guest programs park (sleep forever) instead of exiting so their memory
# and its shadow state survive for inspection.
PARK = """
park:
    movi r1, 10000000
    movi r0, SYS_SLEEP
    syscall
    hlt
"""


def launch(body, policy=None, machine=None):
    """Spawn *body* + PARK under a tracker; returns (machine, tracker, proc, prog)."""
    machine = machine or Machine(MachineConfig())
    tracker = TaintTracker(policy=policy or TaintPolicy(process_tags_on_access=False))
    machine.plugins.register(tracker)
    prog = register_asm(machine, "t.exe", body, PARK)
    proc = machine.kernel.spawn("t.exe")
    return machine, tracker, proc, prog


def paddrs_of(proc, prog, label, n):
    return proc.aspace.translate_range(prog.label(label), n, AccessKind.READ)


def seed(tracker, proc, prog, label, n, tag=SEED):
    tracker.taint_range(paddrs_of(proc, prog, label, n), tag)


class TestDirectFlows:
    def test_word_copy_via_registers(self):
        machine, tracker, proc, prog = launch(
            """
            start:
                movi r1, src
                ld r2, [r1]
                movi r3, dst
                st [r3], r2
                jmp park
            src: .word 0x11223344
            dst: .word 0
            """
        )
        seed(tracker, proc, prog, "src", 4)
        machine.run(300_000)
        assert tracker.prov_of_range(paddrs_of(proc, prog, "dst", 4)) == (SEED,)

    def test_byte_copy_loop(self):
        machine, tracker, proc, prog = launch(
            """
            start:
                movi r1, src
                movi r2, dst
                movi r3, 4
            loop:
                ldb r4, [r1]
                stb [r2], r4
                addi r1, r1, 1
                addi r2, r2, 1
                subi r3, r3, 1
                cmpi r3, 0
                jnz loop
                jmp park
            src: .word 0xdeadbeef
            dst: .word 0
            """
        )
        seed(tracker, proc, prog, "src", 4)
        machine.run(300_000)
        for paddr in paddrs_of(proc, prog, "dst", 4):
            assert tracker.prov_at(paddr) == (SEED,)

    def test_computation_unions_tags(self):
        other = Tag(TagType.FILE, 3)
        machine, tracker, proc, prog = launch(
            """
            start:
                movi r1, a
                ld r2, [r1]
                movi r1, b
                ld r3, [r1]
                add r4, r2, r3
                movi r1, out
                st [r1], r4
                jmp park
            a: .word 1
            b: .word 2
            out: .word 0
            """
        )
        seed(tracker, proc, prog, "a", 4, SEED)
        seed(tracker, proc, prog, "b", 4, other)
        machine.run(300_000)
        assert set(tracker.prov_of_range(paddrs_of(proc, prog, "out", 4))) == {SEED, other}

    def test_movi_deletes(self):
        machine, tracker, proc, prog = launch(
            """
            start:
                movi r1, src
                ld r2, [r1]
                movi r2, 0          ; overwrite with constant
                movi r1, dst
                st [r1], r2
                jmp park
            src: .word 5
            dst: .word 5
            """
        )
        seed(tracker, proc, prog, "src", 4)
        seed(tracker, proc, prog, "dst", 4)
        machine.run(300_000)
        # The untainted store must CLEAR dst's old taint.
        assert tracker.prov_of_range(paddrs_of(proc, prog, "dst", 4)) == ()

    def test_xor_self_zeroing_deletes(self):
        machine, tracker, proc, prog = launch(
            """
            start:
                movi r1, src
                ld r2, [r1]
                xor r2, r2, r2
                movi r1, dst
                st [r1], r2
                jmp park
            src: .word 5
            dst: .word 0
            """
        )
        seed(tracker, proc, prog, "src", 4)
        seed(tracker, proc, prog, "dst", 4)
        machine.run(300_000)
        assert tracker.prov_of_range(paddrs_of(proc, prog, "dst", 4)) == ()

    def test_xor_with_key_keeps_taint(self):
        # Decoding a payload with XOR must not launder taint.
        machine, tracker, proc, prog = launch(
            """
            start:
                movi r1, src
                ld r2, [r1]
                xori r3, r2, 0x5a
                movi r1, dst
                st [r1], r3
                jmp park
            src: .word 0xff
            dst: .word 0
            """
        )
        seed(tracker, proc, prog, "src", 4)
        machine.run(300_000)
        assert tracker.prov_of_range(paddrs_of(proc, prog, "dst", 4)) == (SEED,)

    def test_push_pop_flows_through_stack(self):
        machine, tracker, proc, prog = launch(
            """
            start:
                movi r1, src
                ld r2, [r1]
                push r2
                pop r3
                movi r1, dst
                st [r1], r3
                jmp park
            src: .word 1
            dst: .word 0
            """
        )
        seed(tracker, proc, prog, "src", 4)
        machine.run(300_000)
        assert tracker.prov_of_range(paddrs_of(proc, prog, "dst", 4)) == (SEED,)

    def test_ldb_takes_single_byte_prov(self):
        other = Tag(TagType.FILE, 9)
        machine, tracker, proc, prog = launch(
            """
            start:
                movi r1, src
                ldb r2, [r1+1]
                movi r1, dst
                stb [r1], r2
                jmp park
            src: .word 0x01020304
            dst: .byte 0
            """
        )
        # Byte 0 gets SEED, byte 1 gets `other`: LDB [src+1] must carry only `other`.
        (p0, p1, p2, p3) = paddrs_of(proc, prog, "src", 4)
        tracker.taint_range([p0], SEED)
        tracker.taint_range([p1], other)
        machine.run(300_000)
        assert tracker.prov_of_range(paddrs_of(proc, prog, "dst", 1)) == (other,)


class TestIndirectFlows:
    """The paper's Figure 1 (address deps) and Figure 2 (control deps)."""

    FIG1_LOOKUP_COPY = """
    ; str2[j] = lookuptable[str1[j]]  -- identity table, 4 bytes
    start:
        ; build lookuptable[i] = i
        movi r1, table
        movi r2, 0
    build:
        stb [r1], r2
        addi r1, r1, 1
        addi r2, r2, 1
        cmpi r2, 256
        jnz build
        ; translate through the table
        movi r1, str1
        movi r2, str2
        movi r3, 4
    xlate:
        ldb r4, [r1]          ; tainted index
        movi r5, table
        add r5, r5, r4        ; address depends on tainted data
        ldb r6, [r5]          ; value itself is untainted table content
        stb [r2], r6
        addi r1, r1, 1
        addi r2, r2, 1
        subi r3, r3, 1
        cmpi r3, 0
        jnz xlate
        jmp park
    str1: .ascii "ABCD"
    str2: .space 4
    table: .space 256
    """

    def test_fig1_undertainting_without_address_deps(self):
        machine, tracker, proc, prog = launch(self.FIG1_LOOKUP_COPY)
        seed(tracker, proc, prog, "str1", 4)
        machine.run(500_000)
        # str2 carries the same information as str1 but is untainted.
        assert tracker.prov_of_range(paddrs_of(proc, prog, "str2", 4)) == ()

    def test_fig1_tracked_with_address_deps(self):
        machine, tracker, proc, prog = launch(
            self.FIG1_LOOKUP_COPY,
            policy=TaintPolicy(track_address_deps=True, process_tags_on_access=False),
        )
        seed(tracker, proc, prog, "str1", 4)
        machine.run(500_000)
        for paddr in paddrs_of(proc, prog, "str2", 4):
            assert SEED in tracker.prov_at(paddr)

    FIG2_BIT_COPY = """
    ; untaintedoutput |= bit if (bit & taintedinput) -- pure control flow
    start:
        movi r1, src
        ldb r2, [r1]          ; tainted input
        movi r3, 0            ; output accumulator
        movi r4, 1            ; bit
    bitloop:
        and r5, r4, r2
        cmpi r5, 0
        jz skip
        or r3, r3, r4
    skip:
        shli r4, r4, 1
        cmpi r4, 256
        jnz bitloop
        movi r1, dst
        stb [r1], r3
        jmp park
    src: .byte 0xa5
    dst: .byte 0
    """

    def test_fig2_undertainting_without_control_deps(self):
        machine, tracker, proc, prog = launch(self.FIG2_BIT_COPY)
        seed(tracker, proc, prog, "src", 1)
        machine.run(500_000)
        # The copy is exact, yet the output is untainted: laundered.
        assert tracker.prov_of_range(paddrs_of(proc, prog, "dst", 1)) == ()

    def test_fig2_tracked_with_control_deps(self):
        machine, tracker, proc, prog = launch(
            self.FIG2_BIT_COPY,
            policy=TaintPolicy(track_control_deps=True, process_tags_on_access=False),
        )
        seed(tracker, proc, prog, "src", 1)
        machine.run(500_000)
        assert SEED in tracker.prov_of_range(paddrs_of(proc, prog, "dst", 1))

    def test_control_deps_overtaint_unrelated_writes(self):
        # The cost of control-dep tracking: constants written under a
        # tainted branch get tainted even when they carry no input data.
        machine, tracker, proc, prog = launch(
            """
            start:
                movi r1, src
                ldb r2, [r1]
                cmpi r2, 0
                jz over
            over:
                movi r3, 42          ; pure constant
                movi r1, dst
                stb [r1], r3
                jmp park
            src: .byte 1
            dst: .byte 0
            """,
            policy=TaintPolicy(track_control_deps=True, process_tags_on_access=False),
        )
        seed(tracker, proc, prog, "src", 1)
        machine.run(300_000)
        assert SEED in tracker.prov_of_range(paddrs_of(proc, prog, "dst", 1))


class TestKernelMediatedFlows:
    def test_recv_carries_taint_from_dma(self):
        """Whole-system property: packet bytes stay tainted through the
        kernel's DMA ring and the recv() copy into user space."""
        machine = Machine(MachineConfig())
        tracker = TaintTracker(policy=TaintPolicy(process_tags_on_access=False))
        machine.plugins.register(tracker)

        # Seed the DMA bytes at packet-receive time, like FAROS does.
        class Seeder:
            def __init__(self, tracker):
                self.tracker = tracker

            def on_packet_receive(self, machine, packet, paddrs):
                self.tracker.taint_range(paddrs, SEED)

        from repro.emulator.plugins import Plugin

        seeder = Plugin()
        seeder.on_packet_receive = lambda m, p, a: tracker.taint_range(a, SEED)
        machine.plugins.register(seeder)

        prog = register_asm(
            machine,
            "rx.exe",
            """
            start:
                movi r0, SYS_SOCKET
                syscall
                mov r7, r0
                mov r1, r7
                movi r2, ip
                movi r3, 4444
                movi r0, SYS_CONNECT
                syscall
                mov r1, r7
                movi r2, buf
                movi r3, 4
                movi r0, SYS_RECV
                syscall
                jmp park
            ip: .asciz "9.9.9.9"
            buf: .space 4
            """,
            PARK,
        )
        proc = machine.kernel.spawn("rx.exe")
        machine.schedule(
            2000,
            PacketEvent(Packet("9.9.9.9", 4444, machine.devices.nic.ip, 49152, b"EVIL")),
        )
        machine.run(300_000)
        buf_paddrs = proc.aspace.translate_range(
            prog.label("buf"), 4, AccessKind.READ
        )
        for paddr in buf_paddrs:
            assert SEED in tracker.prov_at(paddr)

    def test_phys_write_clears_stale_taint(self):
        machine, tracker, proc, prog = launch("start: jmp park\nbuf: .space 4")
        paddrs = paddrs_of(proc, prog, "buf", 4)
        tracker.taint_range(paddrs, SEED)
        machine.phys_write(paddrs, b"\x00" * 4, source="keyboard")
        assert tracker.prov_of_range(paddrs) == ()

    def test_freed_frames_drop_shadow(self):
        machine, tracker, proc, prog = launch("start: jmp park\nbuf: .space 4")
        paddrs = paddrs_of(proc, prog, "buf", 4)
        tracker.taint_range(paddrs, SEED)
        machine.kernel.terminate_process(proc, 0)
        assert tracker.prov_of_range(paddrs) == ()

    def test_channel_methods_apply_directly(self):
        tracker = TaintTracker(interner=ProvInterner())
        tracker.taint_range(range(0, 8), SEED)
        assert tracker.shadow.tainted_bytes == 8
        tracker.on_phys_copy(None, tuple(range(16, 24)), tuple(range(0, 8)))
        assert tracker.shadow.get(16) == (SEED,)
        tracker.clear_range(range(0, 8))
        assert tracker.shadow.get(0) == ()
        tracker.on_phys_write(None, tuple(range(16, 24)), "dma")
        assert tracker.shadow.tainted_bytes == 0
        assert tracker.stats.external_writes == 1
        assert tracker.stats.kernel_copies == 1

    @staticmethod
    def _faros_channel_run(tracker_cls):
        """One kernel copy and one external write through a machine
        running FAROS; each must reach the tracker exactly once."""
        machine = Machine(MachineConfig())
        faros = Faros(tracker_cls=tracker_cls)
        machine.plugins.register(faros)
        register_asm(machine, "c.exe", "start: jmp park", PARK)
        actor = machine.kernel.spawn("c.exe")
        tracker = faros.tracker
        src = tuple(range(0x2000, 0x2010))
        dst = tuple(range(0x2100, 0x2110))
        tracker.taint_range(src, SEED)
        copies, writes = tracker.stats.kernel_copies, tracker.stats.external_writes
        machine.phys_copy(dst, src, actor=actor)
        assert tracker.stats.kernel_copies == copies + 1
        machine.phys_write(src[:8], bytes(8), source="dma")
        assert tracker.stats.external_writes == writes + 1
        assert tracker.stats.kernel_copies == copies + 1
        return tracker, tracker.tags.process_tag(actor.cr3)

    def test_faros_applies_each_channel_event_once(self):
        fast, actor_tag = self._faros_channel_run(TaintTracker)
        ref, _ = self._faros_channel_run(ReferenceTaintTracker)
        assert fast.shadow.get(0x2100) == (SEED, actor_tag)
        assert fast.shadow.get(0x2000) == ()
        assert fast.shadow.get(0x2008) == (SEED,)
        assert fast.shadow.snapshot() == ref.shadow.snapshot()


class TestProcessTagEnrichment:
    def test_accessing_process_appended_to_chronology(self):
        machine, tracker, proc, prog = launch(
            """
            start:
                movi r1, src
                ld r2, [r1]
                movi r1, dst
                st [r1], r2
                jmp park
            src: .word 1
            dst: .word 0
            """,
            policy=TaintPolicy(),  # process tags ON
        )
        seed(tracker, proc, prog, "src", 4)
        machine.run(300_000)
        proc_tag = tracker.tags.process_tag(proc.cr3)
        src_prov = tracker.prov_of_range(paddrs_of(proc, prog, "src", 4))
        dst_prov = tracker.prov_of_range(paddrs_of(proc, prog, "dst", 4))
        # Chronology: origin tag first, then the process that touched it.
        assert src_prov[0] == SEED and proc_tag in src_prov
        assert dst_prov[0] == SEED and proc_tag in dst_prov

    def test_untainted_bytes_get_no_process_tags(self):
        machine, tracker, proc, prog = launch(
            """
            start:
                movi r1, dst
                movi r2, 7
                st [r1], r2
                jmp park
            dst: .word 0
            """,
            policy=TaintPolicy(),
        )
        machine.run(300_000)
        assert tracker.prov_of_range(paddrs_of(proc, prog, "dst", 4)) == ()

    def test_kernel_copy_appends_actor_tag(self):
        machine, tracker, proc, prog = launch(
            "start: jmp park\nsrc: .word 1\ndst: .word 0",
            policy=TaintPolicy(),
        )
        seed(tracker, proc, prog, "src", 4)
        src = paddrs_of(proc, prog, "src", 4)
        dst = paddrs_of(proc, prog, "dst", 4)
        machine.phys_copy(dst, src, actor=proc)
        prov = tracker.prov_of_range(dst)
        assert prov[0] == SEED
        assert tracker.tags.process_tag(proc.cr3) in prov


class TestLoadListeners:
    def test_listener_sees_insn_and_read_prov(self):
        machine, tracker, proc, prog = launch(
            """
            start:
                movi r1, src
                ld r2, [r1]
                jmp park
            src: .word 1
            """
        )
        seed(tracker, proc, prog, "src", 4)
        observations = []
        tracker.add_load_listener(lambda m, obs: observations.append(obs))
        machine.run(300_000)
        loads = [o for o in observations if o.reads and o.reads[0][1]]
        assert loads, "no tainted load observed"
        (access, prov) = loads[0].reads[0]
        assert prov == (SEED,)
        assert loads[0].fx.insn.rd is Reg.R2

    def test_listener_sees_tainted_instruction_bytes(self):
        machine, tracker, proc, prog = launch(
            """
            start:
                movi r1, src
                ld r2, [r1]
                jmp park
            src: .word 1
            """
        )
        # Taint the LD instruction's own bytes (offset 8, second insn).
        insn_paddrs = proc.aspace.translate_range(
            prog.base + 8, 8, AccessKind.READ
        )
        tracker.taint_range(insn_paddrs, SEED)
        seen = []
        tracker.add_load_listener(lambda m, obs: seen.append(obs.insn_prov))
        machine.run(300_000)
        assert any(SEED in prov for prov in seen)


class TestContextSwitchIsolation:
    """Register shadows are per-thread: a context switch must never leak
    one thread's tainted registers into another (regression tests for the
    fast-path rewrite, which rebuilt the bank bookkeeping)."""

    SPIN = """
    spin:
        addi r3, r3, 1
        cmpi r3, 3000
        jnz spin
    """

    def test_tainted_register_does_not_leak_across_processes(self):
        # Two processes round-robin on 100-instruction slices.  A holds a
        # tainted value in r2 across many context switches; B stores its
        # own (never-written) r2.  B's store must stay clean.
        machine = Machine(MachineConfig())
        tracker = TaintTracker(policy=TaintPolicy(process_tags_on_access=False))
        machine.plugins.register(tracker)
        prog_a = register_asm(
            machine,
            "tainty.exe",
            "start:\n    movi r1, src\n    ld r2, [r1]\n" + self.SPIN + "    jmp park\nsrc: .word 0xabcd",
            PARK,
        )
        prog_b = register_asm(
            machine,
            "clean.exe",
            "start:\n    movi r3, 0\n" + self.SPIN + "    movi r1, dst\n    st [r1], r2\n    jmp park\ndst: .word 0",
            PARK,
        )
        proc_a = machine.kernel.spawn("tainty.exe")
        proc_b = machine.kernel.spawn("clean.exe")
        tracker.taint_range(paddrs_of(proc_a, prog_a, "src", 4), SEED)
        machine.run(300_000)
        assert tracker.prov_of_range(paddrs_of(proc_b, prog_b, "dst", 4)) == ()
        bank_a = tracker.banks.for_thread(proc_a.main_thread.tid)
        bank_b = tracker.banks.for_thread(proc_b.main_thread.tid)
        assert SEED in bank_a.get(Reg.R2)
        assert bank_b.get(Reg.R2) == ()

    def test_remote_thread_starts_with_clean_registers(self):
        # Two threads in ONE process: main taints r6, then injects a
        # remote thread into itself (pid 100 is the first process).  The
        # new thread stores its own r6 -- a fresh bank, so no taint.
        machine = Machine(MachineConfig())
        tracker = TaintTracker(policy=TaintPolicy(process_tags_on_access=False))
        machine.plugins.register(tracker)
        prog = register_asm(
            machine,
            "self.exe",
            """
            start:
                movi r1, src
                ld r6, [r1]
                movi r1, 100
                movi r0, SYS_OPEN_PROCESS
                syscall
                mov r1, r0
                movi r2, routine
                movi r3, 0
                movi r0, SYS_CREATE_REMOTE_THREAD
                syscall
                jmp park
            routine:
                movi r1, dst
                st [r1], r6
                jmp park
            src: .word 7
            dst: .word 0
            """,
            PARK,
        )
        proc = machine.kernel.spawn("self.exe")
        tracker.taint_range(paddrs_of(proc, prog, "src", 4), SEED)
        machine.run(300_000)
        assert len(proc.threads) == 2
        assert tracker.prov_of_range(paddrs_of(proc, prog, "dst", 4)) == ()
        main_tid, remote_tid = (t.tid for t in proc.threads)
        assert SEED in tracker.banks.for_thread(main_tid).get(Reg.R6)
        assert tracker.banks.for_thread(remote_tid).get(Reg.R6) == ()

    def test_dropped_thread_bank_does_not_resurrect(self):
        # A process exits with tainted registers; a later process whose
        # thread happens to reuse state must start from a clean bank.
        machine, tracker, proc, prog = launch(
            """
            start:
                movi r1, src
                ld r2, [r1]
                movi r1, 0
                movi r0, SYS_EXIT
                syscall
            src: .word 1
            """
        )
        tid = proc.main_thread.tid
        seed(tracker, proc, prog, "src", 4)
        machine.run(300_000)
        assert tracker.banks.for_thread(tid).get(Reg.R2) == ()


class TestStats:
    def test_counters_advance(self):
        machine, tracker, proc, prog = launch("start: movi r1, 0\njmp park")
        machine.run(100_000)
        assert tracker.stats.instructions > 0
        assert tracker.stats.external_writes >= 1  # image load

    def test_untainted_run_is_all_fast_path(self):
        # With no taint anywhere every retirement takes the all-clean
        # exit: counted as fast, and the slow path never runs.
        machine, tracker, proc, prog = launch(
            "start:\n    movi r3, 0\nspin:\n    addi r3, r3, 1\n    cmpi r3, 500\n    jnz spin\n    jmp park"
        )
        machine.run(100_000)
        stats = tracker.stats
        assert stats.fast_retirements > 0
        assert stats.slow_retirements == 0
        assert stats.instructions == stats.fast_retirements + stats.slow_retirements

    def test_mixed_run_uses_both_paths(self):
        machine, tracker, proc, prog = launch(
            """
            start:
                movi r3, 0
            spin:
                addi r3, r3, 1
                cmpi r3, 500
                jnz spin
                movi r1, src
                ld r2, [r1]
                movi r1, dst
                st [r1], r2
                jmp park
            src: .word 5
            dst: .word 0
            """
        )
        # Phase 1: nothing tainted -- the spin loop retires fast.
        machine.run(1_000)
        assert tracker.stats.fast_retirements > 0
        # Phase 2: taint arrives, and the copy through src goes down the
        # slow path.
        seed(tracker, proc, prog, "src", 4)
        machine.run(300_000)
        stats = tracker.stats
        assert stats.slow_retirements > 0
        assert stats.instructions == stats.fast_retirements + stats.slow_retirements
        assert tracker.prov_of_range(paddrs_of(proc, prog, "dst", 4)) == (SEED,)

    def test_taint_arrival_mid_run_rearms_instrumentation(self):
        # Taint arriving mid-run -- a packet tainted on delivery, then
        # copied into the guest's buffer by a recv syscall -- must reach
        # the instructions that read it: the tracker runs on every
        # instruction from the first, and its fast exits hold only
        # while the bytes and the bank are clean.
        machine = Machine(MachineConfig())
        tracker = TaintTracker(policy=TaintPolicy(process_tags_on_access=False))
        machine.plugins.register(tracker)

        from repro.emulator.plugins import Plugin

        seeder = Plugin()
        seeder.on_packet_receive = lambda m, p, a: tracker.taint_range(a, SEED)
        machine.plugins.register(seeder)
        prog = register_asm(
            machine,
            "rx.exe",
            """
            start:
                movi r0, SYS_SOCKET
                syscall
                mov r7, r0
                mov r1, r7
                movi r2, ip
                movi r3, 4444
                movi r0, SYS_CONNECT
                syscall
                mov r1, r7
                movi r2, buf
                movi r3, 4
                movi r0, SYS_RECV
                syscall
                movi r1, buf
                ld r2, [r1]
                movi r1, dst
                st [r1], r2
                jmp park
            ip: .asciz "9.9.9.9"
            buf: .space 4
            dst: .space 4
            """,
            PARK,
        )
        proc = machine.kernel.spawn("rx.exe")
        machine.schedule(
            2000,
            PacketEvent(Packet("9.9.9.9", 4444, machine.devices.nic.ip, 49152, b"EVIL")),
        )
        machine.run(300_000)
        dst = proc.aspace.translate_range(prog.label("dst"), 4, AccessKind.READ)
        for paddr in dst:
            assert SEED in tracker.prov_at(paddr)
        stats = tracker.stats
        assert stats.fast_retirements > 0 and stats.slow_retirements > 0
        assert stats.instructions == stats.fast_retirements + stats.slow_retirements

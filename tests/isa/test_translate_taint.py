"""Unit tests for the translated-tainted tier (repro.isa.translate).

``test_translate.py`` pins the uninstrumented cache; this file pins the
taint tier's local contracts on whole machines carrying a lone
:class:`~repro.taint.tracker.TaintTracker` (the configuration whose
``insn_effects_plan`` reduces to the fused per-block closures):

* armed-but-clean code keeps executing translated blocks and retires
  everything fast: pure blocks replay a record with no slow
  retirements, and every other block passes its per-closure gates;
* each instruction's memoised fetch step decides its fetch cleanliness,
  byte-precisely: code whose shadow page is dirty but whose own
  *instruction bytes* are clean stays on the fast path (taint planted
  next to code -- the attack-shaped layout -- does not slow it), code
  whose own bytes carry taint runs fused through the fetch step, a
  store that taints the fetch bytes ends its block precisely (via the
  code-version bump, since tainting fetched bytes means writing them),
  and code tainted or cleaned between slices without being written is
  rescanned, because the provenance change bumps the memo's epoch;
* every fused operand shape (moves, ALU, compares, loads/stores, stack
  traffic, calls) leaves bit-identical tracker state vs the
  instrumented interpreter;
* watchdogs, scheduled fault events, and taint budgets fire at the
  identical tick inside tainted blocks;
* pure blocks over file-tagged code replay a recorded counter delta,
  a self-loop once per iteration it runs in place, and every condition
  that must stop a replay does (a budget cut, a
  taint budget, another process's tag, a pending control window, a
  second tracker);
* page-straddling instructions run fused in blocks of their own, and
  their second page is re-checked on every entry.

The cross-tracker randomized matrix lives in
``tests/taint/test_differential.py``; full attack-level runs in
``tests/isa/test_translate_diff.py``.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.emulator.machine import Machine, MachineConfig
from repro.faults.plan import InjectedMachineFault
from repro.guestos.asmlib import program
from repro.guestos.layout import IMAGE_BASE
from repro.isa.assembler import assemble
from repro.isa.cpu import CPU, AccessKind
from repro.isa.errors import PageFault
from repro.isa.memory import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory
from repro.isa.translate import BlockTranslator
from repro.taint.intern import ProvInterner
from repro.taint.policy import TaintPolicy
from repro.taint.shadow import SHADOW_PAGE_SIZE
from repro.taint.tags import Tag, TagType
from repro.taint.tracker import TaintTracker

from tests.conftest import register_asm
from tests.isa.test_translate_smc import STRADDLE_PROGRAMS

SEED = Tag(TagType.NETFLOW, 9)

PARK = """
park:
    movi r1, 10000000
    movi r0, SYS_SLEEP
    syscall
    hlt
"""

#: Tainted copy loop with the data pushed onto its own 4 KiB shadow
#: page, so the code's fetch pages stay clean and the taint tier can
#: keep executing translated blocks while provenance moves.
TAINTED_LOOP = """
start:
    movi r5, 40
loop:
    movi r6, src
    ld r1, [r6]
    movi r6, dst
    st [r6], r1
    addi r2, r1, 1
    subi r5, r5, 1
    cmpi r5, 0
    jnz loop
    jmp park
pad: .space 8192
src: .word 0xfeedface
dst: .word 0
parkpad: .space 8192
"""


def run_one(
    body,
    seeds=(),
    policy=None,
    translate=True,
    budget=300_000,
    code_events=(),
    load_log=None,
    **config_kw,
):
    """One machine, one fast tracker, optional taint seeding by label.

    Each seed is ``(label, n)`` (seeded with the NETFLOW :data:`SEED`)
    or ``(label, n, tag)`` for attack-shaped plants (export tags etc.).
    Each code event is ``(tick, label, n, tag)``: a scheduled
    :class:`_CodeTaintEvent` over *n* bytes at *label*.  A *load_log*
    list receives every load observation as ``(machine.now, insn_prov)``.
    """
    machine = Machine(MachineConfig(translate=translate, **config_kw))
    tracker = TaintTracker(
        policy=policy or TaintPolicy(), interner=ProvInterner()
    )
    machine.plugins.register(tracker)
    if load_log is not None:
        tracker.add_load_listener(
            lambda m, obs: load_log.append((m.now, obs.insn_prov))
        )
    prog = register_asm(machine, "t.exe", body, PARK)
    proc = machine.kernel.spawn("t.exe")

    def paddrs(label, n):
        return proc.aspace.translate_range(prog.label(label), n, AccessKind.READ)

    for label, n, *rest in seeds:
        tracker.taint_range(paddrs(label, n), rest[0] if rest else SEED)
    for tick, label, n, tag in code_events:
        machine.schedule(tick, _CodeTaintEvent(tracker, paddrs(label, n), tag))
    stats = machine.run(budget)
    return machine, tracker, stats


class _CodeTaintEvent:
    """A scheduled event that taints code bytes through the tracker's
    channel API -- or clears them, with ``tag=None`` -- between slices
    and without writing the code."""

    def __init__(self, tracker, paddrs, tag):
        self.tracker = tracker
        self.paddrs = paddrs
        self.tag = tag

    def deliver(self, machine):
        if self.tag is None:
            self.tracker.clear_range(self.paddrs)
        else:
            self.tracker.taint_range(self.paddrs, self.tag)


def assert_pair_identical(on, off):
    """Bit-identity between a translate-on and a translate-off run."""
    machine_on, tracker_on, stats_on = on
    machine_off, tracker_off, stats_off = off
    assert machine_on.now == machine_off.now
    assert stats_on.stop_reason == stats_off.stop_reason
    assert tracker_on.shadow.snapshot() == tracker_off.shadow.snapshot()
    assert tracker_on.shadow.tainted_bytes == tracker_off.shadow.tainted_bytes
    assert tracker_on.banks.snapshot() == tracker_off.banks.snapshot()
    # The whole record: the retirement split, process_tag_appends and
    # the kernel-path counters.
    assert tracker_on.stats == tracker_off.stats
    assert (tracker_on.interner.hits, tracker_on.interner.misses) == (
        tracker_off.interner.hits,
        tracker_off.interner.misses,
    )
    assert tracker_on.tags.sizes() == tracker_off.tags.sizes()


def run_pair(body, seeds=(), policy=None, budget=300_000, **config_kw):
    on = run_one(body, seeds, policy, True, budget, **config_kw)
    off = run_one(body, seeds, policy, False, budget, **config_kw)
    assert_pair_identical(on, off)
    return on, off


def taint_stats(machine):
    return {
        k: v for k, v in machine.translator.stats().items() if k.startswith("taint")
    }


#: Same copy loop, plus a seedable word the program never touches, on
#: its own shadow page: seeding it arms the tracker without dirtying
#: anything the program reads or fetches.
ARMED_CLEAN = TAINTED_LOOP + """
far: .word 0
farpad2: .space 8192
"""


class TestArmedButCleanStaysTranslated:
    def test_dormant_tracker_runs_uninstrumented(self):
        """No taint anywhere: the tracker does not even want effects,
        so slices run the plain translated tier, not the taint tier."""
        machine, tracker, _ = run_one(TAINTED_LOOP)
        ts = taint_stats(machine)
        assert ts["taint_lookups"] == 0
        assert machine.translator.executions > 0
        assert tracker.stats.slow_retirements == 0

    def test_armed_but_clean_thread_retires_fast(self):
        """Taint exists (tracker armed) but this thread never touches
        it: every retirement stays on the fast counter, pure blocks via
        replay records and the rest via per-closure gates."""
        machine, tracker, _ = run_one(ARMED_CLEAN, seeds=[("far", 4)])
        ts = taint_stats(machine)
        assert ts["taint_executions"] > 0
        assert ts["taint_single_steps"] == 0
        assert tracker.stats.slow_retirements == 0
        assert tracker.stats.instructions == tracker.stats.fast_retirements > 0
        assert tracker.shadow.tainted_bytes == 4  # just the far seed

    def test_tainted_data_on_clean_fetch_pages_stays_translated(self):
        """Taint moving through data pages never evicts the code from
        the translated tier -- only the per-instruction gate pays."""
        machine, tracker, _ = run_one(TAINTED_LOOP, seeds=[("src", 4)])
        ts = taint_stats(machine)
        assert ts["taint_executions"] > 0
        assert ts["taint_single_steps"] == 0
        assert tracker.shadow.tainted_bytes > 4  # src + dst carry taint
        assert tracker.stats.slow_retirements > 0  # the copies went slow-path

    def test_tainted_run_matches_interpreter(self):
        (machine, tracker, _), _ = run_pair(TAINTED_LOOP, seeds=[("src", 4)])
        assert taint_stats(machine)["taint_executions"] > 0


#: The store lands one guest page past the code (no code-page version
#: bump, so not SMC) but inside the code's 4 KiB shadow page.  The
#: shadow page goes dirty, yet the block's *fetch bytes* stay clean:
#: each fetch step rescans its bytes once per epoch and finds them
#: clean.
DIRTY_OWN_PAGE = """
start:
    movi r5, 8
loop:
    movi r6, src
    ld r1, [r6]
    movi r6, near
    st [r6], r1
    subi r5, r5, 1
    cmpi r5, 0
    jnz loop
    jmp park
near_pad: .space 256
near: .word 0
pad: .space 8192
src: .word 0x1111
"""

#: Attack-shaped layout: export-table tags planted on the code's own
#: 4 KiB shadow page (what a scraped PE header next to injected code
#: looks like).  The program never touches the plant; its fetch bytes
#: are clean, so it must stay in fused execution.
EXPORT_NEIGHBOR = """
start:
    movi r5, 8
loop:
    movi r6, src
    ld r1, [r6]
    movi r6, dst
    st [r6], r1
    subi r5, r5, 1
    cmpi r5, 0
    jnz loop
    jmp park
planted: .space 16
pad: .space 8192
src: .word 0xfeedface
dst: .word 0
"""

EXPORT_TAG = Tag(TagType.EXPORT_TABLE, 3)

#: A store that taints the block's *own fetch range*: patch the low imm
#: byte of ``movi r5, 1`` with a tainted value.  Writing fetched bytes
#: necessarily bumps the watched code-page version, so the SMC exit
#: claims the block precisely at the store, and the retranslated tail
#: -- now injected, tainted code -- runs fused with its fetch step.
PATCH_FETCH = """
start:
    movi r6, src
    ld r1, [r6]
    movi r4, patchme
    stb [r4+4], r1
patchme:
    movi r5, 1
    jmp park
pad: .space 8192
src: .word 9
"""


class TestByteGranularCleanliness:
    def test_store_beside_fetch_range_stays_fused(self):
        (machine, tracker, _), _ = run_pair(DIRTY_OWN_PAGE, seeds=[("src", 4)])
        assert taint_stats(machine)["taint_single_steps"] == 0
        assert tracker.shadow.tainted_bytes > 4  # src + near carry taint

    def test_planted_export_tags_beside_code_stay_fused(self):
        (machine, tracker, _), _ = run_pair(
            EXPORT_NEIGHBOR, seeds=[("src", 4), ("planted", 16, EXPORT_TAG)]
        )
        assert taint_stats(machine)["taint_single_steps"] == 0
        # The plant itself is untouched provenance, not collateral.
        assert tracker.shadow.tainted_bytes >= 16 + 4

    def test_tainted_fetch_bytes_run_fused(self):
        # Precision cuts the other way too: taint the first instruction
        # itself and that instruction's block runs its fetch step --
        # fused, with no interpreter step.
        (machine, _, _), _ = run_pair(TAINTED_LOOP, seeds=[("start", 4)])
        assert taint_stats(machine)["taint_single_steps"] == 0

    def test_store_into_fetch_range_exits_precisely(self):
        from repro.isa.registers import Reg

        (machine, tracker, _), (machine_off, _, _) = run_pair(
            PATCH_FETCH, seeds=[("src", 4)]
        )
        # Tainting fetched bytes means writing them, so the code-version
        # bump (SMC) ends the block at the store.
        assert machine.translator.invalidations >= 1
        # The patched, now-tainted instruction ran fused...
        assert taint_stats(machine)["taint_single_steps"] == 0
        # ...and executed the NEW bytes on both tiers.
        assert machine.cpu.regs.read(Reg.R5) == 9
        assert machine_off.cpu.regs.read(Reg.R5) == 9

    def test_clean_store_does_not_exit(self):
        # A tainting store beside the code retires inside its block:
        # with no slice cut, the loop block runs whole on every entry.
        (machine, _, _), _ = run_pair(
            TAINTED_LOOP, seeds=[("src", 4)], quantum=10_000
        )
        (loop,) = [
            b for b in machine.translator.blocks() if not b.pure and b.exec_count > 1
        ]
        assert loop.retired == loop.exec_count * loop.n_insns


SHAPE_PROGRAMS = {
    "mov_alu": """
start:
    movi r6, src
    ld r1, [r6]
    mov r2, r1
    add r3, r1, r2
    xor r4, r1, r1
    sub r5, r2, r2
    xori r3, r3, 0x55
    addi r2, r2, 7
    movi r6, dst
    st [r6], r2
    st [r6+4], r3
    st [r6+8], r4
    jmp park
pad: .space 8192
src: .word 0xabcd
dst: .space 16
""",
    "flags_branch": """
start:
    movi r6, src
    ld r1, [r6]
    cmpi r1, 0
    jz skip
    movi r2, 1
skip:
    cmp r1, r2
    jnz other
    movi r3, 2
other:
    movi r6, dst
    st [r6], r2
    st [r6+4], r3
    jmp park
pad: .space 8192
src: .word 5
dst: .space 8
""",
    "bytes_and_stack": """
start:
    movi r6, src
    ldb r1, [r6+1]
    push r1
    pop r2
    movi r6, dst
    stb [r6+2], r2
    push r2
    pop r3
    jmp park
pad: .space 8192
src: .word 0xa1b2c3d4
dst: .space 8
""",
    "call_link": """
start:
    movi r6, src
    ld r1, [r6]
    call helper
    movi r6, dst
    st [r6], r2
    jmp park
helper:
    addi r2, r1, 1
    ret
pad: .space 8192
src: .word 0x77
dst: .space 4
""",
}


class TestFusedOperandShapes:
    @pytest.mark.parametrize("name", sorted(SHAPE_PROGRAMS))
    @pytest.mark.parametrize("addr_deps", [False, True])
    @pytest.mark.parametrize("control_deps", [False, True])
    def test_shape_matches_interpreter(self, name, addr_deps, control_deps):
        policy = TaintPolicy(
            track_address_deps=addr_deps, track_control_deps=control_deps
        )
        (machine, tracker, _), _ = run_pair(
            SHAPE_PROGRAMS[name], seeds=[("src", 4)], policy=policy
        )
        assert taint_stats(machine)["taint_executions"] > 0
        assert tracker.shadow.tainted_bytes > 0

    def test_process_tags_minted_in_identical_order(self):
        policy = TaintPolicy(process_tags_on_access=True)
        (_, tracker_on, _), (_, tracker_off, _) = run_pair(
            TAINTED_LOOP, seeds=[("src", 4)], policy=policy
        )
        assert tracker_on.stats.process_tag_appends > 0
        assert (
            tracker_on.stats.process_tag_appends
            == tracker_off.stats.process_tag_appends
        )
        assert tracker_on.tags.sizes() == tracker_off.tags.sizes()


class TestTickExactnessInsideTaintedBlocks:
    def test_watchdog_trips_at_identical_tick(self):
        on, off = {}, {}
        for translate, out in ((True, on), (False, off)):
            machine, tracker, stats = run_one(
                TAINTED_LOOP,
                seeds=[("src", 4)],
                translate=translate,
                instruction_budget=150,
            )
            out.update(machine=machine, tracker=tracker, stats=stats)
        assert on["stats"].stop_reason == "fault" == off["stats"].stop_reason
        assert on["stats"].fault.kind == "WatchdogExpired"
        assert (
            on["stats"].fault.to_json_dict() == off["stats"].fault.to_json_dict()
        )
        assert on["machine"].now == off["machine"].now
        assert on["tracker"].shadow.snapshot() == off["tracker"].shadow.snapshot()

    def test_scheduled_fault_event_fires_at_identical_tick(self):
        results = {}
        for translate in (True, False):
            machine = Machine(MachineConfig(translate=translate))
            tracker = TaintTracker(policy=TaintPolicy(), interner=ProvInterner())
            machine.plugins.register(tracker)
            prog = register_asm(machine, "t.exe", TAINTED_LOOP, PARK)
            proc = machine.kernel.spawn("t.exe")
            paddrs = proc.aspace.translate_range(
                prog.label("src"), 4, AccessKind.READ
            )
            tracker.taint_range(paddrs, SEED)
            machine.schedule(
                97, InjectedMachineFault("DeviceFault", "mid-block probe")
            )
            stats = machine.run(300_000)
            results[translate] = (machine, tracker, stats)
        machine_on, tracker_on, stats_on = results[True]
        machine_off, tracker_off, stats_off = results[False]
        assert stats_on.stop_reason == "fault" == stats_off.stop_reason
        assert stats_on.fault.to_json_dict() == stats_off.fault.to_json_dict()
        assert machine_on.now == machine_off.now
        assert tracker_on.shadow.snapshot() == tracker_off.shadow.snapshot()
        assert tracker_on.stats.instructions == tracker_off.stats.instructions

    def test_taint_budget_trips_at_identical_tick(self):
        policy = TaintPolicy(max_tainted_bytes=6)
        on = run_one(TAINTED_LOOP, seeds=[("src", 4)], policy=policy)
        off = run_one(
            TAINTED_LOOP, seeds=[("src", 4)], policy=policy, translate=False
        )
        assert on[2].stop_reason == "fault" == off[2].stop_reason
        assert on[2].fault.kind == "TaintBudgetExceeded"
        assert on[2].fault.to_json_dict() == off[2].fault.to_json_dict()
        assert on[0].now == off[0].now
        assert on[1].stats.instructions == off[1].stats.instructions


#: Pointer-chase loop: the second load's address comes out of the first
#: load, so only a per-access probe can place it -- the per-closure
#: gates decide, with the shadow dirty elsewhere.
POINTER_CHASE = """
start:
    movi r5, 8
    movi r6, ptr
    movi r7, cell
    st [r6], r7
loop:
    ld r7, [r6]
    ld r1, [r7]
    subi r5, r5, 1
    cmpi r5, 0
    jnz loop
    jmp park
farpad: .space 8192
ptr: .word 0
cell: .word 7
farpad2: .space 8192
far: .word 0
farpad3: .space 8192
"""

#: The armed-but-clean copy loop with its counter arithmetic in a pure
#: block of its own.
ARMED_CLEAN_SPLIT = """
start:
    movi r5, 40
loop:
    movi r6, src
    ld r1, [r6]
    movi r6, dst
    st [r6], r1
    jmp count
count:
    addi r2, r1, 1
    subi r5, r5, 1
    cmpi r5, 0
    jnz loop
    jmp park
pad: .space 8192
src: .word 0xfeedface
dst: .word 0
parkpad: .space 8192
far: .word 0
farpad2: .space 8192
"""


class TestDataFootprintCache:
    """Armed-but-clean runs: the bank is clean and the shadow is dirty
    *somewhere else*.

    Named for the per-block data-footprint summary that once delegated
    such blocks whole to the plain closures.  Now a pure block replays
    a record with no slow retirements (a replay, too, runs the plain
    closures), and every other block's data accesses meet the
    per-closure gates, which also place addresses that come out of
    loads.
    """

    def test_armed_but_clean_loop_delegates_whole_blocks(self):
        machine, tracker, _ = run_one(ARMED_CLEAN_SPLIT, seeds=[("far", 4)])
        assert taint_stats(machine)["taint_block_replays"] > 0
        assert tracker.stats.slow_retirements == 0
        assert tracker.stats.instructions == tracker.stats.fast_retirements > 0

    def test_delegated_run_matches_interpreter(self):
        (machine, tracker, _), _ = run_pair(ARMED_CLEAN_SPLIT, seeds=[("far", 4)])
        assert taint_stats(machine)["taint_block_replays"] > 0
        assert tracker.stats.instructions == tracker.stats.fast_retirements > 0
        assert tracker.shadow.tainted_bytes == 4

    def test_uncacheable_run_matches_interpreter(self):
        run_pair(POINTER_CHASE, seeds=[("far", 4)])


#: A pure loop (no data memory) for the block-replay tests.  Its blocks
#: run over file-tagged code once ``CODE`` is seeded.
PURE_LOOP = """
start:
    movi r5, 60
loop:
    addi r1, r1, 3
    muli r2, r1, 5
    xor r3, r1, r2
    subi r5, r5, 1
    cmpi r5, 0
    jnz loop
    jmp park
"""

#: Seed the whole image with a file tag, as FAROS does at spawn.
CODE_TAG = Tag(TagType.FILE, 4)
CODE = ("start", 256, CODE_TAG)


class TestBlockReplay:
    """Pure blocks over tainted fetch bytes, with a clean bank and no
    pending control window, replay the counters a fused run recorded."""

    @pytest.mark.parametrize("tags_on_access", [False, True])
    def test_pure_loop_replays_and_matches_interpreter(self, tags_on_access):
        policy = TaintPolicy(process_tags_on_access=tags_on_access)
        (machine, tracker, _), _ = run_pair(PURE_LOOP, seeds=[CODE], policy=policy)
        assert taint_stats(machine)["taint_block_replays"] > 0
        assert tracker.stats.slow_retirements > 0

    @pytest.mark.parametrize("tags_on_access", [False, True])
    def test_self_loop_replays_once_per_iteration(self, tags_on_access):
        # One slice holds the whole loop.  The entry block runs the
        # first of 60 trips and tags the loop's bytes; the loop block's
        # first run is fused and records, and the other 58 replay in
        # place, each counted as a replay, an execution and (after the
        # first) a chain hit.
        policy = TaintPolicy(process_tags_on_access=tags_on_access)
        (machine, tracker, _), _ = run_pair(
            PURE_LOOP, seeds=[CODE], policy=policy, quantum=10_000
        )
        translator = machine.translator
        (loop,) = [b for b in translator.blocks() if b.self_loop]
        assert loop.exec_count == 59
        assert translator.taint_block_replays == 58
        assert translator.chain_hits == 57
        assert translator.taint_executions == sum(
            b.exec_count for b in translator.blocks()
        )
        assert tracker.stats.slow_retirements >= 59 * loop.n_insns

    @pytest.mark.parametrize("quantum", [2, 3, 4, 7])
    def test_budget_cuts_inside_replayable_blocks(self, quantum):
        # Slices end inside the loop's blocks at every offset: a block
        # the budget does not cover must run fused, not replay.
        run_pair(PURE_LOOP, seeds=[CODE], quantum=quantum)

    def test_taint_budget_policy_never_replays(self):
        policy = TaintPolicy(max_tainted_bytes=1 << 20)
        (machine, _, _), _ = run_pair(PURE_LOOP, seeds=[CODE], policy=policy)
        assert taint_stats(machine)["taint_block_replays"] == 0

    def test_other_process_tag_prevents_replay(self):
        # One block cache serves one address space, hence one process,
        # so the tag key can only differ when a context is rebound to
        # another process's thread over the same code: drive that by
        # hand.  The other process's tag is not yet on the fetch bytes,
        # so its scans must append it; a replay would skip that.
        def phases(tracker, proc):
            other = SimpleNamespace(
                tid=proc.main_thread.tid + 100, process=SimpleNamespace(cr3=proc.cr3 + 1)
            )
            return [(proc.main_thread, 151), (other, 60), (proc.main_thread, 60)]

        on, off = drive_pair(SPIN_LOOP, phases)
        assert on[0].translator.taint_block_replays > 0

    def test_pending_control_window_prevents_replay(self):
        # Under the control-dependency policy a window is armed from
        # tainted flags, which leaves a tainted register behind -- and a
        # tainted bank stops a replay by itself.  Plant a window on a
        # clean bank to check the window test on its own.
        def phases(tracker, proc):
            thread = proc.main_thread

            def plant():
                tracker._pending_control[thread.tid] = [(SEED,), 4]

            return [(thread, 151), plant, (thread, 30)]

        policy = TaintPolicy(track_control_deps=True)
        on, off = drive_pair(SPIN_LOOP, phases, policy=policy)
        assert on[0].translator.taint_block_replays > 0
        assert on[1].banks.snapshot()  # the window reached the registers

    def test_second_tracker_gets_no_stale_replay(self):
        # The first tracker records the loop block at its code page's
        # epoch; the second starts at the same epoch with only one of
        # the block's instructions tagged, so a record carried over
        # would replay five slow retirements where one is right.
        policy = TaintPolicy(process_tags_on_access=False)
        results = {}
        for translate in (True, False):
            machine = Machine(MachineConfig(translate=translate))
            first = TaintTracker(policy=policy, interner=ProvInterner())
            machine.plugins.register(first)
            prog = register_asm(machine, "t.exe", SPIN_LOOP)
            proc = machine.kernel.spawn("t.exe")
            aspace = proc.aspace
            first.taint_range(
                aspace.translate_range(prog.label("start"), 48, AccessKind.READ), CODE_TAG
            )
            machine.run(400)
            machine.plugins.unregister(first)
            second = TaintTracker(policy=policy, interner=ProvInterner())
            machine.plugins.register(second)
            second.taint_range(
                aspace.translate_range(prog.label("loop"), 8, AccessKind.READ), CODE_TAG
            )
            machine.run(400)
            results[translate] = (machine, first, second)
        (m_on, first_on, second_on), (m_off, first_off, second_off) = (
            results[True],
            results[False],
        )
        assert m_on.translator.taint_block_replays > 0
        assert m_on.now == m_off.now
        for on, off in ((first_on, first_off), (second_on, second_off)):
            assert on.stats == off.stats
            assert on.shadow.snapshot() == off.shadow.snapshot()
            assert (on.interner.hits, on.interner.misses) == (
                off.interner.hits,
                off.interner.misses,
            )


#: An endless pure loop for the hand-driven replay tests.  A phase of
#: 1 + 5k retirements ends at the loop head, so the next phase enters
#: the loop block, whose replay record the earlier passes made.
SPIN_LOOP = """
start:
    movi r5, 1000000
loop:
    addi r1, r1, 3
    muli r2, r1, 5
    subi r5, r5, 1
    cmpi r5, 0
    jnz loop
    hlt
"""


def drive_pair(body, phases, policy=None):
    """Run *body* by hand on a translating and an interpreting machine.

    *phases(tracker, proc)* lists ``(thread, n)`` steps -- retire *n*
    instructions attributed to *thread* -- and callables run between
    them.  The translated leg dispatches through
    :meth:`~repro.isa.translate.BlockTranslator.run_taint` with the
    tracker's context rebound to each thread, the interpreted leg
    through ``cpu.step`` plus ``on_insn_exec``.  Returns both legs'
    ``(machine, tracker)`` after asserting them bit-identical.
    """
    legs = {}
    for translate in (True, False):
        machine = Machine(MachineConfig(translate=translate))
        tracker = TaintTracker(policy=policy or TaintPolicy(), interner=ProvInterner())
        machine.plugins.register(tracker)
        prog = register_asm(machine, "t.exe", body)
        proc = machine.kernel.spawn("t.exe")
        tracker.taint_range(
            proc.aspace.translate_range(prog.label("start"), 48, AccessKind.READ),
            CODE_TAG,
        )
        cpu = machine.cpu
        cpu.mmu = proc.aspace
        cpu.restore_context(proc.main_thread.context)
        for phase in phases(tracker, proc):
            if callable(phase):
                phase()
                continue
            thread, n = phase
            end = cpu.instret + n
            if translate:
                ctx = tracker.block_context(machine, thread)
                while cpu.instret < end:
                    machine.translator.run_taint(cpu, end - cpu.instret, ctx)
            else:
                while cpu.instret < end:
                    tracker.on_insn_exec(machine, thread, cpu.step())
        legs[translate] = (machine, tracker)
    (m_on, on), (m_off, off) = legs[True], legs[False]
    assert m_on.cpu.instret == m_off.cpu.instret
    assert m_on.cpu.regs.snapshot() == m_off.cpu.regs.snapshot()
    assert on.stats == off.stats
    assert on.shadow.snapshot() == off.shadow.snapshot()
    assert on.banks.snapshot() == off.banks.snapshot()
    assert (on.interner.hits, on.interner.misses) == (
        off.interner.hits,
        off.interner.misses,
    )
    assert on.tags.sizes() == off.tags.sizes()
    return legs[True], legs[False]


#: ``PURE_LOOP`` plus a seedable word on its own shadow page: seeding it
#: arms the tracker while the loop's code stays clean.
PURE_ARMED = PURE_LOOP + """
pad: .space 8192
far: .word 0
farpad: .space 8192
"""


def observed_pair(body, seeds=(), code_events=()):
    """:func:`run_pair` that also holds every load observation identical;
    returns the translated leg and its load log."""
    logs = ([], [])
    on, off = (
        run_one(body, seeds, translate=translate, code_events=code_events, load_log=log)
        for translate, log in zip((True, False), logs)
    )
    assert_pair_identical(on, off)
    assert logs[0] == logs[1]
    return on, logs[0]


class TestFetchStepDecidesCleanliness:
    """Every fused closure runs its memoised fetch step, and that memo
    alone decides whether the instruction's fetch bytes are clean."""

    def test_clean_fetch_pure_blocks_replay(self):
        (machine, tracker, _), _ = observed_pair(PURE_ARMED, seeds=[("far", 4)])
        assert taint_stats(machine)["taint_block_replays"] > 0
        assert tracker.stats.slow_retirements == 0
        assert tracker.stats.instructions == tracker.stats.fast_retirements > 0

    @pytest.mark.parametrize(
        "body, seed, loop_bytes",
        [(PURE_ARMED, "far", 48), (TAINTED_LOOP, "src", 64)],
        ids=["pure_loop", "tainted_loop"],
    )
    def test_code_tainted_between_slices_is_rescanned(self, body, seed, loop_bytes):
        # The loop runs over clean code, its instruction bytes are then
        # tagged by a channel event (no code write, so no SMC), and later
        # cleaned again: every fetch memo must see both epoch changes.
        events = [(151, "loop", loop_bytes, CODE_TAG), (251, "loop", loop_bytes, None)]
        (machine, tracker, _), log = observed_pair(body, [(seed, 4)], events)
        assert tracker.stats.process_tag_appends > 0
        assert tracker.shadow.snapshot()
        if body is PURE_ARMED:
            assert taint_stats(machine)["taint_block_replays"] > 0
        else:
            assert any(CODE_TAG in prov for _, prov in log)


class TestStraddlingInstructionsFused:
    """The taint tier on the straddle programs of ``test_translate_smc``,
    over file-tagged code, against ``translate=False``."""

    @staticmethod
    def run_pair(name):
        source = STRADDLE_PROGRAMS[name]
        code = assemble(program(source, PARK), base=IMAGE_BASE).code
        return run_pair(source, seeds=[("start", len(code), CODE_TAG)], budget=10_000)

    @pytest.mark.parametrize("name", sorted(STRADDLE_PROGRAMS))
    def test_matches_interpreter(self, name):
        (machine, _, _), (machine_off, _, _) = self.run_pair(name)
        assert machine.kernel.console_log == machine_off.kernel.console_log
        assert [p.exit_code for p in machine.kernel.processes.values()] == [
            p.exit_code for p in machine_off.kernel.processes.values()
        ]
        assert taint_stats(machine)["taint_single_steps"] == 0

    def test_rewritten_second_page_runs_the_new_bytes(self):
        (machine, _, _), _ = self.run_pair("smc")
        (proc,) = machine.kernel.processes.values()
        assert proc.exit_code == 31
        assert taint_stats(machine)["taint_block_replays"] > 0


class FrameMapMMU:
    """Maps virtual pages to chosen physical frames."""

    def __init__(self, frames):
        self.frames = frames

    def translate(self, vaddr, access):
        frame = self.frames.get(vaddr >> PAGE_SHIFT)
        if frame is None:
            raise PageFault(vaddr, access.value, "unmapped")
        return (frame << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))


#: Two straddling instructions, each across a 4 KiB shadow-page edge
#: (see the frame map below): a load, which runs its fused closure and
#: fetch memo, and a pure ``addi``, whose block replays.
SPLIT_STRADDLES = """
start:
    movi r6, 0x180
    movi r5, 1000
loop:
    jmp strad
    .space {pad}
strad:
    ld r1, [r6]
    jmp strad2
    .space 496
strad2:
    addi r2, r2, 1
    subi r5, r5, 1
    cmpi r5, 0
    jnz loop
    hlt
"""


class TestStraddleAcrossShadowPages:
    def test_fetch_probe_memo_and_replay_cover_both_shadow_pages(self):
        """Each instruction's second frame starts a new shadow page.
        Only those tails are tagged, then re-tagged one at a time: the
        fetch memo and the replay record must both watch the tail's
        shadow page, not just the first byte's."""
        probe = assemble(SPLIT_STRADDLES.replace("{pad}", "0")).label("strad")
        prog = assemble(
            SPLIT_STRADDLES.replace("{pad}", str((PAGE_SIZE - 4 - probe) % PAGE_SIZE))
        )
        assert prog.label("strad") % PAGE_SIZE == prog.label("strad2") % PAGE_SIZE == 252
        per_shadow = SHADOW_PAGE_SIZE // PAGE_SIZE
        frames = {0: per_shadow - 1, 1: per_shadow, 2: 2 * per_shadow - 1, 3: 2 * per_shadow}
        tails = [
            tuple(range(frames[page] * PAGE_SIZE, frames[page] * PAGE_SIZE + 4))
            for page in (1, 3)
        ]
        retags = [
            [(tails[0], Tag(TagType.FILE, 1)), (tails[1], Tag(TagType.FILE, 1))],
            [(tails[0], Tag(TagType.FILE, 2))],
            [(tails[1], Tag(TagType.FILE, 3))],
        ]
        thread = SimpleNamespace(tid=1, process=SimpleNamespace(cr3=0x42))
        legs = {}
        for translate in (True, False):
            memory = PhysicalMemory(4 * SHADOW_PAGE_SIZE)
            mmu = FrameMapMMU(frames)
            for i, byte in enumerate(prog.code):
                memory.write_byte(mmu.translate(i, AccessKind.WRITE), byte)
            cpu = CPU(memory, mmu)
            clock = _Clock(cpu)
            tracker = TaintTracker(policy=TaintPolicy(), interner=ProvInterner())
            log = []
            tracker.add_load_listener(
                lambda m, obs, log=log: log.append((m.now, obs.fx.pc, obs.insn_prov))
            )
            translator = BlockTranslator(memory)
            for plants in retags:
                for paddrs, tag in plants:
                    tracker.taint_range(paddrs, tag)
                end = cpu.instret + 120
                if translate:
                    ctx = tracker.block_context(clock, thread)
                    while cpu.instret < end:
                        translator.run_taint(cpu, end - cpu.instret, ctx)
                else:
                    while cpu.instret < end:
                        tracker.on_insn_exec(clock, thread, cpu.step())
            legs[translate] = (tracker, log, translator)
        (on, log_on, translator), (off, log_off, _) = legs[True], legs[False]
        assert sum(b.tail is not None for b in translator.blocks()) == 2
        assert translator.taint_block_replays > 0
        assert log_on == log_off and len(log_on) > 20
        assert on.stats == off.stats
        assert on.shadow.snapshot() == off.shadow.snapshot()
        assert (on.interner.hits, on.interner.misses) == (
            off.interner.hits,
            off.interner.misses,
        )


class _Clock:
    """The one ``Machine`` attribute a load listener reads."""

    def __init__(self, cpu):
        self._cpu = cpu

    @property
    def now(self):
        return self._cpu.instret

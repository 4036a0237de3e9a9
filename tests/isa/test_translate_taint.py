"""Unit tests for the translated-tainted tier (repro.isa.translate).

``test_translate.py`` pins the uninstrumented cache; this file pins the
taint tier's local contracts on whole machines carrying a lone
:class:`~repro.taint.tracker.TaintTracker` (the configuration whose
plan reduces to the fused per-block closures):

* clean code, with or without taint elsewhere, keeps executing
  translated blocks and retires everything fast: pure blocks replay a
  record with no slow retirements, and every other block passes its
  per-closure gates;
* each instruction's memoised fetch step decides its fetch cleanliness,
  byte-precisely: code whose shadow page is dirty but whose own
  *instruction bytes* are clean stays on the fast path (taint planted
  next to code -- the attack-shaped layout -- does not slow it), code
  whose own bytes carry taint runs fused through the fetch step, a
  store that taints the fetch bytes ends its block precisely (via the
  code-version bump, since tainting fetched bytes means writing them),
  code tainted or cleaned between slices without being written is
  rescanned, because the provenance change moves the instruction's own
  shadow codes, the memo's key, and taint landing beside the code
  (even one byte away, on its shadow page) rescans nothing and stops
  no block replay;
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
* a pure block on a clean bank records its replay in a record run,
  from its plain closures, and never compiles fused closures; one
  entered with a tainted register compiles and runs them; a record run
  that appended keeps no record, and a fetch step that raises in a
  record run leaves the interpreter's post-instruction state;
* page-straddling instructions run fused in blocks of their own, and
  their second page is re-checked on every entry.

The cross-tracker randomized matrix lives in
``tests/taint/test_differential.py``; full attack-level runs in
``tests/isa/test_translate_diff.py``.
"""

import dataclasses
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from repro.emulator.machine import Machine, MachineConfig
from repro.faros import Faros
from repro.faults.plan import InjectedMachineFault
from repro.guestos.asmlib import program
from repro.guestos.layout import IMAGE_BASE
from repro.isa import translate as translate_module
from repro.isa.assembler import assemble
from repro.isa.cpu import CPU, AccessKind
from repro.isa.errors import PageFault
from repro.isa.instructions import Op
from repro.isa.memory import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory
from repro.isa.registers import Reg
from repro.isa.translate import BlockTranslator, TranslatedBlock
from repro.taint import shadow as shadow_module
from repro.taint.intern import ProvInterner
from repro.taint.policy import TaintPolicy
from repro.taint.provenance import EMPTY
from repro.taint.shadow import SHADOW_PAGE_SIZE, ShadowMemory
from repro.taint.tags import Tag, TagType
from repro.taint.tracker import TaintTracker
from repro.workloads.corpus import corpus_samples

from tests.conftest import interner_at_loads, pad_to_page_offset, register_asm
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
    :class:`_CodeTaintEvent` over *n* bytes at *label*.  A label may
    carry a byte offset, ``"loop+3"``.  A *load_log* list receives
    every load observation as ``(machine.now, insn_prov, read prov)``.  Returns a
    :class:`Leg`.
    """
    machine = Machine(MachineConfig(translate=translate, **config_kw))
    tracker = TaintTracker(
        policy=policy or TaintPolicy(), interner=ProvInterner()
    )
    machine.plugins.register(tracker)
    if load_log is not None:
        tracker.add_load_listener(
            lambda m, obs: load_log.append((m.now, obs.insn_prov, obs.reads[0][1]))
        )
    loads = interner_at_loads(tracker)
    prog = register_asm(machine, "t.exe", body, PARK)
    proc = machine.kernel.spawn("t.exe")

    def paddrs(label, n):
        name, _, offset = label.partition("+")
        return proc.aspace.translate_range(
            prog.label(name) + int(offset or 0), n, AccessKind.READ
        )

    for label, n, *rest in seeds:
        tracker.taint_range(paddrs(label, n), rest[0] if rest else SEED)
    for tick, label, n, tag in code_events:
        machine.schedule(tick, _CodeTaintEvent(tracker, paddrs(label, n), tag))
    stats = machine.run(budget)
    return Leg(machine, tracker, stats, loads)


class Leg(NamedTuple):
    """One :func:`run_one` run."""

    machine: Machine
    tracker: TaintTracker
    stats: object
    #: The interner's ``(tick, hits, misses)`` at each load observation
    #: (``interner_at_loads``).
    loads: list


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
    machine_on, tracker_on, stats_on, loads_on = on
    machine_off, tracker_off, stats_off, loads_off = off
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
    assert loads_on == loads_off
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
    def test_untainted_run_retires_fast_on_the_taint_tier(self):
        """No taint anywhere: the taint tier runs every slice and
        retires everything fast, touching neither the interner nor the
        tag store, with the interpreter's counters."""
        on, off = run_pair(TAINTED_LOOP)
        machine, tracker, *_ = on
        ts = taint_stats(machine)
        assert ts["taint_executions"] > 0
        assert machine.translator.executions == 0
        assert tracker.stats.slow_retirements == 0
        assert tracker.stats.instructions == tracker.stats.fast_retirements > 0
        assert tracker.shadow.tainted_bytes == 0
        assert (tracker.interner.hits, tracker.interner.misses) == (0, 0)
        assert tracker.tags.sizes()["process"] == 0

    def test_armed_but_clean_thread_retires_fast(self):
        """Taint exists (tracker armed) but this thread never touches
        it: every retirement stays on the fast counter, pure blocks via
        replay records and the rest via per-closure gates."""
        machine, tracker, *_ = run_one(ARMED_CLEAN, seeds=[("far", 4)])
        ts = taint_stats(machine)
        assert ts["taint_executions"] > 0
        assert ts["taint_single_steps"] == 0
        assert tracker.stats.slow_retirements == 0
        assert tracker.stats.instructions == tracker.stats.fast_retirements > 0
        assert tracker.shadow.tainted_bytes == 4  # just the far seed

    def test_tainted_data_on_clean_fetch_pages_stays_translated(self):
        """Taint moving through data pages never evicts the code from
        the translated tier -- only the per-instruction gate pays."""
        machine, tracker, *_ = run_one(TAINTED_LOOP, seeds=[("src", 4)])
        ts = taint_stats(machine)
        assert ts["taint_executions"] > 0
        assert ts["taint_single_steps"] == 0
        assert tracker.shadow.tainted_bytes > 4  # src + dst carry taint
        assert tracker.stats.slow_retirements > 0  # the copies went slow-path

    def test_tainted_run_matches_interpreter(self):
        (machine, tracker, *_), _ = run_pair(TAINTED_LOOP, seeds=[("src", 4)])
        assert taint_stats(machine)["taint_executions"] > 0


#: The store lands one guest page past the code (no code-page version
#: bump, so not SMC) but inside the code's 4 KiB shadow page.  The
#: shadow page goes dirty, yet the block's *fetch bytes* stay clean:
#: each fetch step reads its own all-zero codes and passes.
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
        (machine, tracker, *_), _ = run_pair(DIRTY_OWN_PAGE, seeds=[("src", 4)])
        assert taint_stats(machine)["taint_single_steps"] == 0
        assert tracker.shadow.tainted_bytes > 4  # src + near carry taint

    def test_planted_export_tags_beside_code_stay_fused(self):
        (machine, tracker, *_), _ = run_pair(
            EXPORT_NEIGHBOR, seeds=[("src", 4), ("planted", 16, EXPORT_TAG)]
        )
        assert taint_stats(machine)["taint_single_steps"] == 0
        # The plant itself is untouched provenance, not collateral.
        assert tracker.shadow.tainted_bytes >= 16 + 4

    def test_tainted_fetch_bytes_run_fused(self):
        # Precision cuts the other way too: taint the first instruction
        # itself and that instruction's block runs its fetch step --
        # fused, with no interpreter step.
        (machine, *_), _ = run_pair(TAINTED_LOOP, seeds=[("start", 4)])
        assert taint_stats(machine)["taint_single_steps"] == 0

    def test_store_into_fetch_range_exits_precisely(self):
        from repro.isa.registers import Reg

        (machine, tracker, *_), (machine_off, *_) = run_pair(
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
        (machine, *_), _ = run_pair(
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
        (machine, tracker, *_), _ = run_pair(
            SHAPE_PROGRAMS[name], seeds=[("src", 4)], policy=policy
        )
        assert taint_stats(machine)["taint_executions"] > 0
        assert tracker.shadow.tainted_bytes > 0

    def test_process_tags_minted_in_identical_order(self):
        policy = TaintPolicy(process_tags_on_access=True)
        (_, tracker_on, *_), (_, tracker_off, *_) = run_pair(
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
            machine, tracker, stats, _ = run_one(
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
        machine, tracker, *_ = run_one(ARMED_CLEAN_SPLIT, seeds=[("far", 4)])
        assert taint_stats(machine)["taint_block_replays"] > 0
        assert tracker.stats.slow_retirements == 0
        assert tracker.stats.instructions == tracker.stats.fast_retirements > 0

    def test_delegated_run_matches_interpreter(self):
        (machine, tracker, *_), _ = run_pair(ARMED_CLEAN_SPLIT, seeds=[("far", 4)])
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
        (machine, tracker, *_), _ = run_pair(PURE_LOOP, seeds=[CODE], policy=policy)
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
        (machine, tracker, *_), _ = run_pair(
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
        (machine, *_), _ = run_pair(PURE_LOOP, seeds=[CODE], policy=policy)
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
        # The first tracker records the loop block over its tagged
        # codes; the second tracker's shadow tags only one of the
        # block's instructions, so a record carried over would replay
        # five slow retirements where one is right.
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
    loads = {}
    for translate in (True, False):
        machine = Machine(MachineConfig(translate=translate))
        tracker = TaintTracker(policy=policy or TaintPolicy(), interner=ProvInterner())
        machine.plugins.register(tracker)
        loads[translate] = interner_at_loads(tracker)
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
    assert loads[True] == loads[False]
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
        (machine, tracker, *_), _ = observed_pair(PURE_ARMED, seeds=[("far", 4)])
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
        # cleaned again: every fetch memo must see both code changes.
        events = [(151, "loop", loop_bytes, CODE_TAG), (251, "loop", loop_bytes, None)]
        (machine, tracker, *_), log = observed_pair(body, [(seed, 4)], events)
        assert tracker.stats.process_tag_appends > 0
        assert tracker.shadow.snapshot()
        if body is PURE_ARMED:
            assert taint_stats(machine)["taint_block_replays"] > 0
        else:
            assert any(CODE_TAG in prov for _, prov, _ in log)


#: A long pure loop over file-tagged code, with a data word just past
#: it on the loop's own 4 KiB shadow page.
PURE_LOOP_NEAR = """
start:
    movi r5, 800
loop:
    addi r1, r1, 3
    muli r2, r1, 5
    xor r3, r1, r2
    subi r5, r5, 1
    cmpi r5, 0
    jnz loop
    jmp park
near: .word 0
"""

#: The same layout around a loop that loads from a clean shadow page:
#: its block is not pure, so it runs fused, through its fetch steps.
LOAD_LOOP_NEAR = """
start:
    movi r5, 400
    movi r6, far
loop:
    ld r1, [r6]
    addi r2, r1, 1
    subi r5, r5, 1
    cmpi r5, 0
    jnz loop
    jmp park
near: .word 0
pad: .space 8192
far: .word 7
"""

#: Taint landing on ``near`` while either loop runs, a new tag each time.
NEAR_EVENTS = [
    (tick, "near", 4, Tag(TagType.NETFLOW, 20 + i))
    for i, tick in enumerate(range(301, 2000, 300))
]


class TestFetchCodesKeyTheMemos:
    """The fetch memos and replay records key on the fetch bytes' own
    shadow codes: taint landing beside the code on its shadow page
    leaves them standing, and a change to any one of the 8 bytes
    reaches the next fetch."""

    def test_taint_beside_a_pure_loop_keeps_its_replays(self):
        replays = []
        for events in ((), NEAR_EVENTS):
            on = run_one(PURE_LOOP_NEAR, [CODE], code_events=events)
            off = run_one(PURE_LOOP_NEAR, [CODE], translate=False, code_events=events)
            assert_pair_identical(on, off)
            replays.append(taint_stats(on[0])["taint_block_replays"])
        assert replays[0] == replays[1] > 0

    def test_taint_beside_a_fused_loop_rescans_nothing(self, monkeypatch):
        # The load and the addi after it hold two codes each, so their
        # fetch steps scan byte by byte, through ShadowMemory.get.
        fetched = []
        get = ShadowMemory.get

        def spy(shadow, paddr):
            fetched.append(paddr)
            return get(shadow, paddr)

        monkeypatch.setattr(ShadowMemory, "get", spy)
        loop = assemble(program(LOAD_LOOP_NEAR, PARK), base=IMAGE_BASE).label("loop")
        seeds = [CODE, ("loop+3", 8)]
        scans = []
        for events in ((), NEAR_EVENTS):
            fetched.clear()
            on = run_one(LOAD_LOOP_NEAR, seeds, code_events=events)
            (proc,) = on[0].kernel.processes.values()
            code = set(proc.aspace.translate_range(loop, 40, AccessKind.READ))
            scans.append(sum(paddr in code for paddr in fetched))
            off = run_one(LOAD_LOOP_NEAR, seeds, translate=False, code_events=events)
            assert_pair_identical(on, off)
        assert scans[0] == scans[1] > 0

    def test_taint_on_the_last_fetch_byte_reaches_insn_prov(self):
        # Only the running load's last byte changes: a memo keyed on
        # fewer than its 24 code bytes would return stale provenance.
        events = [(601, "loop+7", 1, SEED)]
        _, log = observed_pair(LOAD_LOOP_NEAR, [CODE], events)
        assert not any(SEED in prov for now, prov, _ in log if now < 601)
        assert any(SEED in prov for _, prov, _ in log)



#: A loop that loads one word, ``far``, on every trip; ``near``, the
#: next word, shares its shadow page.  The load sits in one block, the
#: loop's, so it has one memo.
LOAD_FAR_LOOP = """
start:
    movi r5, 200
    movi r6, far
    jmp loop
loop:
    ld r1, [r6]
    subi r5, r5, 1
    cmpi r5, 0
    jnz loop
    hlt
pad: .space 8192
far: .word 7
near: .word 0
"""

#: A loop that loads each word of a 16-word array once.  With every
#: word tagged alike, each trip reads the codes the trip before it read
#: before its scan appended the process tag.
ARRAY_LOOP = """
start:
    movi r5, 16
    movi r6, arr
    jmp loop
loop:
    ld r1, [r6]
    addi r6, r6, 4
    subi r5, r5, 1
    cmpi r5, 0
    jnz loop
    jmp park
pad: .space 8192
arr: .space 64
"""

#: ``LOAD_FAR_LOOP`` over a word that straddles a guest page boundary.
STRADDLE_LOAD = pad_to_page_offset(
    """
start:
    movi r5, 100
    movi r6, word
    jmp loop
loop:
    ld r1, [r6]
    subi r5, r5, 1
    cmpi r5, 0
    jnz loop
    hlt
pad: .space 8192
    .space {pad}
word: .word 0x01020304
""",
    "word",
    PAGE_SIZE - 2,
)


def scan_spy(monkeypatch):
    """Count the fused loads' data-side scans (memo misses)."""
    scans = []
    scan = translate_module._load_scan

    def spy(ctx, paddrs, tag):
        scans.append(tuple(paddrs))
        return scan(ctx, paddrs, tag)

    monkeypatch.setattr(translate_module, "_load_scan", spy)
    return scans


def load_pair(body, seeds=(), policy=None, code_events=()):
    """:func:`run_pair` that also holds every load observation
    identical; returns the translated leg and its load log."""
    logs = ([], [])
    on, off = (
        run_one(body, seeds, policy, translate, code_events=code_events, load_log=log)
        for translate, log in zip((True, False), logs)
    )
    assert_pair_identical(on, off)
    assert logs[0] == logs[1] and logs[0]
    return on, logs[0]


class TestLoadMemo:
    """A fused load memoises its data side (interpreter step 2) on the
    read bytes' own shadow codes plus the process tag, as the fetch
    step does on its fetch bytes."""

    def test_retagged_read_bytes_rescan(self, monkeypatch):
        # The loaded word gains a new tag between slices, without a
        # store: the memo's key moves, so the next trip rescans.
        scans = scan_spy(monkeypatch)
        events = [
            (tick, "far", 4, Tag(TagType.NETFLOW, 30 + i))
            for i, tick in enumerate((201, 401, 601))
        ]
        on, log = load_pair(LOAD_FAR_LOOP, [("far", 4)], code_events=events)
        for tick, _, _, tag in events:
            assert not any(tag in read for now, _, read in log if now < tick)
            assert any(tag in read for now, _, read in log if now > tick)
        assert len(events) < len(scans) <= 2 * (1 + len(events))
        assert len(log) == 200

    def test_appending_load_records_no_memo(self, monkeypatch):
        # Every trip's scan appends the process tag to the bytes it
        # reads.  A memo recorded there would key on the codes before
        # the append, which the next word still has, and skip its
        # appends.
        scans = scan_spy(monkeypatch)
        (machine, tracker, *_), log = load_pair(ARRAY_LOOP, [("arr", 64)])
        assert tracker.stats.process_tag_appends == 64
        assert len(scans) == len(log) == 16
        (proc,) = machine.kernel.processes.values()
        tag = tracker.tags.process_tag(proc.cr3)
        arr = assemble(program(ARRAY_LOOP, PARK), base=IMAGE_BASE).label("arr")
        for paddr in proc.aspace.translate_range(arr, 64, AccessKind.READ):
            assert tracker.shadow.get(paddr) == (SEED, tag)

    def test_hit_keys_on_the_process_tag(self):
        # One block cache serves one process, so drive another process's
        # thread over the same load by hand: its tag is not yet on the
        # read bytes, so its first trip must rescan and append it.
        far = assemble(program(LOAD_FAR_LOOP), base=IMAGE_BASE).label("far")

        def phases(tracker, proc):
            other = SimpleNamespace(
                tid=proc.main_thread.tid + 100, process=SimpleNamespace(cr3=proc.cr3 + 1)
            )
            paddrs = proc.aspace.translate_range(far, 4, AccessKind.READ)
            return [
                lambda: tracker.taint_range(paddrs, SEED),
                (proc.main_thread, 42),
                (other, 40),
                (proc.main_thread, 40),
            ]

        (machine, tracker), _ = drive_pair(LOAD_FAR_LOOP, phases)
        (proc,) = machine.kernel.processes.values()
        tags = tracker.tags
        both = (SEED, tags.process_tag(proc.cr3), tags.process_tag(proc.cr3 + 1))
        for paddr in proc.aspace.translate_range(far, 4, AccessKind.READ):
            assert tracker.shadow.get(paddr) == both

    def test_hit_adds_the_lookups_it_skips(self, monkeypatch):
        # Two codes in the word: the scan's union makes three lookups,
        # (SEED) | (N) and then (SEED, N) | (N) twice, of which the first
        # two miss once; a hit adds all three.
        scans = scan_spy(monkeypatch)
        seeds = [("far", 1), ("far+1", 3, Tag(TagType.NETFLOW, 10))]
        (_, tracker, *_), log = load_pair(
            LOAD_FAR_LOOP, seeds, TaintPolicy(process_tags_on_access=False)
        )
        assert len(scans) == 1
        assert tracker.interner.misses == 2
        assert tracker.interner.hits == 3 * len(log) - 2

    @pytest.mark.parametrize("process_tags", [True, False], ids=["tags_on", "tags_off"])
    def test_hit_on_a_clean_word_returns_empty_itself(self, monkeypatch, process_tags):
        # ``near`` dirties the page: every trip takes the slow path.
        scans = scan_spy(monkeypatch)
        policy = TaintPolicy(process_tags_on_access=process_tags)
        _, log = load_pair(LOAD_FAR_LOOP, [("near", 4)], policy)
        assert len(scans) == 1
        assert all(read is EMPTY for *_, read in log)

    def test_page_straddling_load_stays_exact(self, monkeypatch):
        # The word's last two bytes lie on the next guest page; one of
        # them is retagged mid-run.  Such a load scans byte by byte on
        # every trip.
        scans = scan_spy(monkeypatch)
        events = [(201, "word+3", 1, Tag(TagType.NETFLOW, 40))]
        _, log = load_pair(STRADDLE_LOAD, [("word", 4)], code_events=events)
        assert len(scans) == len(log) == 100
        assert any(len({paddr >> PAGE_SHIFT for paddr in paddrs}) == 2 for paddrs in scans)
        assert any(Tag(TagType.NETFLOW, 40) in read for *_, read in log)


class TestLazyLoadEffects:
    """A fused load hands its listeners a slotted observation whose
    ``fx`` is built on first read, equal to the interpreter's."""

    def test_fused_effects_match_the_interpreter(self):
        effects = {}
        for translate in (True, False):
            seen = []
            machine = Machine(MachineConfig(translate=translate))
            tracker = TaintTracker(policy=TaintPolicy(), interner=ProvInterner())
            machine.plugins.register(tracker)
            tracker.add_load_listener(lambda m, obs, seen=seen: seen.append(obs))
            prog = register_asm(machine, "t.exe", SHAPE_PROGRAMS["bytes_and_stack"], PARK)
            proc = machine.kernel.spawn("t.exe")
            tracker.taint_range(
                proc.aspace.translate_range(prog.label("src"), 4, AccessKind.READ), SEED
            )
            machine.run(300_000)
            effects[translate] = seen
        fused, interpreted = effects[True], effects[False]
        assert len(fused) == len(interpreted) > 0
        assert {obs.insn.op for obs in fused} >= {Op.LDB, Op.POP}
        for a, b in zip(fused, interpreted):
            assert (a.pc, a.insn, a.insn_prov, a.reads) == (b.pc, b.insn, b.insn_prov, b.reads)
            assert a.fx == b.fx
            assert a.fx.reads[0] is a.reads[0][0]
            assert a.fx is a.fx


class DispatchSpy:
    """Watches the taint tier's two arms.  Per block, whether every
    dispatch met the replay conditions -- a pure block, budget for all
    of it, no taint budget, a clean bank and no pending control window
    -- and every block that compiled its fused closures."""

    def __init__(self, monkeypatch):
        self.always_clean = {}
        self.compiled = []
        replay = BlockTranslator._replay
        execute_taint = TranslatedBlock.execute_taint
        compile_taint = TranslatedBlock.compile_taint

        def note(block, budget, ctx):
            bank = ctx.bank
            clean = (
                block.pure
                and budget >= block.n_insns
                and ctx.budget_check is None
                and bank.tainted == 0
                and not bank.flags
                and ctx.tid not in ctx.pending
            )
            self.always_clean[block] = self.always_clean.get(block, True) and clean

        def replay_spy(translator, block, budget, ctx):
            note(block, budget, ctx)
            return replay(translator, block, budget, ctx)

        def execute_spy(block, budget, ctx):
            note(block, budget, ctx)
            return execute_taint(block, budget, ctx)

        def compile_spy(block):
            self.compiled.append(block)
            return compile_taint(block)

        monkeypatch.setattr(BlockTranslator, "_replay", replay_spy)
        monkeypatch.setattr(TranslatedBlock, "execute_taint", execute_spy)
        monkeypatch.setattr(TranslatedBlock, "compile_taint", compile_spy)

    def clean_only(self):
        """Blocks that only ever ran on a clean bank."""
        return [block for block, clean in self.always_clean.items() if clean]


def faros_pair(scenario):
    """*scenario* under a fresh ``Faros`` (own interner) with the
    translation cache on and off, asserted bit-identical; returns the
    translated leg's ``(machine, faros)``."""
    legs = []
    loads = []
    for translate in (True, False):
        config = scenario.config if scenario.config is not None else MachineConfig()
        pinned = dataclasses.replace(
            scenario, config=dataclasses.replace(config, translate=translate)
        )
        faros = Faros(
            tracker_cls=lambda policy, tags, **kw: TaintTracker(
                policy=policy, tags=tags, interner=ProvInterner(), **kw
            )
        )
        loads.append(interner_at_loads(faros.tracker))
        legs.append((pinned.run(plugins=(faros,)), faros))
    (m_on, on), (m_off, off) = legs
    assert m_on.now == m_off.now
    assert on.tracker.stats == off.tracker.stats
    assert on.tracker.shadow.snapshot() == off.tracker.shadow.snapshot()
    assert on.tracker.banks.snapshot() == off.tracker.banks.snapshot()
    assert (on.tracker.interner.hits, on.tracker.interner.misses) == (
        off.tracker.interner.hits,
        off.tracker.interner.misses,
    )
    assert loads[0] == loads[1]
    assert on.tags.sizes() == off.tags.sizes()
    assert on.report().to_json_dict() == off.report().to_json_dict()
    return legs[0]


#: A tainted load, then a jump into a pure block: the block is entered
#: with a tainted register and must run fused.
LOAD_THEN_PURE = """
start:
    movi r6, src
    ld r1, [r6]
    jmp pure
pure:
    addi r2, r1, 1
    xor r3, r2, r1
    jmp park
pad: .space 8192
src: .word 0xfeedface
"""

#: One pure entry block; a seed on its third instruction only.
PURE_STRAIGHT = """
start:
    movi r1, 1
    addi r1, r1, 2
    muli r2, r1, 3
    xor r3, r1, r2
    jmp park
"""


class TestRecordRun:
    """A pure block on a clean bank with no valid record runs its plain
    closures and fetch steps and records its replay from them; fused
    closures are compiled only for blocks that run fused."""

    def test_file_tagged_pure_loop_compiles_nothing(self, monkeypatch):
        spy = DispatchSpy(monkeypatch)
        (machine, *_), _ = run_pair(PURE_LOOP, seeds=[CODE])
        clean_only = spy.clean_only()
        assert clean_only and taint_stats(machine)["taint_block_replays"] > 0
        assert not set(spy.compiled) & set(clean_only)
        assert all(block.taint_body is None for block in clean_only)
        assert taint_stats(machine)["taint_compiles"] == len(spy.compiled)
        # One slice holds the whole loop, so no budget cut sends a block
        # fused: nothing compiles at all.
        spy.compiled.clear()
        (machine, *_), _ = run_pair(PURE_LOOP, seeds=[CODE], quantum=10_000)
        assert spy.compiled == []
        assert taint_stats(machine)["taint_compiles"] == 0

    def test_corpus_sample_compiles_only_blocks_that_ran_fused(self, monkeypatch):
        spy = DispatchSpy(monkeypatch)
        machine, _ = faros_pair(corpus_samples()[0].scenario())
        clean_only = set(spy.clean_only())
        assert clean_only and spy.compiled
        assert not clean_only & set(spy.compiled)
        assert taint_stats(machine)["taint_compiles"] == len(spy.compiled)

    def test_pure_block_entered_tainted_runs_fused(self, monkeypatch):
        spy = DispatchSpy(monkeypatch)
        (machine, tracker, *_), _ = run_pair(LOAD_THEN_PURE, seeds=[("src", 4)])
        pure = assemble(program(LOAD_THEN_PURE, PARK), base=IMAGE_BASE).label("pure")
        (block,) = [b for b in machine.translator.blocks() if b.start_pc == pure]
        assert block.pure and block in spy.compiled
        assert block.taint_body is not None and block.exec_count == 1
        (regs,) = tracker.banks.snapshot().values()
        assert {Reg.R2, Reg.R3} <= set(regs)

    def test_record_after_an_appending_run_is_dropped(self):
        # The entry block's run appends the process tag to every loop
        # byte; each revert then puts the file tag back alone, so the
        # loop block's first run appends too, and its second finds the
        # codes that first run started from.  A record kept after the
        # appending run would replay there and skip the appends.  The
        # last phase's first iteration is the loop's first run that
        # appends nothing: its fetch scans' first lookup of the
        # appended list misses, which a record carried over from an
        # appending run, under any key, would count as a hit.
        start = assemble(program(SPIN_LOOP), base=IMAGE_BASE).label("start")

        def phases(tracker, proc):
            code = proc.aspace.translate_range(start, 48, AccessKind.READ)

            def revert():
                tracker.clear_range(code)
                tracker.taint_range(code, CODE_TAG)

            thread = proc.main_thread
            return [(thread, 6), revert, (thread, 5), revert, (thread, 5), (thread, 10)]

        on, off = drive_pair(SPIN_LOOP, phases)
        assert on[1].stats.process_tag_appends == 48 + 2 * 40
        assert on[0].translator.taint_block_replays == 1

    @pytest.mark.parametrize(
        "seed, retired",
        [(("start+16", 8, CODE_TAG), 3), (("start", 40, CODE_TAG), 1)],
        ids=["third_instruction", "whole_block"],
    )
    def test_code_table_overflow_keeps_the_post_instruction_state(
        self, monkeypatch, seed, retired
    ):
        # The table holds the file tag's code alone, so the first
        # tagged instruction's fetch step overflows it appending the
        # process tag, inside the entry block's record run: the third
        # instruction's step among clean ones, or the first of a block
        # with one code throughout, whose steps run in bulk.
        monkeypatch.setattr(shadow_module, "MAX_PROV_CODES", 1)
        spy = DispatchSpy(monkeypatch)
        on, off = run_pair(PURE_STRAIGHT, seeds=[seed])
        (machine, tracker, stats, _), (machine_off, _, stats_off, _) = on, off
        assert stats.stop_reason == "fault" == stats_off.stop_reason
        assert stats.fault.kind == "TaintBudgetExceeded"
        assert stats.fault.classification == "degraded"
        assert stats.fault.to_json_dict() == stats_off.fault.to_json_dict()
        start = assemble(program(PURE_STRAIGHT, PARK), base=IMAGE_BASE).label("start")
        assert machine.cpu.pc == machine_off.cpu.pc == start + 8 * retired
        assert tracker.stats.instructions == retired
        assert tracker.stats.slow_retirements == 1
        assert spy.clean_only() and spy.compiled == []


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
        (machine, *_), (machine_off, *_) = self.run_pair(name)
        assert machine.kernel.console_log == machine_off.kernel.console_log
        assert [p.exit_code for p in machine.kernel.processes.values()] == [
            p.exit_code for p in machine_off.kernel.processes.values()
        ]
        assert taint_stats(machine)["taint_single_steps"] == 0

    def test_rewritten_second_page_runs_the_new_bytes(self):
        (machine, *_), _ = self.run_pair("smc")
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
            interner = tracker.interner
            tracker.add_load_listener(
                lambda m, obs, log=log, i=interner: log.append(
                    (m.now, obs.fx.pc, obs.insn_prov, i.hits, i.misses)
                )
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

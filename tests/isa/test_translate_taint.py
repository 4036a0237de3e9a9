"""Unit tests for the translated-tainted tier (repro.isa.translate).

``test_translate.py`` pins the uninstrumented cache; this file pins the
taint tier's local contracts on whole machines carrying a lone
:class:`~repro.taint.tracker.TaintTracker` (the configuration whose
``insn_effects_plan`` reduces to the fused per-block closures):

* armed-but-clean code keeps executing translated blocks (the per-block
  fetch-shadow-page probe), with the pure-clean shortcut retiring
  everything fast;
* cleanliness is byte-precise: blocks on shadow pages that are dirty
  but whose *instruction bytes* are clean stay fused (taint planted
  next to code -- the attack-shaped layout -- no longer evicts it),
  and only a store that taints the fetch range itself exits the block
  precisely (via the code-version bump, since tainting fetched bytes
  means writing them);
* every fused operand shape (moves, ALU, compares, loads/stores, stack
  traffic, calls) leaves bit-identical tracker state vs the
  instrumented interpreter;
* watchdogs, scheduled fault events, and taint budgets fire at the
  identical tick inside tainted blocks.

The cross-tracker randomized matrix lives in
``tests/taint/test_differential.py``; full attack-level runs in
``tests/isa/test_translate_diff.py``.
"""

import dataclasses

import pytest

from repro.emulator.machine import Machine, MachineConfig
from repro.faults.plan import InjectedMachineFault
from repro.isa.cpu import AccessKind
from repro.taint.intern import ProvInterner
from repro.taint.policy import TaintPolicy
from repro.taint.tags import Tag, TagType
from repro.taint.tracker import TaintTracker

from tests.conftest import register_asm

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


def run_one(body, seeds=(), policy=None, translate=True, budget=300_000, **config_kw):
    """One machine, one fast tracker, optional taint seeding by label.

    Each seed is ``(label, n)`` (seeded with the NETFLOW :data:`SEED`)
    or ``(label, n, tag)`` for attack-shaped plants (export tags etc.).
    """
    machine = Machine(MachineConfig(translate=translate, **config_kw))
    tracker = TaintTracker(
        policy=policy or TaintPolicy(), interner=ProvInterner()
    )
    machine.plugins.register(tracker)
    prog = register_asm(machine, "t.exe", body, PARK)
    proc = machine.kernel.spawn("t.exe")
    for label, n, *rest in seeds:
        paddrs = proc.aspace.translate_range(prog.label(label), n, AccessKind.READ)
        tracker.taint_range(paddrs, rest[0] if rest else SEED)
    stats = machine.run(budget)
    return machine, tracker, stats


def assert_pair_identical(on, off):
    """Bit-identity between a translate-on and a translate-off run."""
    machine_on, tracker_on, stats_on = on
    machine_off, tracker_off, stats_off = off
    assert machine_on.now == machine_off.now
    assert stats_on.stop_reason == stats_off.stop_reason
    assert tracker_on.shadow.snapshot() == tracker_off.shadow.snapshot()
    assert tracker_on.shadow.tainted_bytes == tracker_off.shadow.tainted_bytes
    assert tracker_on.banks.snapshot() == tracker_off.banks.snapshot()
    assert tracker_on.stats.instructions == tracker_off.stats.instructions
    assert tracker_on.stats.fast_retirements == tracker_off.stats.fast_retirements
    assert tracker_on.stats.slow_retirements == tracker_off.stats.slow_retirements
    assert (tracker_on.interner.hits, tracker_on.interner.misses) == (
        tracker_off.interner.hits,
        tracker_off.interner.misses,
    )


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
        the pure-clean shortcut and impure ones via per-closure gates."""
        machine, tracker, _ = run_one(ARMED_CLEAN, seeds=[("far", 4)])
        ts = taint_stats(machine)
        assert ts["taint_executions"] > 0
        assert ts["taint_single_steps"] == 0
        assert ts["taint_dirty_exits"] == 0
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
        assert ts["taint_dirty_exits"] == 0
        assert tracker.shadow.tainted_bytes > 4  # src + dst carry taint
        assert tracker.stats.slow_retirements > 0  # the copies went slow-path

    def test_tainted_run_matches_interpreter(self):
        (machine, tracker, _), _ = run_pair(TAINTED_LOOP, seeds=[("src", 4)])
        assert taint_stats(machine)["taint_executions"] > 0


#: The store lands one guest page past the code (no code-page version
#: bump, so not SMC) but inside the code's 4 KiB shadow page.  Under the
#: byte-precise cleanliness rule this is the PR 6 headroom case: the
#: shadow page goes dirty, yet the block's *fetch bytes* stay clean, so
#: every later loop iteration re-probes the range and keeps running
#: fused instead of falling to the interpreter window.
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
#: -- now injected, tainted code -- runs in the detection window.
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
        ts = taint_stats(machine)
        assert ts["taint_dirty_exits"] == 0
        assert ts["taint_single_steps"] == 0
        # Later iterations re-enter the block with its shadow page in
        # the dirty set; the byte-precise probe keeps them fused.
        assert ts["taint_dirty_page_runs"] > 0
        assert tracker.shadow.tainted_bytes > 4  # src + near carry taint

    def test_planted_export_tags_beside_code_stay_fused(self):
        (machine, tracker, _), _ = run_pair(
            EXPORT_NEIGHBOR, seeds=[("src", 4), ("planted", 16, EXPORT_TAG)]
        )
        ts = taint_stats(machine)
        assert ts["taint_single_steps"] == 0
        assert ts["taint_dirty_exits"] == 0
        assert ts["taint_dirty_page_runs"] > 0
        # The plant itself is untouched provenance, not collateral.
        assert tracker.shadow.tainted_bytes >= 16 + 4

    def test_tainted_fetch_bytes_run_in_the_window(self):
        # Precision cuts the other way too: taint the first instruction
        # itself and that instruction (alone) goes through the window.
        (machine, _, _), _ = run_pair(TAINTED_LOOP, seeds=[("start", 4)])
        assert taint_stats(machine)["taint_single_steps"] > 0

    def test_store_into_fetch_range_exits_precisely(self):
        from repro.isa.registers import Reg

        (machine, tracker, _), (machine_off, _, _) = run_pair(
            PATCH_FETCH, seeds=[("src", 4)]
        )
        ts = taint_stats(machine)
        # Tainting fetched bytes means writing them, so the code-version
        # bump (SMC) claims the exit; the dirty-exit counter stays idle.
        assert ts["taint_dirty_exits"] == 0
        assert machine.translator.invalidations >= 1
        # The patched, now-tainted instruction ran in the window...
        assert ts["taint_single_steps"] > 0
        # ...and executed the NEW bytes on both tiers.
        assert machine.cpu.regs.read(Reg.R5) == 9
        assert machine_off.cpu.regs.read(Reg.R5) == 9

    def test_clean_store_does_not_exit(self):
        (machine, _, _), _ = run_pair(TAINTED_LOOP, seeds=[("src", 4)])
        assert taint_stats(machine)["taint_dirty_exits"] == 0


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
#: load, so the block's data footprint cannot be predicted from entry
#: registers -- the write-set summary must refuse to cache it and leave
#: the per-closure probes in charge.
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


class TestDataFootprintCache:
    """The PR 7 headroom satellite: per-block write-set summaries.

    When the bank is clean and the shadow is dirty *somewhere else*,
    the dispatcher predicts each block's data footprint once (cached by
    influence-register signature and MMU mapping epoch) and, on a miss
    against the dirty-page index, delegates the whole block to the
    plain closures instead of paying a per-access probe in every fused
    closure.
    """

    def test_armed_but_clean_loop_delegates_whole_blocks(self):
        machine, tracker, _ = run_one(ARMED_CLEAN, seeds=[("far", 4)])
        ts = taint_stats(machine)
        assert ts["taint_footprint_checks"] > 0
        assert ts["taint_footprint_delegations"] > 0
        # The loop's addresses all come from MOVI-fed registers: the
        # influence signature is empty, so after the first evaluation
        # every later iteration is a pure cache hit.
        assert ts["taint_footprint_cache_hits"] > 0
        assert tracker.stats.slow_retirements == 0
        assert tracker.stats.instructions == tracker.stats.fast_retirements > 0

    def test_delegated_run_matches_interpreter(self):
        (machine, tracker, _), _ = run_pair(ARMED_CLEAN, seeds=[("far", 4)])
        assert taint_stats(machine)["taint_footprint_delegations"] > 0
        assert tracker.shadow.tainted_bytes == 4

    def test_loaded_address_makes_block_uncacheable(self):
        machine, tracker, _ = run_one(POINTER_CHASE, seeds=[("far", 4)])
        ts = taint_stats(machine)
        assert ts["taint_footprint_checks"] > 0
        # The chase loop's block is refused; only the straight-line
        # prologue/terminator blocks (if any) may delegate, and the
        # uncacheable block keeps retiring through per-closure gates.
        blocks = machine.translator.blocks()
        analyzed = [b for b in blocks if b.data_analyzed]
        assert analyzed, "the gate must have analyzed at least one block"
        assert any(not b.data_cacheable for b in analyzed)
        assert tracker.stats.slow_retirements == 0  # everything still clean

    def test_uncacheable_run_matches_interpreter(self):
        run_pair(POINTER_CHASE, seeds=[("far", 4)])

    def test_tainted_bank_never_consults_the_footprint(self):
        """Once provenance reaches a register the summary is irrelevant:
        propagation needs the per-closure slow arms."""
        machine, tracker, _ = run_one(TAINTED_LOOP, seeds=[("src", 4)])
        ts = taint_stats(machine)
        assert ts["taint_footprint_delegations"] == 0
        assert tracker.stats.slow_retirements > 0

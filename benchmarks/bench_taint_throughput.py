"""Microbenchmarks: raw emulation vs whole-system taint throughput.

Not a paper table -- the ablation DESIGN.md calls out: what does each
layer of FAROS cost per retired instruction?  Three configurations over
the same compute-heavy guest (no plugins, bare tracker, full FAROS),
plus the **fast-path benchmark**: a mixed workload where taint arrives
mid-run (the paper's netflow-arrival shape) executed under both the
optimised :class:`~repro.taint.tracker.TaintTracker` and the kept
:class:`~repro.taint.reference.ReferenceTaintTracker`, asserting the
fast path is drift-free and >= 2x faster, and the **bulk-copy/DMA
benchmark**: a packet-arrival workload whose kernel copies and netflow
seeding run through array-backed shadow pages vs the dict-only
configuration, gated at >= 2x with zero drift down to the interner
counters.

Standalone smoke run (no pytest needed, used by CI)::

    PYTHONPATH=src python benchmarks/bench_taint_throughput.py --smoke

It fails (non-zero exit) if the fast path's shadow state drifts from
the reference or the speedup collapses below 2x.
"""

import sys
import time

import pytest

from repro.emulator.machine import Machine, MachineConfig
from repro.faros import Faros
from repro.guestos import layout
from repro.guestos.asmlib import program
from repro.isa.assembler import assemble
from repro.isa.cpu import AccessKind
from repro.taint.intern import ProvInterner
from repro.taint.policy import TaintPolicy
from repro.taint.reference import ReferenceTaintTracker
from repro.taint.tags import Tag, TagStore, TagType
from repro.taint.tracker import TaintTracker

WORK = """
start:
    movi r5, 4000
loop:
    muli r6, r6, 3
    addi r6, r6, 7
    xori r6, r6, 0x55
    subi r5, r5, 1
    cmpi r5, 0
    jnz loop
    movi r1, 0
    movi r0, SYS_EXIT
    syscall
"""


def _run(plugins):
    machine = Machine(MachineConfig())
    for plugin in plugins:
        machine.plugins.register(plugin)
    machine.kernel.register_image(
        "work.exe", assemble(program(WORK), base=layout.IMAGE_BASE)
    )
    machine.kernel.spawn("work.exe")
    machine.run(100_000)
    return machine


def test_throughput_bare_emulation(benchmark):
    machine = benchmark(lambda: _run([]))
    assert machine.kernel.processes[100].exit_code == 0


def test_throughput_tracker_only(benchmark):
    machine = benchmark(
        lambda: _run([TaintTracker(policy=TaintPolicy(process_tags_on_access=False))])
    )
    assert machine.kernel.processes[100].exit_code == 0


def test_throughput_full_faros(benchmark):
    machine = benchmark(lambda: _run([Faros()]))
    assert machine.kernel.processes[100].exit_code == 0


# ======================================================================
# the fast-path benchmark: mixed workload, reference vs optimised
# ======================================================================

SEED = Tag(TagType.NETFLOW, 1)

#: ~86% clean warm-up (taint-free: the gated tracker runs the machine's
#: uninstrumented loop), then a copy loop that repeatedly moves a
#: tainted word with clean compute in between (per-instruction all-clean
#: exits + interned provenance on the copies).  ``pad`` pushes the data
#: onto its own 4 KiB shadow page so the code's fetch pages stay clean.
MIXED_WORK = """
start:
    movi r5, 30000
clean:
    muli r6, r6, 3
    addi r6, r6, 7
    xori r6, r6, 0x55
    subi r5, r5, 1
    cmpi r5, 0
    jnz clean
    movi r5, 300
outer:
    movi r4, 20
inner:
    muli r6, r6, 3
    addi r6, r6, 7
    subi r4, r4, 1
    cmpi r4, 0
    jnz inner
    movi r7, src
    ld r1, [r7]
    movi r7, dst
    st [r7], r1
    movi r1, 0
    subi r5, r5, 1
    cmpi r5, 0
    jnz outer
park:
    movi r1, 10000000
    movi r0, SYS_SLEEP
    syscall
    hlt
pad: .space 8192
src: .word 0xfeedface
dst: .word 0
"""

TAINT_ARRIVES_AT = 180_000
BUDGET = 220_000


class TaintArrival:
    """A scheduled event that seeds taint mid-run (netflow arrival)."""

    def __init__(self, tracker):
        self.tracker = tracker
        self.paddrs = ()

    def deliver(self, machine):
        self.tracker.taint_range(self.paddrs, SEED)

    def __repr__(self):
        return "TaintArrival()"


def run_mixed(tracker, translate=True):
    """Run the mixed workload under *tracker*, timing each phase.

    Returns ``(machine, secs_clean, secs_taint)``: the wall time of the
    taint-free warm-up (everything before the scheduled arrival) and of
    the taint-active remainder, separately.  The split is what lets the
    translated-taint gate measure the phase it actually accelerates --
    folding both into one number would let clean-phase wins mask a
    taint-phase regression.
    """
    machine = Machine(MachineConfig(translate=translate))
    machine.plugins.register(tracker)
    prog = assemble(program(MIXED_WORK), base=layout.IMAGE_BASE)
    machine.kernel.register_image("mixed.exe", prog)
    proc = machine.kernel.spawn("mixed.exe")
    event = TaintArrival(tracker)
    event.paddrs = proc.aspace.translate_range(prog.label("src"), 4, AccessKind.READ)
    machine.schedule(TAINT_ARRIVES_AT, event)
    start = time.perf_counter()
    machine.run(TAINT_ARRIVES_AT)
    mid = time.perf_counter()
    machine.run(BUDGET - TAINT_ARRIVES_AT)
    end = time.perf_counter()
    return machine, mid - start, end - mid


def compare_fast_vs_reference():
    """One paired run; returns the rendered report (raises on drift)."""
    fast = TaintTracker(
        policy=TaintPolicy(process_tags_on_access=False), interner=ProvInterner()
    )
    ref = ReferenceTaintTracker(policy=TaintPolicy(process_tags_on_access=False))
    machine_fast, clean_fast, taint_fast = run_mixed(fast)
    machine_ref, clean_ref, taint_ref = run_mixed(ref)
    secs_fast = clean_fast + taint_fast
    secs_ref = clean_ref + taint_ref

    assert machine_fast.now == machine_ref.now, "instruction streams diverged"
    assert fast.stats.instructions == ref.stats.instructions
    assert fast.shadow.snapshot() == ref.shadow.snapshot(), "shadow state drifted"
    assert fast.shadow.tainted_bytes == ref.shadow.tainted_bytes
    assert fast.shadow.tainted_bytes > 0, "workload moved no taint"
    assert (
        fast.stats.instructions
        == fast.stats.fast_retirements + fast.stats.slow_retirements
    )
    assert fast.stats.fast_retirements > 0 and fast.stats.slow_retirements > 0

    speedup = secs_ref / secs_fast
    ipsec_fast = fast.stats.instructions / secs_fast
    ipsec_ref = ref.stats.instructions / secs_ref
    lines = [
        "fast-path vs reference, mixed workload "
        f"({fast.stats.instructions} insns, taint arrives at {TAINT_ARRIVES_AT})",
        f"  reference : {secs_ref:6.2f}s  {ipsec_ref:10.0f} insn/s  "
        f"(slow={ref.stats.slow_retirements})",
        f"  fast path : {secs_fast:6.2f}s  {ipsec_fast:10.0f} insn/s  "
        f"(fast={fast.stats.fast_retirements}, slow={fast.stats.slow_retirements})",
        f"  speedup   : {speedup:.2f}x",
        f"  interner  : {fast.interner.cache_sizes()} "
        f"hits={fast.interner.hits} misses={fast.interner.misses}",
        f"  drift     : none ({fast.shadow.tainted_bytes} tainted bytes identical)",
    ]
    return speedup, "\n".join(lines)


def compare_translate_on_vs_off():
    """The translated-taint gate: fast tracker, translate on vs off.

    Both runs use the identical optimised tracker; the only variable is
    whether instrumented slices execute block-at-a-time through the
    translated-tainted tier or instruction-at-a-time through
    ``cpu.step``.  Asserts zero drift across everything an analysis
    consumer can observe (instret, taint stats, interner counters, the
    full shadow snapshot) and that the taint tier actually fused blocks
    (rather than silently single-stepping everything), then returns the
    taint-active-phase speedup.
    """
    results = {}
    for translate in (True, False):
        tracker = TaintTracker(
            policy=TaintPolicy(process_tags_on_access=False), interner=ProvInterner()
        )
        machine, secs_clean, secs_taint = run_mixed(tracker, translate=translate)
        results[translate] = (machine, tracker, secs_clean, secs_taint)

    machine_on, on, clean_on, taint_on = results[True]
    machine_off, off, clean_off, taint_off = results[False]

    assert machine_on.now == machine_off.now, "instruction streams diverged"
    assert on.stats.instructions == off.stats.instructions
    assert on.stats.fast_retirements == off.stats.fast_retirements
    assert on.stats.slow_retirements == off.stats.slow_retirements
    assert (on.interner.hits, on.interner.misses) == (
        off.interner.hits,
        off.interner.misses,
    ), "interner call sequences diverged"
    assert on.shadow.snapshot() == off.shadow.snapshot(), "shadow state drifted"
    assert on.shadow.tainted_bytes == off.shadow.tainted_bytes > 0
    tstats = machine_on.translator.stats()
    assert tstats["taint_executions"] > 0, "taint tier never fused a block"

    clean_speedup = clean_off / clean_on
    taint_speedup = taint_off / taint_on
    lines = [
        "translated taint vs interpreter taint, mixed workload "
        f"({on.stats.instructions} insns, taint arrives at {TAINT_ARRIVES_AT})",
        f"  clean phase : on={clean_on:6.2f}s off={clean_off:6.2f}s  "
        f"{clean_speedup:.2f}x",
        f"  taint phase : on={taint_on:6.2f}s off={taint_off:6.2f}s  "
        f"{taint_speedup:.2f}x",
        f"  taint tier  : executions={tstats['taint_executions']} "
        f"single_steps={tstats['taint_single_steps']} "
        f"block_replays={tstats['taint_block_replays']}",
        f"  drift       : none ({on.shadow.tainted_bytes} tainted bytes, "
        f"fast={on.stats.fast_retirements} slow={on.stats.slow_retirements} "
        "identical)",
    ]
    return taint_speedup, "\n".join(lines)


# ======================================================================
# the bulk-copy/DMA benchmark: array-backed shadow pages vs dict-only
# ======================================================================

#: Physical windows for the DMA-shaped workload (low reserved memory,
#: no process owns them; the trackers are driven directly through the
#: same plugin callbacks the kernel/NIC paths invoke).
DMA_RING = 0x4000
STAGE_BASE = 0x10000
IMAGE_DEST = 0x20000
PACKET_BYTES = 1400  # MTU-ish payload


class _Actor:
    """The only thing ``on_phys_copy`` needs from an acting process."""

    cr3 = 0x7777


def run_bulk_copy_workload(mode, rounds):
    """Packet-arrival churn: DMA write, netflow seed, two kernel copies.

    Every round mimics the recv pipeline's taint traffic -- an inbound
    payload lands in the DMA ring (``on_phys_write`` clears, then
    ``taint_range`` seeds the netflow tag), the kernel copies it to the
    process buffer and the loader copies it on into an image region
    (``on_phys_copy`` with an acting process, so every tainted byte
    takes a process-tag append en route).  The per-byte ``paddrs``
    tuples are built exactly as the MMU emits them.
    """
    tags = TagStore()
    tracker = TaintTracker(
        policy=TaintPolicy(process_tags_on_access=True),
        tags=tags,
        interner=ProvInterner(),
        shadow_mode=mode,
    )
    actor = _Actor()
    dma = tuple(range(DMA_RING, DMA_RING + PACKET_BYTES))
    start = time.perf_counter()
    for i in range(rounds):
        flow = tags.netflow_tag("9.9.9.9", 4444, "10.0.0.1", 49152 + (i % 7))
        tracker.on_phys_write(None, dma, source="nic")
        tracker.taint_range(dma, flow)
        stage = STAGE_BASE + (i % 4) * PACKET_BYTES
        stage_paddrs = tuple(range(stage, stage + PACKET_BYTES))
        tracker.on_phys_copy(None, stage_paddrs, dma, actor)
        dest = IMAGE_DEST + (i % 16) * PACKET_BYTES
        dest_paddrs = tuple(range(dest, dest + PACKET_BYTES))
        tracker.on_phys_copy(None, dest_paddrs, stage_paddrs, actor)
    secs = time.perf_counter() - start
    return tracker, secs


def compare_bulk_copy_modes(rounds=80):
    """The bulk-copy/DMA gate: array-capable shadow vs dict-only.

    Identical op sequences through ``shadow_mode="auto"`` and
    ``shadow_mode="dict"`` trackers (each with its own interner and tag
    store, minted in the same order).  Asserts zero drift across the
    shadow snapshot, byte counts, tracker stats, and the interner
    hit/miss counters -- the bulk ops must score exactly what the
    per-byte loops score -- then returns the measured speedup.
    """
    bulk, secs_bulk = run_bulk_copy_workload("auto", rounds)
    dict_only, secs_dict = run_bulk_copy_workload("dict", rounds)

    assert bulk.shadow.snapshot() == dict_only.shadow.snapshot(), (
        "shadow state drifted between representations"
    )
    assert bulk.shadow.tainted_bytes == dict_only.shadow.tainted_bytes > 0
    assert bulk.stats.kernel_copies == dict_only.stats.kernel_copies
    assert bulk.stats.external_writes == dict_only.stats.external_writes
    assert bulk.stats.process_tag_appends == dict_only.stats.process_tag_appends
    assert (bulk.interner.hits, bulk.interner.misses) == (
        dict_only.interner.hits,
        dict_only.interner.misses,
    ), "interner call sequences diverged between representations"
    assert bulk.shadow.array_page_count > 0, "bulk leg never built an array page"

    speedup = secs_dict / secs_bulk
    moved = bulk.stats.kernel_copies * PACKET_BYTES
    lines = [
        "bulk-copy/DMA phase, array-backed shadow vs dict-only "
        f"({rounds} packets, {moved} copied bytes)",
        f"  dict-only : {secs_dict:6.3f}s",
        f"  array/auto: {secs_bulk:6.3f}s  "
        f"(array_pages={bulk.shadow.array_page_count}, "
        f"promotions={bulk.shadow.promotions}, "
        f"demotions={bulk.shadow.demotions})",
        f"  speedup   : {speedup:.2f}x",
        f"  drift     : none ({bulk.shadow.tainted_bytes} tainted bytes, "
        f"appends={bulk.stats.process_tag_appends}, "
        f"interner hits={bulk.interner.hits} misses={bulk.interner.misses} "
        "identical)",
    ]
    return speedup, "\n".join(lines)


@pytest.mark.slow
def test_bulk_copy_dma_speedup(emit):
    speedup, report = compare_bulk_copy_modes()
    emit("bulk_copy_dma", report)
    assert speedup >= 2.0, f"bulk-copy phase only {speedup:.2f}x over dict-only"


@pytest.mark.slow
def test_mixed_workload_fast_path_speedup(emit):
    speedup, report = compare_fast_vs_reference()
    emit("taint_fast_path", report)
    assert speedup >= 2.0, f"fast path only {speedup:.2f}x over reference"


@pytest.mark.slow
def test_translated_taint_phase_speedup(emit):
    speedup, report = compare_translate_on_vs_off()
    emit("translated_taint", report)
    assert speedup >= 3.0, f"translated taint only {speedup:.2f}x on taint phase"


def main(argv):
    if "--smoke" not in argv:
        print(__doc__)
        return 2
    status = 0
    speedup, report = compare_bulk_copy_modes()
    print(report)
    if speedup < 2.0:
        print(f"FAIL: bulk-copy speedup {speedup:.2f}x < 2x", file=sys.stderr)
        status = 1
    speedup, report = compare_fast_vs_reference()
    print(report)
    if speedup < 2.0:
        print(f"FAIL: fast-path speedup {speedup:.2f}x < 2x", file=sys.stderr)
        status = 1
    taint_speedup, report = compare_translate_on_vs_off()
    print(report)
    if taint_speedup < 3.0:
        print(
            f"FAIL: translated-taint phase speedup {taint_speedup:.2f}x < 3x",
            file=sys.stderr,
        )
        status = 1
    print("FAIL" if status else "OK")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Microbenchmark: interpreted vs block-translated guest execution.

The basic-block translation cache (:mod:`repro.isa.translate`) exists to
make the *recording* half of record/replay cheap: when no plugin needs
per-instruction effects, the machine executes whole cached blocks of
specialized closures instead of fetch/decode/dispatch per instruction.
This benchmark runs the same compute-heavy guest under
``MachineConfig(translate=False)`` (every instruction through the
``cpu.step`` interpreter) and ``translate=True``, then gates on two
things:

* **zero drift** -- final instruction count, delivery journal, fault
  records, and guest exit code are bit-identical across the two paths
  (the contract the differential suites pin per-attack);
* **speedup** -- the translated path is at least 4x faster (best-of-3
  wall clock) on the uninstrumented workload.  The gate was 2x against
  an effect-free interpreter loop that ``cpu.step`` takes about twice
  as long as (1.5-1.8 s against 3.2-3.7 s for the interpreted leg on a
  2-vCPU host, where the translated speedup read 15-16x against that
  loop and 26-34x against ``cpu.step``), so 4x is the same bar.

Standalone smoke run (no pytest needed, used by CI)::

    PYTHONPATH=src python benchmarks/bench_block_translation.py --smoke

It fails (non-zero exit) on drift or if the speedup collapses below 4x.
"""

import sys
import time

import pytest

from repro.emulator.machine import Machine, MachineConfig
from repro.guestos import layout
from repro.guestos.asmlib import program
from repro.isa.assembler import assemble

#: Hot ALU loop with a store/load pair per outer iteration -- mostly
#: "pure" translated blocks, plus enough memory traffic to exercise the
#: impure (SMC-checked) executor and the page-version bookkeeping.
WORK = """
start:
    movi r5, 2500
outer:
    movi r4, 12
inner:
    muli r6, r6, 3
    addi r6, r6, 7
    xori r6, r6, 0x55
    shli r7, r6, 3
    subi r4, r4, 1
    cmpi r4, 0
    jnz inner
    movi r7, scratch
    st [r7], r6
    ld r2, [r7]
    subi r5, r5, 1
    cmpi r5, 0
    jnz outer
    movi r1, 0
    movi r0, SYS_EXIT
    syscall
pad: .space 512
scratch: .word 0
"""

BUDGET = 400_000
BEST_OF = 3
MIN_SPEEDUP = 4.0


def run_once(translate: bool):
    """One full run; returns (machine, seconds)."""
    machine = Machine(MachineConfig(translate=translate))
    machine.kernel.register_image(
        "work.exe", assemble(program(WORK), base=layout.IMAGE_BASE)
    )
    machine.kernel.spawn("work.exe")
    start = time.perf_counter()
    machine.run(BUDGET)
    return machine, time.perf_counter() - start


def _outcome(machine):
    """Everything the two paths must agree on, in comparable form."""
    return {
        "instret": machine.now,
        "journal": [(at, repr(ev)) for at, ev in machine.journal],
        "faults": [rec.to_json_dict() for rec in machine.fault_records],
        "exit_code": machine.kernel.processes[100].exit_code,
    }


def compare_interpreted_vs_translated(best_of: int = BEST_OF):
    """Paired best-of-N runs; returns (speedup, report). Raises on drift."""
    machines, times = {}, {}
    for translate in (False, True):
        secs = []
        for _ in range(best_of):
            machine, elapsed = run_once(translate)
            secs.append(elapsed)
        machines[translate] = machine
        times[translate] = min(secs)

    interpreted, translated = machines[False], machines[True]
    assert _outcome(translated) == _outcome(interpreted), "execution drifted"
    assert translated.translator is not None and interpreted.translator is None
    stats = translated.translator.stats()
    assert stats["executions"] > 0, "translated run never used the cache"

    speedup = times[False] / times[True]
    insns = translated.now
    lines = [
        f"interpreted vs translated, {insns} retired insns, best of {best_of}",
        f"  interpreted : {times[False]:6.2f}s  {insns / times[False]:10.0f} insn/s",
        f"  translated  : {times[True]:6.2f}s  {insns / times[True]:10.0f} insn/s",
        f"  speedup     : {speedup:.2f}x",
        f"  cache       : translations={stats['translations']} "
        f"executions={stats['executions']} chain_hits={stats['chain_hits']} "
        f"invalidations={stats['invalidations']}",
        "  drift       : none (instret, journal, faults, exit code identical)",
    ]
    return speedup, "\n".join(lines)


def test_throughput_interpreted(benchmark):
    machine = benchmark(lambda: run_once(False)[0])
    assert machine.kernel.processes[100].exit_code == 0


def test_throughput_translated(benchmark):
    machine = benchmark(lambda: run_once(True)[0])
    assert machine.kernel.processes[100].exit_code == 0


@pytest.mark.slow
def test_translated_speedup_without_drift(emit):
    speedup, report = compare_interpreted_vs_translated()
    emit("block_translation", report)
    assert speedup >= MIN_SPEEDUP, f"translation only {speedup:.2f}x over interpreter"


def main(argv):
    if "--smoke" not in argv:
        print(__doc__)
        return 2
    speedup, report = compare_interpreted_vs_translated()
    print(report)
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f}x < {MIN_SPEEDUP}x", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Host-speed yardstick: a fixed slice of interpreter work, timed.

The reference host is a virtual machine whose speed drifts by tens of
percent within minutes, so the same code reads that much slower or
faster from one run to the next.  Untraced runs therefore time this
yardstick all through their timed work and report every timing at the
yardstick's nominal speed: times are multiplied by ``NOMINAL_S`` over
the run's median sample, rates divided by it.  ``NOTES.md`` ("Host
speed") gives the measurements.

The yardstick is benchmark code, never the program's: a change to the
program cannot make it faster or slower except through the host it
shares.  Its loop is a miniature of the program's hot path, a toy
instruction stream over a dictionary-backed memory that records and
looks up per-address labels in a shadow map, so that host contention
slows it about as much as it slows the emulator.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

#: Instructions in one sample: about 6 ms on the reference host.
STEPS = 8000

#: A typical sample on the reference host when the benchmark was
#: defined (CPU seconds).  Only a scale: it makes converted times read
#: in seconds of a host running at that speed.
NOMINAL_S = 0.0065

#: Period of the helper process's samples beside multi-process work.
SAMPLE_EVERY_S = 0.1

_MEMORY = {addr: (addr * 40503 >> 4) & 0xFF for addr in range(0, 1 << 20, 16)}


def _work(steps: int) -> int:
    memory = _MEMORY
    shadow = {}
    regs = [0] * 8
    for pc in range(steps):
        addr = (pc * 2654435761) & 0xFFFF0
        word = memory[addr]
        op = word & 3
        dst = (word >> 2) & 7
        if op == 0:
            regs[dst] = (regs[dst] + word) & 0xFFFFFFFF
        elif op == 1:
            shadow[addr] = (dst, pc)
        elif op == 2:
            label = shadow.get(addr)
            if label is not None:
                regs[dst] ^= label[1]
        else:
            regs[dst] = regs[(dst + 1) & 7]
    return regs[0]


def sample_s() -> float:
    """CPU seconds of one sample.  CPU time, not wall time, so a sample
    that waits for a CPU the workload's processes hold is not charged
    for the wait; the collector is off so no sample pays for the
    program's garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        _work(STEPS)
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples: List[float]) -> float:
    """Nominal over measured speed, from a run's samples: below 1 on a
    slow host.  Times are multiplied by it, rates divided."""
    return NOMINAL_S / statistics.median(samples)

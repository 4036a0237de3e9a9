"""Hot-block profiler: which guest code is the machine (and the taint
engine) actually spending its time in?

The paper reports per-attack instruction counts and taint overhead
(Table V, Figs. 9-10) as totals; to *act* on overhead you need the
breakdown -- which basic blocks retire the most instructions, and which
of them force the taint tracker onto its slow propagation path.
:class:`HotBlockProfiler` is an emulator plugin that reads both off the
machine's basic-block translation cache (:mod:`repro.isa.translate`):
each :class:`~repro.isa.translate.TranslatedBlock` already counts the
instructions it retired and, on the taint tier, its slow retirements
(``taint_slow``).

The profiler implements no per-instruction hook, so attaching it
changes nothing about how the machine executes: an observed run runs
the same translated (or translated-tainted) tier as an unobserved one,
with the same verdicts and counters.  Blocks are keyed by their start
virtual address, summed over the address spaces that cached one there
(code shared between processes accumulates), and each block is named
after the processes whose address space it was translated under.

Attribution is exact but covers only code still resident in the cache:
a block invalidated by a code write takes its counts with it, so the
ranked ``taint_slow`` sums to at most the tracker's
``slow_retirements``, and to exactly that on a run that invalidated no
block.  Under ``MachineConfig(translate=False)`` there is no cache and
the ranking is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.emulator.plugins import Plugin


@dataclass
class BlockProfile:
    """One ranked block in a profiler snapshot."""

    start_pc: int
    retired: int
    taint_slow: int
    processes: List[str]

    def to_dict(self) -> dict:
        return {
            "start_pc": self.start_pc,
            "retired": self.retired,
            "taint_slow": self.taint_slow,
            "processes": list(self.processes),
        }


class HotBlockProfiler(Plugin):
    """Ranks translated blocks by retired instructions and taint-slow work."""

    name = "hotblocks"

    def __init__(self) -> None:
        super().__init__()
        self._machine = None

    def on_machine_start(self, machine) -> None:
        self._machine = machine

    def _blocks(self) -> Dict[int, list]:
        """start pc -> [retired, taint slow, process names], over every
        executed block in the cache."""
        machine = self._machine
        translator = machine.translator if machine is not None else None
        if translator is None:
            return {}
        names = {p.aspace: p.name for p in machine.kernel.processes.values()}
        merged: Dict[int, list] = {}
        for space, blocks in translator.spaces():
            name = names.get(space)
            for block in blocks:
                if not block.exec_count:
                    continue
                cell = merged.get(block.start_pc)
                if cell is None:
                    cell = merged[block.start_pc] = [0, 0, set()]
                cell[0] += block.retired
                cell[1] += block.taint_slow
                if name is not None:
                    cell[2].add(name)
        return merged

    def top(self, n: int = 10) -> List[BlockProfile]:
        """The *n* hottest blocks, by retired instructions then taint work.

        Ties break on ascending start address, so rankings are total
        orders and deterministic across replays.
        """
        return self._ranked(self._blocks(), n)

    @staticmethod
    def _ranked(blocks: Dict[int, list], n: int) -> List[BlockProfile]:
        ranked = sorted(blocks.items(), key=lambda item: (-item[1][0], -item[1][1], item[0]))
        return [
            BlockProfile(start_pc=pc, retired=cell[0], taint_slow=cell[1],
                         processes=sorted(cell[2]))
            for pc, cell in ranked[:n]
        ]

    def snapshot(self, n: int = 10) -> dict:
        blocks = self._blocks()
        return {
            "blocks_seen": len(blocks),
            "top": [b.to_dict() for b in self._ranked(blocks, n)],
        }

"""The tag-confluence detector (§IV, §V-B).

FAROS overcomes the indirect-flow dilemma *per security policy*: instead
of deciding globally whether to propagate address/control dependencies,
it watches for tags of different types "coming together" at one memory
location.  For in-memory injection the confluence is:

**Rule R1 (netflow confluence)** -- the paper's headline invariant: a
load/mov instruction whose own bytes carry a *netflow* tag and at least
one *process* tag reads a location tagged *export-table*.  Data from the
network is executing and resolving imports: reflective DLL injection,
network-delivered code injection, and the self-injection case of
``reverse_tcp_dns`` (Fig. 8, one process tag).

**Rule R2 (cross-process confluence)** -- the variant visible in the
paper's Fig. 10 hollowing provenance (``process_hollowing.exe ->
svchost.exe`` + export table, no netflow): the instruction's bytes carry
*two or more distinct process* tags -- written by one process, executed
by another -- and it reads export-table-tagged memory.

Both rules are policy, not mechanism: they are a few lines over the
provenance lists, which is the flexibility §VI-B argues lets FAROS adapt
to new attack techniques.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.isa.instructions import format_instruction
from repro.obs.metrics import NULL_REGISTRY
from repro.taint.shadow import (
    SHADOW_PAGE_SHIFT,
    SUMMARY_EXPORT,
    SUMMARY_NETFLOW,
    SUMMARY_PROCESS,
    prov_class_mask,
    prov_process_count,
)
from repro.taint.tags import Tag, TagStore
from repro.taint.tracker import LoadObservation

Prov = Tuple[Tag, ...]


@dataclass
class DetectionConfig:
    """Which confluence rules are active."""

    netflow_rule: bool = True        # R1
    cross_process_rule: bool = True  # R2


@dataclass
class FlaggedInstruction:
    """One detection: an injected instruction caught reading the export table."""

    tick: int
    pc: int
    insn_text: str
    executing_pid: int
    executing_process: str
    read_vaddr: int
    insn_prov: Prov
    read_prov: Prov
    rule: str

    def __str__(self) -> str:
        return (
            f"[{self.rule}] {self.executing_process}({self.executing_pid}) "
            f"pc={self.pc:#x} `{self.insn_text}` read {self.read_vaddr:#x}"
        )


class Detector:
    """Observes tainted loads and applies the confluence rules."""

    def __init__(
        self,
        tags: TagStore,
        config: Optional[DetectionConfig] = None,
        metrics=None,
        shadow=None,
    ) -> None:
        """*shadow*, when it is a flag-cache-capable
        :class:`~repro.taint.shadow.ShadowMemory`, enables the per-page
        summary-word confluence pre-check in :meth:`observe_load`; any
        other value (e.g. the reference tracker's oracle shadow) is
        ignored and the detector scans read provenance directly."""
        self.tags = tags
        self.shadow = shadow if hasattr(shadow, "page_summary") else None
        self.config = config or DetectionConfig()
        self.flagged: List[FlaggedInstruction] = []
        #: Callbacks invoked with each fresh FlaggedInstruction (e.g. the
        #: FAROS plugin's timeline recorder).
        self.on_flag = []
        #: Dedup key: (pc, executing cr3, read page) so a resolver loop
        #: scanning the whole export table yields a handful of entries,
        #: not one per entry compared.
        self._seen: Set[Tuple[int, int, int]] = set()
        m = metrics if metrics is not None else NULL_REGISTRY
        self._ctr_flags = m.counter("faros.detector.flags")
        self._ctr_by_rule = {
            "netflow+export-table": m.counter("faros.detector.flags.netflow"),
            "cross-process+export-table": m.counter(
                "faros.detector.flags.cross_process"
            ),
        }

    def observe_load(self, machine, obs: LoadObservation) -> None:
        """Load-listener callback wired into the taint tracker.

        The rule gates run on interned-provenance *class masks*
        (:func:`~repro.taint.shadow.prov_class_mask` memoises per
        provenance value), so the common armed-but-innocent load costs
        two bit tests.  R2, which needs *distinct* process tags and not
        just the class bit, reads a count memoised per provenance value
        beside the class masks (:func:`~repro.taint.shadow.prov_process_count`).
        """
        insn_prov = obs.insn_prov
        if not insn_prov:
            return
        mask = prov_class_mask(insn_prov)
        if not mask & SUMMARY_PROCESS:
            return

        rule = None
        if self.config.netflow_rule and mask & SUMMARY_NETFLOW:
            rule = "netflow+export-table"
        elif self.config.cross_process_rule and prov_process_count(insn_prov) >= 2:
            rule = "cross-process+export-table"
        if rule is None:
            return

        shadow = self.shadow
        if shadow is not None:
            # Confluence pre-check as a flag-cache probe: one summary
            # word per touched shadow page (an access spans at most two
            # -- bytes within each 256-byte guest page are physically
            # consecutive).  Summaries never under-report a class still
            # present on the page, so a missing EXPORT bit proves no
            # read below can carry an export tag.
            shift = SHADOW_PAGE_SHIFT
            summary = 0
            for access, _ in obs.reads:
                paddrs = access.paddrs
                first = paddrs[0] >> shift
                summary |= shadow.page_summary(first)
                last = paddrs[-1] >> shift
                if last != first:
                    summary |= shadow.page_summary(last)
            if not summary & SUMMARY_EXPORT:
                return

        for access, read_prov in obs.reads:
            if not read_prov or not prov_class_mask(read_prov) & SUMMARY_EXPORT:
                continue
            thread = obs.thread
            key = (obs.pc, thread.process.cr3, access.vaddr >> 8)
            if key in self._seen:
                continue
            self._seen.add(key)
            flagged = FlaggedInstruction(
                tick=machine.now,
                pc=obs.pc,
                insn_text=format_instruction(obs.insn),
                executing_pid=thread.process.pid,
                executing_process=thread.process.name,
                read_vaddr=access.vaddr,
                insn_prov=insn_prov,
                read_prov=read_prov,
                rule=rule,
            )
            self.flagged.append(flagged)
            self._ctr_flags.inc()
            self._ctr_by_rule[rule].inc()
            for callback in self.on_flag:
                callback(flagged)

    @property
    def attack_detected(self) -> bool:
        return bool(self.flagged)

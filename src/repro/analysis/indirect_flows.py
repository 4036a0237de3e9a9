"""E11: the indirect-flow dilemma, quantified (Figs. 1-2, §III-§IV).

Runs the paper's two canonical programs -- the Figure 1 lookup-table
copy (address dependency) and the Figure 2 bit-by-bit branch copy
(control dependency) -- under three taint policies:

* ``direct-only`` (FAROS' setting): both copies launder taint
  (*undertainting* on these programs);
* ``address-deps``: Fig. 1 is caught, but every table-indexed
  computation in a real system would now propagate;
* ``all-indirect``: both are caught, at the price of tainting
  control-dependent constants (*overtainting*), which we measure as the
  number of extra tainted bytes beyond the true flow.

The experiment's point is the paper's: no global knob is right, which
is why FAROS moves the decision into the security policy (tag
confluence) instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.emulator.machine import Machine, MachineConfig
from repro.guestos import layout
from repro.guestos.asmlib import program
from repro.isa.assembler import assemble
from repro.isa.cpu import AccessKind
from repro.taint.policy import TaintPolicy
from repro.taint.tags import Tag, TagType
from repro.taint.tracker import TaintTracker

SEED = Tag(TagType.NETFLOW, 0)

#: Fig. 1: str2[j] = lookuptable[str1[j]] with an identity table.
FIG1_PROGRAM = """
start:
    movi r1, table
    movi r2, 0
build:
    stb [r1], r2
    addi r1, r1, 1
    addi r2, r2, 1
    cmpi r2, 256
    jnz build
    movi r1, str1
    movi r2, str2
    movi r3, 8
xlate:
    ldb r4, [r1]
    movi r5, table
    add r5, r5, r4
    ldb r6, [r5]
    stb [r2], r6
    addi r1, r1, 1
    addi r2, r2, 1
    subi r3, r3, 1
    cmpi r3, 0
    jnz xlate
park:
    movi r1, 1000000
    movi r0, SYS_SLEEP
    syscall
    hlt
str1: .ascii "Tainted!"
str2: .space 8
table: .space 256
"""

#: Fig. 2: untaintedoutput |= bit if (bit & taintedinput).
FIG2_PROGRAM = """
start:
    movi r1, src
    ldb r2, [r1]
    movi r3, 0
    movi r4, 1
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
park:
    movi r1, 1000000
    movi r0, SYS_SLEEP
    syscall
    hlt
src: .byte 0xa5
dst: .byte 0
"""

#: Policy name -> configuration, for the three-way comparison.
POLICIES: Dict[str, TaintPolicy] = {
    "direct-only": TaintPolicy(process_tags_on_access=False),
    "address-deps": TaintPolicy(track_address_deps=True, process_tags_on_access=False),
    "all-indirect": TaintPolicy(
        track_address_deps=True, track_control_deps=True, process_tags_on_access=False
    ),
}


@dataclass
class IndirectFlowResult:
    """One (program, policy) cell of the E11 table."""

    figure: str
    policy: str
    output_tainted: bool        # did the true flow survive?
    output_value_correct: bool  # did the program compute the right answer?
    tainted_bytes: int          # total shadow footprint (overtaint metric)


def _run_figure(
    figure: str, source: str, seed_label: str, seed_len: int,
    out_label: str, out_len: int, policy: TaintPolicy,
) -> IndirectFlowResult:
    machine = Machine(MachineConfig())
    tracker = TaintTracker(policy=policy)
    machine.plugins.register(tracker)
    prog = assemble(program(source), base=layout.IMAGE_BASE)
    machine.kernel.register_image("fig.exe", prog)
    proc = machine.kernel.spawn("fig.exe")
    tracker.taint_range(
        proc.aspace.translate_range(prog.label(seed_label), seed_len, AccessKind.READ),
        SEED,
    )
    machine.run(600_000)

    out_paddrs = proc.aspace.translate_range(
        prog.label(out_label), out_len, AccessKind.READ
    )
    tainted = any(SEED in tracker.prov_at(p) for p in out_paddrs)
    out_bytes = bytes(machine.memory.read_byte(p) for p in out_paddrs)
    src_paddrs = proc.aspace.translate_range(
        prog.label(seed_label), seed_len, AccessKind.READ
    )
    src_bytes = bytes(machine.memory.read_byte(p) for p in src_paddrs)
    return IndirectFlowResult(
        figure=figure,
        policy=next(k for k, v in POLICIES.items() if v is policy),
        output_tainted=tainted,
        output_value_correct=out_bytes == src_bytes[:out_len],
        tainted_bytes=tracker.shadow.tainted_bytes,
    )


def indirect_flow_experiment() -> List[IndirectFlowResult]:
    """Run Figs. 1-2 under all three policies (six cells)."""
    results = []
    for policy in POLICIES.values():
        results.append(
            _run_figure("fig1-address-dep", FIG1_PROGRAM, "str1", 8, "str2", 8, policy)
        )
        results.append(
            _run_figure("fig2-control-dep", FIG2_PROGRAM, "src", 1, "dst", 1, policy)
        )
    return results


def render_indirect_flow_table(results: List[IndirectFlowResult]) -> str:
    """ASCII table of the E11 cells."""
    lines = [
        "E11: indirect-flow handling (Figs. 1-2)",
        f"{'figure':<20} {'policy':<14} {'output tainted':<15} "
        f"{'copy correct':<13} {'tainted bytes':<13}",
    ]
    for r in results:
        lines.append(
            f"{r.figure:<20} {r.policy:<14} {str(r.output_tainted):<15} "
            f"{str(r.output_value_correct):<13} {r.tainted_bytes:<13}"
        )
    return "\n".join(lines)

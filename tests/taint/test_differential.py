"""The differential test harness: reference semantics vs the fast path.

The fast path (interned provenance, page-organised shadow memory,
all-clean exits -- :mod:`repro.taint.tracker`) must be *bit
identical* to the kept pre-optimisation implementation
(:mod:`repro.taint.reference`).  This harness enforces that along every
channel taint can move through:

* **shadow operations** -- random set/clear/range/scatter sequences
  against both shadow stores, comparing flat snapshots and probes;
* **instruction streams** -- hypothesis-generated guest programs run on
  ONE machine carrying both trackers (the reference needs the effect
  stream, so both observe the identical stream), comparing
  shadow memory, register banks, and tainted-load observations;
* **kernel copies and external writes** -- random ``phys_copy`` /
  ``phys_write`` / ``taint_range`` sequences, with and without an acting
  process, plus the trackers' channel methods driven directly with
  scattered (multi-run) and empty ranges, clears and frame frees,
  comparing the per-event counters as well;
* **detection verdicts** -- every FAROS attack scenario (and a benign
  corpus sample) analysed by a fast-path ``Faros`` and a reference
  ``Faros`` side by side, asserting the flagged sets never drift;
* **the translate matrix** -- the same randomised guest programs run
  three ways (fast tracker through the translated-tainted tier, fast
  tracker through the instrumented interpreter, reference tracker),
  asserting bit-identical shadow/bank state, retirement-split stats,
  interner hit/miss counters (at the end and at every load
  observation), and tainted-load observations.  Unlike
  the co-attached pair (where the reference forces interpretation for
  both), each matrix leg runs on its own machine so the translated leg
  genuinely executes fused per-block taint closures.
* **bulk shadow ops** -- random sequences of the bulk ops
  (``append_range``, ``copy_range`` with its overlap cases) run on one
  ``ShadowMemory``, on a second driven one byte at a time through
  ``get``/``set`` with its own interner, and on the byte-at-a-time
  reference, compared down to interner hit/miss counters.
* **the program representation matrix** -- translate-matrix programs
  with the scratch buffer seeded as one 32-byte run on top of every
  seed choice, after which the fast shadow's flat pages must agree with
  its own snapshot: the page table is exactly the dirty-page index and
  every page's summary word (cached or recomputed) is the OR of its
  bytes' tag classes.

The quick versions of the randomised suites run in tier-1 (a ~100-case
smoke slice of the translate matrix included); the
``@pytest.mark.slow`` versions push the combined example counts past
1200 (``pytest -m slow tests/taint/test_differential.py``).

Both trackers in a co-attached pair share one ``TagStore``: tag indices
are minted on demand, and a shared store guarantees the same (cr3, path,
flow) always maps to the same ``Tag`` regardless of which tracker asks
first.  Observation comparison keeps only observations carrying taint --
the fast path legitimately skips all-clean instructions, which can never
contribute to a confluence verdict.
"""

from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks import (
    build_atombombing_scenario,
    build_bypassuac_injection_scenario,
    build_code_injection_scenario,
    build_drop_reload_scenario,
    build_process_hollowing_scenario,
    build_reflective_dll_scenario,
    build_reverse_tcp_dns_scenario,
)
from repro.emulator.devices import Packet
from repro.emulator.machine import Machine, MachineConfig
from repro.emulator.record_replay import PacketEvent
from repro.faros import Faros
from repro.isa.cpu import AccessKind
from repro.isa.memory import PAGE_SHIFT
from repro.taint.intern import ProvInterner
from repro.taint.policy import TaintPolicy
from repro.taint.provenance import append_tag
from repro.taint.reference import ReferenceShadowMemory, ReferenceTaintTracker
from repro.taint.shadow import SHADOW_PAGE_SIZE, ShadowMemory, prov_class_mask
from repro.taint.tags import Tag, TagStore, TagType
from repro.taint.tracker import TaintTracker
from repro.workloads.corpus import corpus_samples

from tests.conftest import interner_at_loads, register_asm

TAGS = (
    Tag(TagType.NETFLOW, 0),
    Tag(TagType.NETFLOW, 1),
    Tag(TagType.PROCESS, 0),
    Tag(TagType.FILE, 0),
)

PARK = """
park:
    movi r1, 10000000
    movi r0, SYS_SLEEP
    syscall
    hlt
"""


# ======================================================================
# 1. shadow-operation differential
# ======================================================================

addresses = st.integers(0, 3 * SHADOW_PAGE_SIZE)
small_provs = st.lists(st.sampled_from(TAGS), max_size=3, unique=True).map(tuple)
scatter = st.lists(addresses, min_size=1, max_size=8).map(tuple)

shadow_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), addresses, small_provs),
        st.tuples(st.just("set_range"), addresses, st.integers(0, 64), small_provs),
        st.tuples(st.just("clear_range"), addresses, st.integers(0, 64)),
        st.tuples(st.just("set_bytes"), scatter, small_provs),
        st.tuples(st.just("clear_bytes"), scatter),
    ),
    max_size=30,
)


def apply_shadow_op(shadow, op):
    name, args = op[0], op[1:]
    getattr(shadow, name)(*args)


def warmed_interner():
    """An interner already holding a canonical list for every provenance
    the ops can draw, as the tracker's shared interner does once its
    register banks and channels have run."""
    interner = ProvInterner()
    for n in range(1, 4):
        for prov in permutations(TAGS, n):
            interner.intern(prov)
    return interner


def check_shadow_sequence(ops, interner):
    fast = ShadowMemory(interner)
    ref = ReferenceShadowMemory()
    touched = set()
    for op in ops:
        apply_shadow_op(fast, op)
        apply_shadow_op(ref, op)
        if op[0] in ("set",):
            touched.add(op[1])
        elif op[0] in ("set_range", "clear_range"):
            touched.update(range(op[1], op[1] + op[2]))
        else:
            touched.update(op[1])
    assert fast.snapshot() == ref.snapshot()
    assert fast.tainted_bytes == ref.tainted_bytes
    for paddr in touched:
        assert fast.get(paddr) == ref.get(paddr)
    for paddr in sorted(touched)[:8]:
        window = range(paddr, paddr + 16)
        assert fast.get_bytes(window) == ref.get_bytes(window)
    probe = tuple(sorted(touched))[:16]
    assert fast.get_bytes(probe) == ref.get_bytes(probe)
    # pages_clean must never claim a dirty byte's page is clean.
    for paddr, prov in fast.snapshot().items():
        assert not fast.pages_clean((paddr,))
        # Every list read back is the interner's canonical one, so the
        # tracker's id-keyed union/append memos hit on shadow reads.
        assert interner.intern(prov) is prov


class TestShadowOperationDifferential:
    @given(ops=shadow_ops)
    @settings(max_examples=50, deadline=None)
    def test_quick(self, ops):
        check_shadow_sequence(ops, ProvInterner())

    @given(ops=shadow_ops)
    @settings(max_examples=50, deadline=None)
    def test_quick_interned(self, ops):
        # With the canonical lists already minted, the shadow must hand
        # back the interner's objects, never the op's own tuples.
        check_shadow_sequence(ops, warmed_interner())

    @pytest.mark.slow
    @given(ops=shadow_ops)
    @settings(max_examples=600, deadline=None)
    def test_exhaustive(self, ops):
        check_shadow_sequence(ops, warmed_interner())


# ======================================================================
# 2. instruction-stream differential (one machine, both trackers)
# ======================================================================

SEED_A = Tag(TagType.NETFLOW, 7)
SEED_B = Tag(TagType.FILE, 3)


def attach_pair(machine, policy):
    """One fast and one reference tracker on the same machine.

    The reference has no taint unit, so the machine steps the
    interpreter and both trackers see the identical effect stream; the
    fast tracker still exercises its own per-instruction all-clean
    exit.
    """
    tags = TagStore()
    fast = TaintTracker(policy=policy, tags=tags, interner=ProvInterner())
    ref = ReferenceTaintTracker(policy=policy, tags=tags)
    machine.plugins.register(fast)
    machine.plugins.register(ref)
    return fast, ref


def tainted_observations(log):
    """Comparable projection of the observations that carry any taint.

    *log* holds ``(tick, observation)`` pairs, the tick being
    ``machine.now`` as the listener saw it (the detector stamps flags
    with it, so every tier must show the retirement tick).
    """
    out = []
    for tick, obs in log:
        reads = tuple(prov for _, prov in obs.reads)
        if obs.insn_prov or any(reads):
            out.append((tick, obs.fx.pc, obs.insn_prov, reads))
    return out


def assert_equivalent(fast, ref, fast_obs=None, ref_obs=None):
    assert fast.shadow.snapshot() == ref.shadow.snapshot()
    assert fast.shadow.tainted_bytes == ref.shadow.tainted_bytes
    assert fast.banks.snapshot() == ref.banks.snapshot()
    assert fast.stats.instructions == ref.stats.instructions
    assert (
        fast.stats.instructions
        == fast.stats.fast_retirements + fast.stats.slow_retirements
    )
    if fast_obs is not None:
        assert tainted_observations(fast_obs) == tainted_observations(ref_obs)


#: Op kinds that touch registers only.
REGISTER_KINDS = ["alu", "alui", "mov", "movi"]


def register_op(draw, kind, rd, rs1, rs2):
    """One ``REGISTER_KINDS`` instruction over the given registers."""
    if kind == "alu":
        op = draw(st.sampled_from(["add", "sub", "mul", "and", "or", "xor", "shl", "shr"]))
        return f"    {op} r{rd}, r{rs1}, r{rs2}"
    if kind == "alui":
        op = draw(st.sampled_from(["addi", "subi", "xori", "andi", "ori"]))
        return f"    {op} r{rd}, r{rs1}, {draw(st.integers(0, 255))}"
    if kind == "mov":
        return f"    mov r{rd}, r{rs1}"
    return f"    movi r{rd}, {draw(st.integers(0, 0xFFFF))}"


@st.composite
def guest_programs(draw, passes=1):
    """A random terminating guest program over tainted inputs.

    Straight-line ALU/move/load/store/stack traffic over r1..r5, with
    occasional forward-only tainted branches (to drive the flags shadow
    and the control-dependency window), reading from two seeded input
    words and a scratch buffer.  With ``passes > 1`` the whole body
    repeats that many times (counted in r7, which no random op
    touches), so fetch memos recorded on one pass are hit on the next.
    An optional leading ``jmp`` over 1-7 bytes misaligns the rest, so
    whichever instruction crosses a 256-byte page boundary straddles
    two guest pages.

    An optional loop opens each pass: its head is reached by a ``jmp``
    and each trip loads the next word of the scratch buffer, so every
    trip runs in the head block's fused closures.  Over a file-tagged
    image the first trip's fetch scans append the process tag, the
    second trip's find it there and record the fetch memos, and the
    later trips hit them, all through the same fetch steps.  Nothing
    before the first pass's second trip stores or re-reads a tagged
    byte, so under the process-tag policy that trip's scans make the
    run's first lookup of the appended list, an interner miss its load
    observation sees (:func:`interner_at_loads`).

    An optional pure self-loop follows the random ops: a drawn
    register-only body counted down in r0 by a drawn trip count, so its
    iterations straddle the 100-instruction slice quantum and it exits
    mid-slice.  r1..r5 are rewritten with constants first, so the bank
    is clean at the loop unless a control window is still pending, and
    over tainted code the taint tier replays the loop's record once per
    iteration it runs in place.
    """
    lines = ["start:"]
    skew = draw(st.integers(0, 7))
    if skew:
        lines += ["    jmp body", f"    .space {skew}", "body:"]
    if passes > 1:
        lines += [f"    movi r7, {passes}", "again:"]
    if draw(st.booleans()):
        lines += ["    movi r6, buf", f"    movi r0, {draw(st.integers(2, 6))}"]
        lines += ["    jmp load_loop", "load_loop:"]
        lines += [f"    ld r{draw(st.integers(1, 5))}, [r6]", "    addi r6, r6, 4"]
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(REGISTER_KINDS))
            rd = draw(st.integers(1, 5))
            rs1 = draw(st.integers(1, 5))
            rs2 = draw(st.integers(1, 5))
            lines.append(register_op(draw, kind, rd, rs1, rs2))
        lines += ["    subi r0, r0, 1", "    cmpi r0, 0", "    jnz load_loop"]
    lines += [
        "inputs:",
        "    movi r6, in_a",
        "    ld r1, [r6]",
        "    movi r6, in_b",
        "    ld r2, [r6]",
    ]
    n_ops = draw(st.integers(1, 14))
    branches = 0
    for _ in range(n_ops):
        kind = draw(
            st.sampled_from(
                ["alu", "alui", "mov", "movi", "ld", "st", "ldb", "stb", "stack", "branch"]
            )
        )
        rd = draw(st.integers(1, 5))
        rs1 = draw(st.integers(1, 5))
        rs2 = draw(st.integers(1, 5))
        if kind in REGISTER_KINDS:
            lines.append(register_op(draw, kind, rd, rs1, rs2))
        elif kind == "ld":
            lines.append("    movi r6, buf")
            lines.append(f"    ld r{rd}, [r6+{4 * draw(st.integers(0, 7))}]")
        elif kind == "ldb":
            lines.append("    movi r6, buf")
            lines.append(f"    ldb r{rd}, [r6+{draw(st.integers(0, 31))}]")
        elif kind == "st":
            lines.append("    movi r6, buf")
            lines.append(f"    st [r6+{4 * draw(st.integers(0, 7))}], r{rs1}")
        elif kind == "stb":
            lines.append("    movi r6, buf")
            lines.append(f"    stb [r6+{draw(st.integers(0, 31))}], r{rs1}")
        elif kind == "stack":
            lines.append(f"    push r{rs1}")
            lines.append(f"    pop r{rd}")
        else:  # forward-only branch on possibly-tainted data
            label = f"fwd{branches}"
            branches += 1
            jump = draw(st.sampled_from(["jz", "jnz"]))
            lines.append(f"    cmpi r{rs1}, {draw(st.integers(0, 3))}")
            lines.append(f"    {jump} {label}")
            lines.append(f"    movi r{rd}, {draw(st.integers(0, 99))}")
            lines.append(f"{label}:")
    if draw(st.booleans()):
        lines += [f"    movi r{r}, {draw(st.integers(0, 99))}" for r in range(1, 6)]
        lines += [f"    movi r0, {draw(st.integers(1, 40))}", "self_loop:"]
        for _ in range(draw(st.integers(1, 5))):
            kind = draw(st.sampled_from(REGISTER_KINDS))
            rd = draw(st.integers(1, 5))
            rs1 = draw(st.integers(1, 5))
            rs2 = draw(st.integers(1, 5))
            lines.append(register_op(draw, kind, rd, rs1, rs2))
        lines += ["    subi r0, r0, 1", "    cmpi r0, 0", "    jnz self_loop"]
    lines.append("    movi r6, out")
    for i in range(5):
        lines.append(f"    st [r6+{4 * i}], r{i + 1}")
    if passes > 1:
        lines += ["    subi r7, r7, 1", "    cmpi r7, 0", "    jnz again"]
    lines.append("    jmp park")
    if draw(st.booleans()):
        # Data on its own 4 KiB shadow page: seeded taint leaves the
        # code's fetch pages clean, so the translated leg of the matrix
        # runs the fused per-block taint closures.  Unpadded programs
        # keep the data on the code's shadow page and cover fused
        # blocks whose fetch shadow page is dirty instead.
        lines.append("pad_data: .space 8192")
    lines.append("in_a: .word 0x1234")
    lines.append("in_b: .word 0xbeef")
    lines.append("buf: .space 32")
    lines.append("out: .space 20")
    return "\n".join(lines)


policies = st.builds(
    TaintPolicy,
    track_address_deps=st.booleans(),
    track_control_deps=st.booleans(),
    process_tags_on_access=st.booleans(),
)

#: ``"code"`` file-tags the program's whole image, as FAROS does at
#: spawn, so every instruction fetches tainted bytes; ``"code_split"``
#: then also taints an 8-byte run from 3 bytes into the ``movi`` at
#: ``inputs``, so it and the load after it hold two codes each and
#: their fetch steps take the per-byte scan, the rest the one-code slice;
#: ``"buf32"`` seeds the whole scratch buffer as one run, which
#: programs that store mixed unions into it then break up.
seed_choices = st.sampled_from(
    ["a", "b", "ab", "buf", "buf32", "code", "code_split", "none"]
)

SEED_IMAGE = Tag(TagType.FILE, 1)


def seed_program(trackers, proc, prog, seeds, extra_seeds=()):
    """Apply one ``seed_choices`` draw, plus ``(label, n, tag)`` extras,
    to every tracker in *trackers*."""

    def seed(vaddr, n, tag):
        paddrs = proc.aspace.translate_range(vaddr, n, AccessKind.READ)
        for tracker in trackers:
            tracker.taint_range(paddrs, tag)

    if seeds in ("code", "code_split"):
        seed(prog.base, len(prog.code), SEED_IMAGE)
    if seeds == "code_split":
        seed(prog.label("inputs") + 3, 8, SEED_A)
    if seeds in ("a", "ab"):
        seed(prog.label("in_a"), 4, SEED_A)
    if seeds in ("b", "ab"):
        seed(prog.label("in_b"), 4, SEED_B)
    if seeds == "buf":
        seed(prog.label("buf"), 8, SEED_A)
    if seeds == "buf32":
        seed(prog.label("buf"), 32, SEED_A)
    for label, n, tag in extra_seeds:
        seed(prog.label(label), n, tag)


def run_program_differential(body, policy, seeds):
    machine = Machine(MachineConfig())
    fast, ref = attach_pair(machine, policy)
    fast_obs, ref_obs = [], []
    fast.add_load_listener(lambda m, obs: fast_obs.append((m.now, obs)))
    ref.add_load_listener(lambda m, obs: ref_obs.append((m.now, obs)))
    prog = register_asm(machine, "d.exe", body, PARK)
    proc = machine.kernel.spawn("d.exe")
    seed_program((fast, ref), proc, prog, seeds)
    machine.run(300_000)
    assert_equivalent(fast, ref, fast_obs, ref_obs)


class TestInstructionStreamDifferential:
    @given(body=guest_programs(), policy=policies, seeds=seed_choices)
    @settings(max_examples=30, deadline=None)
    def test_quick(self, body, policy, seeds):
        run_program_differential(body, policy, seeds)

    @pytest.mark.slow
    @given(body=guest_programs(), policy=policies, seeds=seed_choices)
    @settings(max_examples=300, deadline=None)
    def test_exhaustive(self, body, policy, seeds):
        run_program_differential(body, policy, seeds)


# ======================================================================
# 3. kernel-copy and external-write differential
# ======================================================================

#: Physical scratch window for raw copy/write fuzzing -- low reserved
#: memory, untouched by any process the test spawns.
SCRATCH_BASE = 0x2000
SCRATCH_SIZE = 2 * SHADOW_PAGE_SIZE

offsets = st.integers(0, SCRATCH_SIZE - 64)
lengths = st.integers(1, 48)

kernel_ops = st.lists(
    st.one_of(
        st.tuples(st.just("taint"), offsets, lengths, st.sampled_from(TAGS)),
        st.tuples(st.just("copy"), offsets, offsets, lengths, st.booleans()),
        st.tuples(st.just("write"), offsets, lengths),
    ),
    min_size=1,
    max_size=20,
)


def run_kernel_differential(ops, process_tags):
    machine = Machine(MachineConfig())
    policy = TaintPolicy(process_tags_on_access=process_tags)
    fast, ref = attach_pair(machine, policy)
    register_asm(machine, "k.exe", "start: jmp park", PARK)
    proc = machine.kernel.spawn("k.exe")
    for op in ops:
        if op[0] == "taint":
            paddrs = range(SCRATCH_BASE + op[1], SCRATCH_BASE + op[1] + op[2])
            fast.taint_range(paddrs, op[3])
            ref.taint_range(paddrs, op[3])
        elif op[0] == "copy":
            dst = range(SCRATCH_BASE + op[1], SCRATCH_BASE + op[1] + op[3])
            src = range(SCRATCH_BASE + op[2], SCRATCH_BASE + op[2] + op[3])
            machine.phys_copy(tuple(dst), tuple(src), actor=proc if op[4] else None)
        else:
            paddrs = tuple(range(SCRATCH_BASE + op[1], SCRATCH_BASE + op[1] + op[2]))
            machine.phys_write(paddrs, b"\x00" * op[2], source="fuzz")
    assert_equivalent(fast, ref)


class TestKernelPathDifferential:
    @given(ops=kernel_ops, process_tags=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_quick(self, ops, process_tags):
        run_kernel_differential(ops, process_tags)

    @pytest.mark.slow
    @given(ops=kernel_ops, process_tags=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_exhaustive(self, ops, process_tags):
        run_kernel_differential(ops, process_tags)

    def test_recv_pipeline(self):
        """End-to-end kernel path: DMA write, recv copy, guest loads."""
        machine = Machine(MachineConfig())
        fast, ref = attach_pair(machine, TaintPolicy())

        from repro.emulator.plugins import Plugin

        seeder = Plugin()

        def on_rx(m, packet, paddrs):
            fast.taint_range(paddrs, SEED_A)
            ref.taint_range(paddrs, SEED_A)

        seeder.on_packet_receive = on_rx
        machine.plugins.register(seeder)
        register_asm(
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
                movi r3, 8
                movi r0, SYS_RECV
                syscall
                movi r6, buf
                ld r1, [r6]
                movi r6, out
                st [r6], r1
                jmp park
            ip: .asciz "9.9.9.9"
            buf: .space 8
            out: .space 4
            """,
            PARK,
        )
        machine.kernel.spawn("rx.exe")
        machine.schedule(
            2000,
            PacketEvent(
                Packet("9.9.9.9", 4444, machine.devices.nic.ip, 49152, b"EVILEVIL")
            ),
        )
        machine.run(300_000)
        assert_equivalent(fast, ref)
        assert fast.shadow.tainted_bytes > 0  # the pipeline really moved taint


#: Address tuples for the direct channel calls: sorted but possibly
#: gapped, so one event spans several contiguous runs, and possibly
#: empty, which must leave every per-event counter alone.
scattered = st.lists(offsets, max_size=12, unique=True).map(
    lambda xs: tuple(SCRATCH_BASE + x for x in sorted(xs))
)
scratch_frames = st.lists(
    st.integers(SCRATCH_BASE >> PAGE_SHIFT, (SCRATCH_BASE + SCRATCH_SIZE - 1) >> PAGE_SHIFT),
    max_size=4,
).map(tuple)

channel_ops = st.lists(
    st.one_of(
        st.tuples(st.just("taint"), scattered, st.sampled_from(TAGS)),
        st.tuples(st.just("clear"), scattered),
        st.tuples(st.just("write"), scattered),
        st.tuples(st.just("copy"), offsets, offsets, st.integers(0, 48), st.booleans()),
        st.tuples(st.just("free"), scratch_frames),
    ),
    min_size=1,
    max_size=20,
)

#: The acting process of a channel copy; only its cr3 is read.
ACTOR = SimpleNamespace(cr3=0x7000)


def apply_channel_op(tracker, op):
    name = op[0]
    if name == "taint":
        tracker.taint_range(op[1], op[2])
    elif name == "clear":
        tracker.clear_range(op[1])
    elif name == "write":
        tracker.on_phys_write(None, op[1], "fuzz")
    elif name == "copy":
        dst = tuple(range(SCRATCH_BASE + op[1], SCRATCH_BASE + op[1] + op[3]))
        src = tuple(range(SCRATCH_BASE + op[2], SCRATCH_BASE + op[2] + op[3]))
        tracker.on_phys_copy(None, dst, src, ACTOR if op[4] else None)
    else:
        tracker.on_frames_freed(None, op[1])


def run_channel_differential(ops, process_tags):
    policy = TaintPolicy(process_tags_on_access=process_tags)
    tags = TagStore()
    fast = TaintTracker(policy=policy, tags=tags, interner=ProvInterner())
    ref = ReferenceTaintTracker(policy=policy, tags=tags)
    for op in ops:
        apply_channel_op(fast, op)
        apply_channel_op(ref, op)
    assert fast.shadow.snapshot() == ref.shadow.snapshot()
    assert fast.shadow.tainted_bytes == ref.shadow.tainted_bytes
    assert fast.stats == ref.stats


class TestChannelEventDifferential:
    @given(ops=channel_ops, process_tags=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_quick(self, ops, process_tags):
        run_channel_differential(ops, process_tags)

    @pytest.mark.slow
    @given(ops=channel_ops, process_tags=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_exhaustive(self, ops, process_tags):
        run_channel_differential(ops, process_tags)


# ======================================================================
# 4. translate matrix: translated-taint vs interpreter vs reference
# ======================================================================


def run_single(body, policy, seeds, tracker, translate, extra_seeds=()):
    """Run *body* under one tracker alone on a fresh machine.

    Alone matters: with no co-attached reference demanding the full
    effect stream, a ``TaintTracker`` on a translating machine really
    dispatches through the translated-tainted tier.
    """
    machine = Machine(MachineConfig(translate=translate))
    machine.plugins.register(tracker)
    obs_log = []
    tracker.add_load_listener(lambda m, obs: obs_log.append((m.now, obs)))
    prog = register_asm(machine, "m.exe", body, PARK)
    proc = machine.kernel.spawn("m.exe")
    seed_program((tracker,), proc, prog, seeds, extra_seeds)
    machine.run(300_000)
    return machine, obs_log


def run_translate_matrix(body, policy, seeds):
    translated = TaintTracker(policy=policy, interner=ProvInterner())
    interpreted = TaintTracker(policy=policy, interner=ProvInterner())
    reference = ReferenceTaintTracker(policy=policy)
    lookups_t = interner_at_loads(translated)
    lookups_i = interner_at_loads(interpreted)
    machine_t, obs_t = run_single(body, policy, seeds, translated, translate=True)
    machine_i, obs_i = run_single(body, policy, seeds, interpreted, translate=False)
    machine_r, obs_r = run_single(body, policy, seeds, reference, translate=False)

    assert machine_t.now == machine_i.now == machine_r.now

    # Translated vs interpreted fast path: bit-identical everything,
    # down to the interner call sequence (hit/miss deltas) and the
    # fast/slow retirement split.
    assert translated.shadow.snapshot() == interpreted.shadow.snapshot()
    assert translated.shadow.tainted_bytes == interpreted.shadow.tainted_bytes
    assert translated.banks.snapshot() == interpreted.banks.snapshot()
    assert translated.stats.instructions == interpreted.stats.instructions
    assert translated.stats.fast_retirements == interpreted.stats.fast_retirements
    assert translated.stats.slow_retirements == interpreted.stats.slow_retirements
    assert (
        translated.stats.process_tag_appends == interpreted.stats.process_tag_appends
    )
    assert (translated.interner.hits, translated.interner.misses) == (
        interpreted.interner.hits,
        interpreted.interner.misses,
    ), "interner call sequences diverged between translated and interpreted"
    assert lookups_t == lookups_i
    assert tainted_observations(obs_t) == tainted_observations(obs_i)

    # Both fast legs vs the reference semantics.
    assert translated.shadow.snapshot() == reference.shadow.snapshot()
    assert translated.banks.snapshot() == reference.banks.snapshot()
    assert translated.stats.instructions == reference.stats.instructions
    assert tainted_observations(obs_t) == tainted_observations(obs_r)


class TestTranslateMatrixDifferential:
    @given(body=guest_programs(), policy=policies, seeds=seed_choices)
    @settings(max_examples=35, deadline=None)
    def test_quick(self, body, policy, seeds):
        run_translate_matrix(body, policy, seeds)

    @pytest.mark.slow
    @given(body=guest_programs(), policy=policies, seeds=seed_choices)
    @settings(max_examples=400, deadline=None)
    def test_exhaustive(self, body, policy, seeds):
        run_translate_matrix(body, policy, seeds)


class TestFileTaggedLoopMatrix:
    """File-tagged programs run three times over.  Under the
    process-tag policy the first pass appends the tag to the fetched
    bytes, the second scans without changing them (recording each
    fetch memo), and the third hits the memos, keyed on each
    instruction's own shadow codes -- stores that unpadded programs
    make beside the code, on its shadow page, leave them standing.
    Every pass must stay bit-identical to the interpreter, interner
    counters included."""

    @given(body=guest_programs(passes=3), policy=policies)
    @settings(max_examples=25, deadline=None)
    def test_quick(self, body, policy):
        run_translate_matrix(body, policy, "code")

    @pytest.mark.slow
    @given(body=guest_programs(passes=3), policy=policies)
    @settings(max_examples=150, deadline=None)
    def test_exhaustive(self, body, policy):
        run_translate_matrix(body, policy, "code")


# ======================================================================
# 5. detection-verdict differential over the FAROS attack corpus
# ======================================================================

ATTACKS = {
    "atombombing": build_atombombing_scenario,
    "bypassuac_injection": build_bypassuac_injection_scenario,
    "code_injection": build_code_injection_scenario,
    "drop_reload": build_drop_reload_scenario,
    "process_hollowing": build_process_hollowing_scenario,
    "reflective_dll": build_reflective_dll_scenario,
    "reverse_tcp_dns": build_reverse_tcp_dns_scenario,
}


def flag_keys(faros):
    return {
        (f.pc, f.rule, f.executing_pid, f.executing_process, f.read_vaddr, f.insn_text)
        for f in faros.detector.flagged
    }


class TestDetectionVerdictDifferential:
    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_attack_verdicts_never_drift(self, name):
        attack = ATTACKS[name]()
        fast = Faros()
        ref = Faros(tracker_cls=ReferenceTaintTracker)
        attack.scenario.run(plugins=[fast, ref])
        assert ref.attack_detected, f"{name}: reference no longer detects the attack"
        assert fast.attack_detected == ref.attack_detected
        assert flag_keys(fast) == flag_keys(ref)
        assert (
            fast.tracker.stats.instructions == ref.tracker.stats.instructions
        )

    def test_benign_sample_clears_identically(self):
        spec = next(s for s in corpus_samples() if s.benign)
        fast = Faros()
        ref = Faros(tracker_cls=ReferenceTaintTracker)
        spec.scenario().run(plugins=[fast, ref])
        assert not ref.attack_detected
        assert not fast.attack_detected
        assert flag_keys(fast) == flag_keys(ref) == set()


# ======================================================================
# 6. bulk shadow ops: bulk vs byte-at-a-time vs reference
# ======================================================================

#: Addresses clustered around the shadow page boundaries, so random ops
#: overwrite each other's bytes and straddle pages.
clustered = st.builds(
    lambda page, off: page * SHADOW_PAGE_SIZE + off, st.integers(1, 3), st.integers(-96, 96)
)
bulk_addresses = st.one_of(addresses, clustered)
bulk_scatter = st.lists(bulk_addresses, min_size=1, max_size=8).map(tuple)

#: Long uniform runs interleaved with scattered writes of distinct
#: provenance, so bulk ops meet clean, uniform and mixed runs, and
#: copies in every overlap direction.
bulk_lengths = st.integers(1, 200)
bulk_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set_range"), bulk_addresses, bulk_lengths, small_provs),
        st.tuples(
            st.just("append_range"), bulk_addresses, bulk_lengths, st.sampled_from(TAGS)
        ),
        st.tuples(st.just("set"), bulk_addresses, small_provs),
        st.tuples(st.just("clear_range"), bulk_addresses, bulk_lengths),
        st.tuples(st.just("set_bytes"), bulk_scatter, small_provs),
        st.tuples(
            st.just("copy_range"),
            bulk_addresses,
            bulk_addresses,
            st.integers(1, 96),
            st.sampled_from(TAGS + (None,)),
        ),
    ),
    min_size=2,
    max_size=24,
)


def apply_per_byte(shadow, op, append):
    """One op as the per-byte ``get``/``set`` loop the bulk ops replace,
    computing appends with *append*."""
    name, args = op[0], op[1:]
    if name == "set_range":
        start, length, prov = args
        for paddr in range(start, start + length):
            shadow.set(paddr, prov)
    elif name == "clear_range":
        start, length = args
        for paddr in range(start, start + length):
            shadow.set(paddr, ())
    elif name == "append_range":
        start, length, tag = args
        for paddr in range(start, start + length):
            shadow.set(paddr, append(shadow.get(paddr), tag))
    elif name == "copy_range":
        dst, src, length, tag = args
        for i in range(length):
            prov = shadow.get(src + i)
            if prov and tag is not None:
                prov = append(prov, tag)
            shadow.set(dst + i, prov)
    elif name == "set_bytes":
        for paddr in args[0]:
            shadow.set(paddr, args[1])
    else:
        shadow.set(*args)


def check_bulk_sequence(ops):
    bulk_interner, per_byte_interner = ProvInterner(), ProvInterner()
    bulk = ShadowMemory(bulk_interner)
    per_byte = ShadowMemory(per_byte_interner)
    ref = ReferenceShadowMemory()
    for op in ops:
        getattr(bulk, op[0])(*op[1:])
        apply_per_byte(per_byte, op, per_byte_interner.append)
        apply_per_byte(ref, op, append_tag)
    expected = ref.snapshot()
    pages = sorted({paddr // SHADOW_PAGE_SIZE for paddr in expected})
    for shadow in (bulk, per_byte):
        assert shadow.snapshot() == expected
        assert shadow.tainted_bytes == ref.tainted_bytes
        # No page is ever empty: the page table is the dirty-page index.
        assert shadow.dirty_pages() == pages
    # The bulk paths must score the exact hits/misses of the per-byte
    # loops they replace.
    assert (bulk_interner.hits, bulk_interner.misses) == (
        per_byte_interner.hits,
        per_byte_interner.misses,
    )
    for paddr in sorted(expected)[:8]:
        assert bulk.get(paddr) == ref.get(paddr)
        assert not bulk.pages_clean((paddr,))
        assert not bulk.bytes_clean((paddr,))


N0, N1, P0, F0 = TAGS

#: Fixed cases for every bulk-op arm: a uniform append and copy, mixed
#: runs with repeated codes and clean bytes, overwrites, and clears that
#: must leave no page behind.
BULK_EXAMPLES = [
    [("set_range", 0, 64, (N0,)), ("append_range", 0, 64, P0), ("clear_range", 0, 64)],
    [
        ("set_range", 0, 8, (N0,)),
        ("set", 9, (N1,)),
        ("set", 11, (N1,)),
        ("append_range", 0, 16, P0),
        ("clear_range", 0, 8),
        ("clear_range", 8, 8),
    ],
    [("set_range", 4090, 12, (N0,)), ("copy_range", 8000, 4090, 12, P0), ("clear_range", 8000, 12)],
    [
        ("set_range", 0, 6, (N0,)),
        ("set_range", 6, 6, (F0,)),
        ("set", 2, (N1,)),
        ("copy_range", 100, 0, 16, P0),
        ("copy_range", 4, 0, 12, None),
        ("copy_range", 0, 4, 12, None),
        ("copy_range", 100, 0, 16, None),
        ("set_range", 100, 3, (N1,)),
        ("clear_range", 0, 200),
    ],
]


class TestBulkShadowOpDifferential:
    @given(ops=bulk_ops)
    @settings(max_examples=40, deadline=None)
    @example(ops=BULK_EXAMPLES[0])
    @example(ops=BULK_EXAMPLES[1])
    @example(ops=BULK_EXAMPLES[2])
    @example(ops=BULK_EXAMPLES[3])
    def test_quick(self, ops):
        check_bulk_sequence(ops)

    @pytest.mark.slow
    @given(ops=bulk_ops)
    @settings(max_examples=400, deadline=None)
    def test_exhaustive(self, ops):
        check_bulk_sequence(ops)


# ======================================================================
# 7. program representation matrix: the flat page form after real runs
# ======================================================================


def check_page_form(shadow, interner, snapshot):
    """The flat pages agree with their own *snapshot*: the page table is
    exactly the dirty-page index, and every page's summary word (cached
    or recomputed) is the OR of its bytes' tag classes."""
    masks = {}
    for paddr, prov in snapshot.items():
        number = paddr // SHADOW_PAGE_SIZE
        masks[number] = masks.get(number, 0) | prov_class_mask(prov)
        assert interner.intern(prov) is prov
    assert shadow.dirty_pages() == sorted(masks)
    assert shadow.dirty_page_count == len(masks)
    assert shadow.tainted_bytes == len(snapshot)
    for number, mask in masks.items():
        assert shadow.page_summary(number) == mask
        # The cached re-probe must agree with the first answer.
        assert shadow.page_summary(number) == mask


def run_representation_matrix(body, policy, seeds):
    """The translate matrix's translated and reference legs again, with
    ``buf`` seeded as one 32-byte run on top of every seed choice.

    Programs that store mixed unions into the buffer break the run up,
    so its page holds uniform, mixed and cleared stretches when the
    page form is checked.
    """
    extra = (("buf", 32, SEED_A),)
    tracker = TaintTracker(policy=policy, interner=ProvInterner())
    reference = ReferenceTaintTracker(policy=policy)
    machine_t, obs_t = run_single(body, policy, seeds, tracker, True, extra)
    machine_r, obs_r = run_single(body, policy, seeds, reference, False, extra)

    assert machine_t.now == machine_r.now
    snapshot = tracker.shadow.snapshot()
    assert snapshot == reference.shadow.snapshot()
    assert tracker.shadow.tainted_bytes == reference.shadow.tainted_bytes
    assert tracker.banks.snapshot() == reference.banks.snapshot()
    assert tracker.stats.instructions == reference.stats.instructions
    assert tainted_observations(obs_t) == tainted_observations(obs_r)
    check_page_form(tracker.shadow, tracker.interner, snapshot)


class TestProgramRepresentationMatrix:
    @given(body=guest_programs(), policy=policies, seeds=seed_choices)
    @settings(max_examples=15, deadline=None)
    def test_quick(self, body, policy, seeds):
        run_representation_matrix(body, policy, seeds)

    @pytest.mark.slow
    @given(body=guest_programs(), policy=policies, seeds=seed_choices)
    @settings(max_examples=150, deadline=None)
    def test_exhaustive(self, body, policy, seeds):
        run_representation_matrix(body, policy, seeds)

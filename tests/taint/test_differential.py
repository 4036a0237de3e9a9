"""The differential test harness: reference semantics vs the fast path.

The fast path (interned provenance, page-organised shadow memory,
instrumentation gating -- :mod:`repro.taint.tracker`) must be *bit
identical* to the kept pre-optimisation implementation
(:mod:`repro.taint.reference`).  This harness enforces that along every
channel taint can move through:

* **shadow operations** -- random set/clear/range/scatter sequences
  against both shadow stores, comparing flat snapshots and probes;
* **instruction streams** -- hypothesis-generated guest programs run on
  ONE machine carrying both trackers (the reference always demands
  instrumentation, so both observe the identical stream), comparing
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
  interner hit/miss counters, and tainted-load observations.  Unlike
  the co-attached pair (where the reference forces interpretation for
  both), each matrix leg runs on its own machine so the translated leg
  genuinely executes fused per-block taint closures.
* **the representation matrix** -- the same random op sequences and
  guest programs through the three shadow configurations (``array``:
  promote-at-one-byte, ``dict``: never promote, ``mixed``: forced
  promote/demote thresholds so pages cross the representation boundary
  mid-run), compared down to interner counters, retirement splits and
  tainted-load observations, with ``taint/reference.py`` as the
  byte-at-a-time oracle.

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

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
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
from repro.taint.shadow import SHADOW_PAGE_SIZE, ShadowMemory
from repro.taint.tags import Tag, TagStore, TagType
from repro.taint.tracker import TaintTracker
from repro.workloads.corpus import corpus_samples

from tests.conftest import register_asm

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
        assert fast.get_range(paddr, 16) == ref.get_range(paddr, 16)
    probe = tuple(sorted(touched))[:16]
    assert fast.get_bytes(probe) == ref.get_bytes(probe)
    # pages_clean must never claim a dirty byte's page is clean.
    for paddr, prov in fast.snapshot().items():
        assert not fast.pages_clean((paddr,))


class TestShadowOperationDifferential:
    @given(ops=shadow_ops)
    @settings(max_examples=50, deadline=None)
    def test_quick(self, ops):
        check_shadow_sequence(ops, interner=None)

    @given(ops=shadow_ops)
    @settings(max_examples=50, deadline=None)
    def test_quick_interned(self, ops):
        check_shadow_sequence(ops, interner=ProvInterner())

    @pytest.mark.slow
    @given(ops=shadow_ops)
    @settings(max_examples=600, deadline=None)
    def test_exhaustive(self, ops):
        check_shadow_sequence(ops, interner=ProvInterner())


# ======================================================================
# 2. instruction-stream differential (one machine, both trackers)
# ======================================================================

SEED_A = Tag(TagType.NETFLOW, 7)
SEED_B = Tag(TagType.FILE, 3)


def attach_pair(machine, policy):
    """One fast and one reference tracker on the same machine.

    The reference's ``wants_insn_effects`` is always True, so the
    machine instruments every instruction and both trackers see the
    identical stream; the fast tracker still exercises its own
    per-instruction all-clean exit.
    """
    tags = TagStore()
    fast = TaintTracker(policy=policy, tags=tags, interner=ProvInterner())
    ref = ReferenceTaintTracker(policy=policy, tags=tags)
    machine.plugins.register(fast)
    machine.plugins.register(ref)
    return fast, ref


def tainted_observations(log):
    """Comparable projection of the observations that carry any taint."""
    out = []
    for obs in log:
        reads = tuple(prov for _, prov in obs.reads)
        if obs.insn_prov or any(reads):
            out.append((obs.fx.pc, obs.insn_prov, reads))
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


@st.composite
def guest_programs(draw):
    """A random terminating guest program over tainted inputs.

    Straight-line ALU/move/load/store/stack traffic over r1..r5, with
    occasional forward-only tainted branches (to drive the flags shadow
    and the control-dependency window), reading from two seeded input
    words and a scratch buffer.
    """
    lines = [
        "start:",
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
        if kind == "alu":
            op = draw(st.sampled_from(["add", "sub", "mul", "and", "or", "xor", "shl", "shr"]))
            lines.append(f"    {op} r{rd}, r{rs1}, r{rs2}")
        elif kind == "alui":
            op = draw(st.sampled_from(["addi", "subi", "xori", "andi", "ori"]))
            lines.append(f"    {op} r{rd}, r{rs1}, {draw(st.integers(0, 255))}")
        elif kind == "mov":
            lines.append(f"    mov r{rd}, r{rs1}")
        elif kind == "movi":
            lines.append(f"    movi r{rd}, {draw(st.integers(0, 0xFFFF))}")
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
    lines.append("    movi r6, out")
    for i in range(5):
        lines.append(f"    st [r6+{4 * i}], r{i + 1}")
    lines.append("    jmp park")
    if draw(st.booleans()):
        # Data on its own 4 KiB shadow page: seeded taint leaves the
        # code's fetch pages clean, so the translated leg of the matrix
        # runs the fused per-block taint closures.  Unpadded programs
        # keep the data on the code's shadow page and cover the
        # dirty-fetch interpreter window instead.
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

seed_choices = st.sampled_from(["a", "b", "ab", "buf", "none"])


def run_program_differential(body, policy, seeds):
    machine = Machine(MachineConfig())
    fast, ref = attach_pair(machine, policy)
    fast_obs, ref_obs = [], []
    fast.add_load_listener(lambda m, obs: fast_obs.append(obs))
    ref.add_load_listener(lambda m, obs: ref_obs.append(obs))
    prog = register_asm(machine, "d.exe", body, PARK)
    proc = machine.kernel.spawn("d.exe")

    def seed(label, n, tag):
        paddrs = proc.aspace.translate_range(prog.label(label), n, AccessKind.READ)
        fast.taint_range(paddrs, tag)
        ref.taint_range(paddrs, tag)

    if "a" in seeds:
        seed("in_a", 4, SEED_A)
    if "b" in seeds:
        seed("in_b", 4, SEED_B)
    if seeds == "buf":
        seed("buf", 8, SEED_A)
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
    tracker.add_load_listener(lambda m, obs: obs_log.append(obs))
    prog = register_asm(machine, "m.exe", body, PARK)
    proc = machine.kernel.spawn("m.exe")

    def seed(label, n, tag):
        paddrs = proc.aspace.translate_range(prog.label(label), n, AccessKind.READ)
        tracker.taint_range(paddrs, tag)

    if "a" in seeds:
        seed("in_a", 4, SEED_A)
    if "b" in seeds:
        seed("in_b", 4, SEED_B)
    if seeds == "buf":
        seed("buf", 8, SEED_A)
    for label, n, tag in extra_seeds:
        seed(label, n, tag)
    machine.run(300_000)
    return machine, obs_log


def run_translate_matrix(body, policy, seeds):
    translated = TaintTracker(policy=policy, interner=ProvInterner())
    interpreted = TaintTracker(policy=policy, interner=ProvInterner())
    reference = ReferenceTaintTracker(policy=policy)
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
# 6. shadow-representation matrix: array vs dict vs forced-mixed
# ======================================================================

SHADOW_MODES = ("array", "dict", "mixed")

#: Op mix biased toward long uniform runs (promotion fodder in the
#: array/mixed configurations) interleaved with scattered writes of
#: distinct provenance (code-set growth past the forced-mixed cap, so
#: pages demote again), walking pages across the representation
#: boundary mid-sequence.
rep_lengths = st.integers(1, 200)
rep_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set_range"), addresses, rep_lengths, small_provs),
        st.tuples(st.just("append_range"), addresses, rep_lengths, st.sampled_from(TAGS)),
        st.tuples(st.just("set"), addresses, small_provs),
        st.tuples(st.just("clear_range"), addresses, rep_lengths),
        st.tuples(st.just("set_bytes"), scatter, small_provs),
        st.tuples(
            st.just("copy_range"),
            addresses,
            addresses,
            st.integers(1, 96),
            st.sampled_from(TAGS + (None,)),
        ),
    ),
    min_size=2,
    max_size=24,
)


def apply_rep_op_reference(ref, op):
    """Byte-at-a-time oracle semantics for the bulk-only shadow ops."""
    name, args = op[0], op[1:]
    if name == "append_range":
        start, length, tag = args
        for paddr in range(start, start + length):
            ref.set(paddr, append_tag(ref.get(paddr), tag))
    elif name == "copy_range":
        dst, src, length, tag = args
        for i in range(length):
            prov = ref.get(src + i)
            if prov and tag is not None:
                prov = append_tag(prov, tag)
            ref.set(dst + i, prov)
    else:
        getattr(ref, name)(*args)


def check_representation_sequence(ops):
    interners = {mode: ProvInterner() for mode in SHADOW_MODES}
    shadows = {mode: ShadowMemory(interners[mode], mode=mode) for mode in SHADOW_MODES}
    ref = ReferenceShadowMemory()
    for op in ops:
        for shadow in shadows.values():
            getattr(shadow, op[0])(*op[1:])
        apply_rep_op_reference(ref, op)
    expected = ref.snapshot()
    for mode, shadow in shadows.items():
        assert shadow.snapshot() == expected, mode
        assert shadow.tainted_bytes == ref.tainted_bytes, mode
    # The bulk paths must score the exact hits/misses of the per-byte
    # loops they replace, no matter which representation ran them.
    base_counts = (interners["array"].hits, interners["array"].misses)
    for mode in ("dict", "mixed"):
        assert (interners[mode].hits, interners[mode].misses) == base_counts, mode
    for paddr in sorted(expected)[:8]:
        for shadow in shadows.values():
            assert shadow.get(paddr) == ref.get(paddr)
            assert not shadow.pages_clean((paddr,))
            assert not shadow.range_clean(paddr, 1)


class TestShadowRepresentationMatrix:
    @given(ops=rep_ops)
    @settings(max_examples=40, deadline=None)
    def test_quick(self, ops):
        check_representation_sequence(ops)

    @pytest.mark.slow
    @given(ops=rep_ops)
    @settings(max_examples=400, deadline=None)
    def test_exhaustive(self, ops):
        check_representation_sequence(ops)

    def test_forced_mixed_promotes_then_demotes_preserving_provenance(self):
        shadow = ShadowMemory(ProvInterner(), mode="mixed")
        prov = (TAGS[0],)
        for i in range(8):
            shadow.set(i, prov)  # dict page grows to the forced cap...
        assert shadow.promotions >= 1  # ...and promotes to the array form
        assert shadow.array_page_count == 1
        expected = shadow.snapshot()
        for i, tag in enumerate(TAGS[:3]):  # 3 distinct codes > cap of 2
            shadow.set(100 + i, (tag,))
            expected[100 + i] = (tag,)
        assert shadow.demotions >= 1
        assert shadow.dict_page_count == 1
        assert shadow.array_page_count == 0
        assert shadow.snapshot() == expected


def run_representation_matrix(body, policy, seeds):
    """The translate matrix again, across shadow representations.

    Every leg runs the translated-tainted tier; only the shadow
    configuration differs.  Seeding ``buf`` with one long uniform run
    makes the array/mixed legs promote that page up front, and programs
    that store mixed unions into it push forced-mixed past its code cap
    and demote it again mid-run.
    """
    extra = (("buf", 32, SEED_A),)
    legs = {}
    for mode in SHADOW_MODES:
        tracker = TaintTracker(
            policy=policy, interner=ProvInterner(), shadow_mode=mode
        )
        machine, obs = run_single(body, policy, seeds, tracker, True, extra)
        legs[mode] = (machine, tracker, obs)
    reference = ReferenceTaintTracker(policy=policy)
    machine_r, obs_r = run_single(body, policy, seeds, reference, False, extra)

    machine_b, base, obs_b = legs[SHADOW_MODES[0]]
    for mode in SHADOW_MODES[1:]:
        machine_m, tracker, obs_m = legs[mode]
        assert machine_m.now == machine_b.now
        assert tracker.shadow.snapshot() == base.shadow.snapshot(), mode
        assert tracker.shadow.tainted_bytes == base.shadow.tainted_bytes, mode
        assert tracker.banks.snapshot() == base.banks.snapshot(), mode
        assert tracker.stats.instructions == base.stats.instructions, mode
        assert tracker.stats.fast_retirements == base.stats.fast_retirements, mode
        assert tracker.stats.slow_retirements == base.stats.slow_retirements, mode
        assert (
            tracker.stats.process_tag_appends == base.stats.process_tag_appends
        ), mode
        assert (tracker.interner.hits, tracker.interner.misses) == (
            base.interner.hits,
            base.interner.misses,
        ), f"interner call sequences diverged in shadow mode {mode}"
        assert tainted_observations(obs_m) == tainted_observations(obs_b), mode

    assert machine_b.now == machine_r.now
    assert base.shadow.snapshot() == reference.shadow.snapshot()
    assert base.banks.snapshot() == reference.banks.snapshot()
    assert base.stats.instructions == reference.stats.instructions
    assert tainted_observations(obs_b) == tainted_observations(obs_r)


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


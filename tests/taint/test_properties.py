"""Property-based tests of whole-system taint invariants.

Hypothesis generates random straight-line guest programs; the invariants
are the ones FAROS' correctness rests on:

* **no spontaneous taint**: provenance in any output is a subset of the
  provenance seeded on the inputs;
* **conservation through copies**: a value copied through arbitrary
  register/memory/stack hops keeps its provenance;
* **shadow hygiene**: the shadow map never stores empty lists, and
  clearing/untainted overwrites really remove entries;
* **provenance algebra**: union is associative, idempotent, and
  commutative-as-sets below the length cap; append preserves chronology
  -- checked for the plain Table I functions *and* the memoised
  interner (:mod:`repro.taint.intern`), which must agree exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.machine import Machine, MachineConfig
from repro.guestos import layout
from repro.guestos.asmlib import program
from repro.isa.assembler import assemble
from repro.isa.cpu import AccessKind
from repro.taint.intern import ProvInterner
from repro.taint.policy import TaintPolicy
from repro.taint.provenance import MAX_PROV_LEN, append_tag, prov_union
from repro.taint.tags import Tag, TagType
from repro.taint.tracker import TaintTracker

SEED_A = Tag(TagType.NETFLOW, 1)
SEED_B = Tag(TagType.FILE, 2)

PARK = "park:\n    movi r1, 1000000\n    movi r0, SYS_SLEEP\n    syscall\n    hlt"

ALU_OPS = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr"]


def run_program(body):
    machine = Machine(MachineConfig())
    tracker = TaintTracker(policy=TaintPolicy(process_tags_on_access=False))
    machine.plugins.register(tracker)
    prog = assemble(program(body, PARK), base=layout.IMAGE_BASE)
    machine.kernel.register_image("p.exe", prog)
    proc = machine.kernel.spawn("p.exe")
    return machine, tracker, proc, prog


def seed_label(tracker, proc, prog, label, n, tag):
    paddrs = proc.aspace.translate_range(prog.label(label), n, AccessKind.READ)
    tracker.taint_range(paddrs, tag)
    return paddrs


@st.composite
def alu_programs(draw):
    """A random straight-line program over two tainted inputs.

    Loads input words into r1/r2, applies a random ALU dataflow over
    r1..r5, stores r1..r5 into five output slots.
    """
    n_ops = draw(st.integers(1, 12))
    lines = [
        "start:",
        "    movi r6, in_a",
        "    ld r1, [r6]",
        "    movi r6, in_b",
        "    ld r2, [r6]",
    ]
    for _ in range(n_ops):
        op = draw(st.sampled_from(ALU_OPS + ["movi", "mov"]))
        rd = draw(st.integers(1, 5))
        if op == "movi":
            lines.append(f"    movi r{rd}, {draw(st.integers(0, 0xFFFF))}")
        elif op == "mov":
            rs = draw(st.integers(1, 5))
            lines.append(f"    mov r{rd}, r{rs}")
        else:
            rs1 = draw(st.integers(1, 5))
            rs2 = draw(st.integers(1, 5))
            lines.append(f"    {op} r{rd}, r{rs1}, r{rs2}")
    lines.append("    movi r6, out")
    for i in range(5):
        lines.append(f"    st [r6+{4 * i}], r{i + 1}")
    lines.append("    jmp park")
    lines.append("in_a: .word 0x1234")
    lines.append("in_b: .word 0xbeef")
    lines.append("out: .space 20")
    return "\n".join(lines)


class TestNoSpontaneousTaint:
    @given(body=alu_programs())
    @settings(max_examples=25, deadline=None)
    def test_output_provenance_subset_of_seeds(self, body):
        machine, tracker, proc, prog = run_program(body)
        seed_label(tracker, proc, prog, "in_a", 4, SEED_A)
        seed_label(tracker, proc, prog, "in_b", 4, SEED_B)
        machine.run(300_000)
        out_paddrs = proc.aspace.translate_range(prog.label("out"), 20, AccessKind.READ)
        for paddr in out_paddrs:
            assert set(tracker.prov_at(paddr)) <= {SEED_A, SEED_B}

    @given(body=alu_programs())
    @settings(max_examples=10, deadline=None)
    def test_unseeded_run_produces_no_taint_at_outputs(self, body):
        machine, tracker, proc, prog = run_program(body)
        machine.run(300_000)
        out_paddrs = proc.aspace.translate_range(prog.label("out"), 20, AccessKind.READ)
        for paddr in out_paddrs:
            assert tracker.prov_at(paddr) == ()


class TestCopyConservation:
    @given(hops=st.integers(1, 6))
    @settings(max_examples=10, deadline=None)
    def test_taint_survives_n_memory_hops(self, hops):
        lines = ["start:", "    movi r6, slot0", "    ld r1, [r6]"]
        for i in range(hops):
            lines.append(f"    movi r6, slot{i + 1}")
            lines.append("    st [r6], r1")
            lines.append("    ld r1, [r6]")
        lines.append("    jmp park")
        for i in range(hops + 1):
            lines.append(f"slot{i}: .word {i}")
        machine, tracker, proc, prog = run_program("\n".join(lines))
        seed_label(tracker, proc, prog, "slot0", 4, SEED_A)
        machine.run(300_000)
        final = proc.aspace.translate_range(
            prog.label(f"slot{hops}"), 4, AccessKind.READ
        )
        for paddr in final:
            assert SEED_A in tracker.prov_at(paddr)

    @given(depth=st.integers(1, 8))
    @settings(max_examples=10, deadline=None)
    def test_taint_survives_stack_round_trips(self, depth):
        lines = ["start:", "    movi r6, src", "    ld r1, [r6]"]
        lines += ["    push r1"] * depth
        lines += ["    pop r1"] * depth
        lines += ["    movi r6, dst", "    st [r6], r1", "    jmp park"]
        lines += ["src: .word 7", "dst: .word 0"]
        machine, tracker, proc, prog = run_program("\n".join(lines))
        seed_label(tracker, proc, prog, "src", 4, SEED_A)
        machine.run(300_000)
        dst = proc.aspace.translate_range(prog.label("dst"), 4, AccessKind.READ)
        assert all(SEED_A in tracker.prov_at(p) for p in dst)


class TestShadowHygiene:
    def test_shadow_never_stores_empty_lists(self):
        machine, tracker, proc, prog = run_program(
            "start:\n    movi r6, a\n    movi r1, 0\n    st [r6], r1\n    jmp park\na: .word 9"
        )
        seed_label(tracker, proc, prog, "a", 4, SEED_A)
        machine.run(300_000)
        for paddr, prov in tracker.shadow.items():
            assert prov != ()

    @given(n=st.integers(1, 16), start=st.integers(0, 1 << 16))
    @settings(max_examples=10, deadline=None)
    def test_clear_is_complete(self, n, start):
        from repro.taint.shadow import ShadowMemory

        shadow = ShadowMemory(ProvInterner())
        shadow.set_range(start, n, (SEED_A,))
        shadow.clear_range(start, n)
        assert shadow.tainted_bytes == 0


# ----------------------------------------------------------------------
# provenance algebra (Table I), plain and interned
# ----------------------------------------------------------------------

tags = st.builds(
    Tag,
    st.sampled_from([TagType.NETFLOW, TagType.PROCESS, TagType.FILE]),
    st.integers(0, 7),
)

#: Provenance lists short enough that unions never hit MAX_PROV_LEN --
#: the regime where the full algebraic laws hold.
short_provs = st.lists(tags, max_size=5, unique=True).map(tuple)

#: Unrestricted lists (may reach the cap when unioned).
provs = st.lists(tags, max_size=MAX_PROV_LEN, unique=True).map(tuple)


def interned_ops():
    interner = ProvInterner()
    return interner.union, interner.append


IMPLEMENTATIONS = {
    "plain": lambda: (prov_union, append_tag),
    "interned": interned_ops,
}


class TestProvenanceAlgebra:
    @pytest.mark.parametrize("impl", sorted(IMPLEMENTATIONS))
    @given(a=short_provs, b=short_provs, c=short_provs)
    @settings(max_examples=60, deadline=None)
    def test_union_associative(self, impl, a, b, c):
        union, _ = IMPLEMENTATIONS[impl]()
        assert union(union(a, b), c) == union(a, union(b, c))

    @pytest.mark.parametrize("impl", sorted(IMPLEMENTATIONS))
    @given(a=provs, b=provs, c=provs)
    @settings(max_examples=60, deadline=None)
    def test_union_associative_even_at_the_cap(self, impl, a, b, c):
        # Truncation keeps the first MAX_PROV_LEN uniques of the
        # concatenated stream, so associativity survives the cap.
        union, _ = IMPLEMENTATIONS[impl]()
        assert union(union(a, b), c) == union(a, union(b, c))

    @pytest.mark.parametrize("impl", sorted(IMPLEMENTATIONS))
    @given(a=short_provs, b=short_provs)
    @settings(max_examples=60, deadline=None)
    def test_union_commutative_as_sets_below_cap(self, impl, a, b):
        # Ordered lists record chronology, so only the *membership* is
        # symmetric -- and only below the cap (a full list wins ties).
        union, _ = IMPLEMENTATIONS[impl]()
        assert set(union(a, b)) == set(union(b, a))

    @pytest.mark.parametrize("impl", sorted(IMPLEMENTATIONS))
    @given(a=provs)
    @settings(max_examples=30, deadline=None)
    def test_union_idempotent(self, impl, a):
        union, _ = IMPLEMENTATIONS[impl]()
        assert union(a, a) == a
        assert union(a, ()) == a
        assert union((), a) == a

    @pytest.mark.parametrize("impl", sorted(IMPLEMENTATIONS))
    @given(a=provs, t=tags)
    @settings(max_examples=60, deadline=None)
    def test_append_preserves_chronology(self, impl, a, t):
        _, append = IMPLEMENTATIONS[impl]()
        out = append(a, t)
        # Existing history is a prefix: first contact is never reordered.
        assert out[: len(a)] == a
        if t in a or len(a) >= MAX_PROV_LEN:
            assert out == a
        else:
            assert out == a + (t,)

    @pytest.mark.parametrize("impl", sorted(IMPLEMENTATIONS))
    @given(a=provs, t=tags)
    @settings(max_examples=30, deadline=None)
    def test_append_idempotent(self, impl, a, t):
        _, append = IMPLEMENTATIONS[impl]()
        assert append(append(a, t), t) == append(a, t)

    @given(a=provs, b=provs, t=tags)
    @settings(max_examples=60, deadline=None)
    def test_interned_matches_plain(self, a, b, t):
        interner = ProvInterner()
        assert interner.union(a, b) == prov_union(a, b)
        assert interner.append(a, t) == append_tag(a, t)

    @given(a=provs, b=provs)
    @settings(max_examples=30, deadline=None)
    def test_interned_results_are_canonical(self, a, b):
        interner = ProvInterner()
        first = interner.union(a, b)
        # Equal inputs -- even via fresh tuple objects -- must yield the
        # identical object, so identity comparison replaces equality.
        second = interner.union(tuple(a), tuple(b))
        assert first is second
        assert interner.intern(tuple(first)) is interner.intern(first)

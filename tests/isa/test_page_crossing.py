"""Page-crossing memory accesses: the interpreter, translated blocks and
the taint engine.

Words and instruction fetches that straddle a 256-byte page boundary
take the slow per-byte path; these tests pin down that both execution
paths agree and that taint follows each byte to its own page, for data
and for the fetched bytes of an instruction.
"""

import pytest

from repro.emulator.machine import Machine, MachineConfig
from repro.guestos.addrspace import PERM_RW, AddressSpace
from repro.guestos.asmlib import program
from repro.guestos.layout import IMAGE_BASE
from repro.isa.assembler import assemble
from repro.isa.cpu import CPU, AccessKind
from repro.isa.memory import PAGE_SHIFT, PAGE_SIZE, FrameAllocator, PhysicalMemory
from repro.isa.registers import Reg
from repro.isa.translate import BlockTranslator
from repro.taint.intern import ProvInterner
from repro.taint.policy import TaintPolicy
from repro.taint.reference import ReferenceTaintTracker
from repro.taint.tags import Tag, TagType
from repro.taint.tracker import TaintTracker

from tests.conftest import pad_to_page_offset, register_asm

SEED = Tag(TagType.NETFLOW, 5)


def make_cpu_with_paging():
    """A CPU over an address space whose pages are deliberately
    non-contiguous physically, so page-crossing really matters."""
    memory = PhysicalMemory(64 * PAGE_SIZE)
    allocator = FrameAllocator(memory)
    aspace = AddressSpace(1, allocator)
    # Allocate a decoy frame between the two mapped pages so their
    # physical frames are NOT adjacent.
    aspace.map_region(0x1000, PAGE_SIZE, PERM_RW | 4, "page-a")
    allocator.alloc()  # hole
    aspace.map_region(0x1000 + PAGE_SIZE, PAGE_SIZE, PERM_RW | 4, "page-b")
    cpu = CPU(memory, mmu=aspace)
    return cpu, aspace


@pytest.mark.parametrize("path", ["step", "translated"])
class TestPageCrossingData:
    def test_word_store_and_load_across_boundary(self, path):
        cpu, aspace = make_cpu_with_paging()
        boundary = 0x1000 + PAGE_SIZE - 2  # word spans both pages
        prog = assemble(
            f"""
            movi r1, {boundary}
            movi r2, 0xcafebabe
            st [r1], r2
            ld r3, [r1]
            hlt
            """,
            base=0x1000,
        )
        # Write program into the mapped pages byte by byte.
        for i, byte in enumerate(prog.code):
            paddr = aspace.translate(0x1000 + i, AccessKind.READ)
            cpu.memory.write_byte(paddr, byte)
        cpu.pc = 0x1000
        if path == "step":
            while not cpu.halted:
                cpu.step()
        else:
            translator = BlockTranslator(cpu.memory)
            while not cpu.halted:
                translator.run(cpu, 100)
        assert cpu.regs.read(Reg.R3) == 0xCAFEBABE
        # The two halves live in physically non-adjacent frames.
        pa = aspace.translate(boundary + 1, AccessKind.READ)
        pb = aspace.translate(boundary + 2, AccessKind.READ)
        assert abs(pb - pa) != 1


class TestPageCrossingTaint:
    def test_taint_follows_each_byte_to_its_page(self):
        """A tainted word stored across a page edge taints bytes in two
        physical frames."""
        machine = Machine(MachineConfig())
        tracker = TaintTracker(policy=TaintPolicy(process_tags_on_access=False))
        machine.plugins.register(tracker)
        source = """
            start:
                movi r1, src
                ld r2, [r1]
                movi r1, dst
                st [r1+DISP], r2
            park:
                movi r1, 1000000
                movi r0, SYS_SLEEP
                syscall
                hlt
            src: .word 1
            dst: .space 512
            """
        # The displacement is an immediate, so it moves no label: find
        # dst, then aim the store 2 bytes before the next page edge.
        dst = assemble(program(source.replace("DISP", "0")), base=IMAGE_BASE).label("dst")
        disp = (-dst - 2) % PAGE_SIZE
        prog = register_asm(machine, "t.exe", source.replace("DISP", str(disp)))
        proc = machine.kernel.spawn("t.exe")
        src = proc.aspace.translate_range(prog.label("src"), 4, AccessKind.READ)
        tracker.taint_range(src, SEED)
        machine.run(200_000)
        written = proc.aspace.translate_range(dst + disp, 4, AccessKind.READ)
        assert len({p >> PAGE_SHIFT for p in written}) == 2
        for paddr in written:
            assert SEED in tracker.prov_at(paddr)

    def test_fetch_of_straddling_instruction(self):
        """A load whose 8 bytes straddle a page edge executes, and its
        fetch provenance is collected from both frames: the translated
        taint tier matches the interpreter and the reference tracker."""
        head_tag = Tag(TagType.FILE, 1)
        tail_tag = Tag(TagType.FILE, 2)
        source = pad_to_page_offset(STRADDLING_LOAD, "strad", PAGE_SIZE - 4)

        def leg(tracker, translate):
            machine = Machine(MachineConfig(translate=translate))
            machine.plugins.register(tracker)
            log = []
            tracker.add_load_listener(lambda m, obs: log.append((m.now, obs)))
            prog = register_asm(machine, "t.exe", source)
            proc = machine.kernel.spawn("t.exe")
            strad = prog.label("strad")
            head = proc.aspace.translate_range(strad, 4, AccessKind.READ)
            tail = proc.aspace.translate_range(strad + 4, 4, AccessKind.READ)
            assert head[0] >> PAGE_SHIFT != tail[0] >> PAGE_SHIFT
            tracker.taint_range(head, head_tag)
            tracker.taint_range(tail, tail_tag)
            machine.run(200_000)
            return machine, tainted_observations(log), strad

        translated = TaintTracker(interner=ProvInterner())
        interpreted = TaintTracker(interner=ProvInterner())
        reference = ReferenceTaintTracker()
        machine, obs_t, strad = leg(translated, True)
        _, obs_i, _ = leg(interpreted, False)
        _, obs_r, _ = leg(reference, False)

        straddled = [obs for obs in obs_t if obs[1] == strad]
        assert len(straddled) == 3  # one per loop pass
        for _, _, insn_prov, _ in straddled:
            assert head_tag in insn_prov and tail_tag in insn_prov
        assert obs_t == obs_i == obs_r
        assert translated.shadow.snapshot() == interpreted.shadow.snapshot()
        assert translated.shadow.snapshot() == reference.shadow.snapshot()
        assert translated.stats == interpreted.stats
        assert (translated.interner.hits, translated.interner.misses) == (
            interpreted.interner.hits,
            interpreted.interner.misses,
        )
        # The straddling load ran in a block of its own, fused.
        blocks = [b for b in machine.translator.blocks() if b.tail is not None]
        assert blocks and all(b.exec_count for b in blocks)
        assert machine.translator.taint_single_steps == 0


#: A load placed across a page edge (``pad_to_page_offset`` fills the
#: pad), run three times so its fetch memo records and then hits.
STRADDLING_LOAD = """
start:
    movi r5, 3
again:
    movi r6, src
    jmp strad
    .space {pad}
strad:
    ld r1, [r6]
    subi r5, r5, 1
    cmpi r5, 0
    jnz again
park:
    movi r1, 1000000
    movi r0, SYS_SLEEP
    syscall
    hlt
src: .word 0x1234
"""


def tainted_observations(log):
    """``(tick, pc, insn_prov, read provs)`` of the observations that
    carry taint (the fast tracker skips all-clean ones)."""
    out = []
    for tick, obs in log:
        reads = tuple(prov for _, prov in obs.reads)
        if obs.insn_prov or any(reads):
            out.append((tick, obs.fx.pc, obs.insn_prov, reads))
    return out

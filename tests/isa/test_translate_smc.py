"""Self-modifying / injected code vs the translation cache.

Injected code is freshly *written* memory, so stale-block invalidation
is the threat model, not an edge case.  Four layers of proof:

* unit: every write channel into a watched page (byte/word/bulk store,
  guest store instruction, frame recycling) bumps the code version and
  invalidates cached blocks;
* machine: a guest that patches its own instructions executes the *new*
  bytes, identically to the interpreted path;
* page-straddling instructions: a block fetched from two pages is
  re-validated against its second page on every entry, so rewriting,
  unmapping or un-executing that page is seen exactly as the
  interpreter sees it;
* attacks: every scenario runs through the cache, and the attacks that
  overwrite previously-executed code (process hollowing and the
  code-injection family) are seen invalidating.  The attacks that write
  payloads into *freshly allocated* pages (reflective DLL, reverse-tcp,
  BypassUAC) never had those pages translated before the write -- the
  version captured at first translation already covers the injected
  bytes, so zero invalidations is the correct count for them (and the
  full-run differential in ``test_translate_diff.py`` proves no stale
  execution regardless).
"""

import dataclasses

import pytest

from repro.analysis.triage import ATTACK_BUILDER_REGISTRY
from repro.emulator.machine import Machine, MachineConfig
from repro.isa.assembler import assemble
from repro.isa.memory import PAGE_SHIFT, PAGE_SIZE, FrameAllocator, PhysicalMemory
from repro.isa.registers import Reg

from tests.conftest import pad_to_page_offset, spawn_asm
from tests.isa.test_cpu import MEM_SIZE, make_cpu
from tests.isa.test_translate import make_translated, run_translated

#: Attacks that overwrite code the victim had already executed (and the
#: cache had therefore already translated).
OVERWRITING_ATTACKS = [
    "process_hollowing",
    "code_injection",
    "darkcomet_injection",
    "njrat_injection",
]
FRESH_PAGE_ATTACKS = sorted(set(ATTACK_BUILDER_REGISTRY) - set(OVERWRITING_ATTACKS))


def run_attack(attack: str) -> Machine:
    """One recording-style (uninstrumented) run of *attack*, translated."""
    scenario = ATTACK_BUILDER_REGISTRY[attack]().scenario
    config = scenario.config if scenario.config is not None else MachineConfig()
    scenario = dataclasses.replace(
        scenario, config=dataclasses.replace(config, translate=True)
    )
    machine = scenario.build()
    machine.run(scenario.max_instructions)
    return machine


class TestUnitInvalidation:
    def test_external_write_invalidates_cached_block(self):
        cpu, tr = make_translated("movi r1, 1\nhlt")
        tr.lookup(cpu)
        assert tr.invalidations == 0
        # Patch the first instruction to movi r1, 2 (a bulk write, the
        # channel image loads and NtWriteVirtualMemory use).
        cpu.memory.write_bytes(0, assemble("movi r1, 2").code)
        run_translated(cpu, tr)
        assert tr.invalidations == 1
        assert cpu.regs.read(Reg.R1) == 2  # the NEW bytes executed

    def test_single_byte_write_invalidates(self):
        cpu, tr = make_translated("movi r1, 1\nhlt")
        block = tr.lookup(cpu)
        cpu.memory.write_byte(4, 0x07)  # rewrite the immediate's low byte
        assert cpu.memory.code_version(block.phys_page) == 1
        run_translated(cpu, tr)
        assert tr.invalidations == 1
        assert cpu.regs.read(Reg.R1) == 7

    def test_unrelated_page_write_does_not_invalidate(self):
        cpu, tr = make_translated("movi r1, 1\nhlt")
        tr.lookup(cpu)
        cpu.memory.write_bytes(8 * PAGE_SIZE, b"\xff" * 16)
        run_translated(cpu, tr)
        assert tr.invalidations == 0

    def test_guest_store_into_own_block_stops_precisely(self):
        # The program overwrites its OWN next instruction (movi r2, 1
        # becomes movi r2, 9 -- same opcode, patched immediate) with a
        # store *inside* the already-executing block.  The stale closure
        # for the next instruction must not run.
        source = (
            "movi r1, 9\n"
            "st [r3+20], r1\n"   # r3=0: patch the imm field of "movi r2, 1"
            "movi r2, 1\n"
            "hlt"
        )
        ref = make_cpu(source)
        while not ref.halted:
            ref.step()
        cpu, tr = make_translated(source)
        run_translated(cpu, tr)
        assert cpu.regs.read(Reg.R2) == 9 == ref.regs.read(Reg.R2)
        assert cpu.instret == ref.instret
        assert tr.invalidations >= 1

    def test_frame_recycling_bumps_versions_monotonically(self):
        memory = PhysicalMemory(MEM_SIZE)
        allocator = FrameAllocator(memory)
        frame = allocator.alloc()
        memory.watch_code_page(frame)
        v0 = memory.code_version(frame)
        memory.write_bytes(frame << PAGE_SHIFT, assemble("hlt").code)
        v1 = memory.code_version(frame)
        assert v1 > v0
        allocator.free(frame)
        assert allocator.alloc() == frame  # recycled...
        # ...and the zeroing wrote through the watched page, so any
        # block keyed on v1 can never validate again.
        assert memory.code_version(frame) > v1


class TestSelfPatchingGuest:
    SELF_PATCH = """
    start:
        movi r4, patchme
        movi r1, 7
        stb [r4+4], r1
        jmp patchme
    patchme:
        movi r5, 1
        movi r0, SYS_EXIT
        movi r1, 0
        syscall
    """

    def test_machine_executes_patched_bytes(self):
        finals = {}
        for translate in (True, False):
            machine = Machine(MachineConfig(translate=translate))
            proc = spawn_asm(machine, "patch.exe", self.SELF_PATCH)
            machine.run(10_000)
            finals[translate] = (machine.now, proc.exit_code)
            if translate:
                # The patch landed in an already-translated (watched)
                # page, so the stale block must have been invalidated.
                assert machine.translator.invalidations >= 1
        assert finals[True] == finals[False]


#: A straddling ``movi r5, ...`` (its immediate on the second page)
#: whose immediate the program rewrites between executions.  The
#: rewrite bumps only the second page's code version, and the jump back
#: comes through a chained block on the first page, so the chained entry
#: must re-check the second page.  Passes load 1, 5, 10 and 15: exit 31.
STRADDLE_SMC = """
start:
    movi r7, 4
    movi r3, 0
    movi r6, 0
    movi r4, strad
loop:
    jmp strad
    .space {pad}
strad:
    movi r5, 1
    jmp after
    .space 256
after:
    add r3, r3, r5
    addi r6, r6, 5
    stb [r4+4], r6
    subi r7, r7, 1
    cmpi r7, 0
    jnz loop
    mov r1, r3
    movi r0, SYS_EXIT
    syscall
"""

#: The first half of a ``movi r5, 0`` planted at offset 252 of a fresh
#: one-page allocation; its second half would be fetched from the
#: unmapped page after it.
STRADDLE_UNMAPPED = """
start:
    movi r1, 256
    movi r2, PERM_RWX
    movi r0, SYS_ALLOC
    syscall
    mov r4, r0
    movi r2, 0x511
    st [r4+252], r2
    addi r4, r4, 252
    jmpr r4
"""

#: A straddling instruction runs once, then the program makes its
#: second page read-write (not executable) and jumps back through the
#: block that chained to it on the first pass.
STRADDLE_NOEXEC = """
start:
    movi r7, 2
loop:
    subi r7, r7, 1
    cmpi r7, 0
    jnz go
    movi r1, strad
    addi r1, r1, 4
    movi r2, 256
    movi r3, PERM_RW
    movi r0, SYS_PROTECT
    syscall
go:
    jmp strad
    .space {pad}
strad:
    movi r5, 7
    jmp loop
"""

STRADDLE_PROGRAMS = {
    "smc": pad_to_page_offset(STRADDLE_SMC, "strad", PAGE_SIZE - 4),
    "unmapped": STRADDLE_UNMAPPED,
    "noexec": pad_to_page_offset(STRADDLE_NOEXEC, "strad", PAGE_SIZE - 4),
}


class TestStraddlingInstructionPages:
    """The uninstrumented tier against ``translate=False``."""

    @staticmethod
    def run_both(source):
        out = {}
        for translate in (True, False):
            machine = Machine(MachineConfig(translate=translate))
            proc = spawn_asm(machine, "s.exe", source)
            stats = machine.run(10_000)
            out[translate] = (machine, proc, stats)
        (m_on, p_on, s_on), (m_off, p_off, s_off) = out[True], out[False]
        assert (m_on.now, p_on.exit_code, s_on.stop_reason) == (
            m_off.now,
            p_off.exit_code,
            s_off.stop_reason,
        )
        assert m_on.kernel.console_log == m_off.kernel.console_log
        return m_on, p_on

    def test_rewritten_second_page_retranslates(self):
        machine, proc = self.run_both(STRADDLE_PROGRAMS["smc"])
        assert proc.exit_code == 31
        assert machine.translator.invalidations >= 3

    def test_unmapped_second_page_faults_precisely(self):
        machine, proc = self.run_both(STRADDLE_PROGRAMS["unmapped"])
        assert proc.exit_code == 0xDEAD
        assert "unmapped" in machine.kernel.console_log[-1][1]

    def test_second_page_losing_execute_faults_precisely(self):
        machine, proc = self.run_both(STRADDLE_PROGRAMS["noexec"])
        assert proc.exit_code == 0xDEAD
        assert "permission denied" in machine.kernel.console_log[-1][1]


class TestAttackInvalidation:
    @pytest.mark.parametrize("attack", sorted(ATTACK_BUILDER_REGISTRY))
    def test_attack_recording_runs_through_the_cache(self, attack):
        machine = run_attack(attack)
        tr = machine.translator
        assert tr.executions > 0
        assert tr.translations > 0
        # Whatever remains cached is valid against current memory: no
        # block survives the writes its page received.
        for block in tr.blocks():
            if block.exec_count:
                assert block.version <= machine.memory.code_version(block.phys_page)

    @pytest.mark.parametrize("attack", OVERWRITING_ATTACKS)
    def test_overwriting_attacks_invalidate(self, attack):
        machine = run_attack(attack)
        assert machine.translator.invalidations > 0

    @pytest.mark.parametrize("attack", FRESH_PAGE_ATTACKS)
    def test_fresh_page_attacks_translate_after_the_write(self, attack):
        # Payloads land in pages never executed before the injection, so
        # there is nothing to invalidate -- but the injected code still
        # executes through the cache (translations cover its pages).
        machine = run_attack(attack)
        assert machine.translator.invalidations == 0
        assert machine.translator.executions > 0

"""Assembly-source helpers for writing guest programs.

Guest programs (attacks, workloads, tests) are assembled from text; this
module provides the shared prelude of ``.equ`` constants -- syscall
numbers, permission masks, layout addresses, API stub addresses -- so
program sources read like real user-space assembly:

.. code-block:: asm

    movi r0, SYS_RECV
    movi r1, ...           ; socket handle
    syscall

plus small composable snippet builders for the recurring idioms
(syscall invocation, console printing, busy loops).
"""

from __future__ import annotations

import functools
import re
from typing import Iterable

from repro.guestos import layout
from repro.guestos.addrspace import PERM_R, PERM_RW, PERM_RWX, PERM_RX, PERM_W, PERM_X
from repro.guestos.loader import API_TABLE, export_table_address, fnv1a32, stub_address
from repro.guestos.syscalls import Sys


def _sanitize(name: str) -> str:
    """Turn an API name into an assembler symbol fragment."""
    return re.sub(r"[^A-Za-z0-9_]", "_", name).upper()


@functools.lru_cache(maxsize=None)
def prelude() -> str:
    """The standard ``.equ`` block every guest program should include."""
    lines = ["; ---- standard guest prelude ----"]
    for member in Sys:
        lines.append(f".equ SYS_{member.name}, {int(member)}")
    lines += [
        f".equ PERM_R, {PERM_R}",
        f".equ PERM_W, {PERM_W}",
        f".equ PERM_X, {PERM_X}",
        f".equ PERM_RW, {PERM_RW}",
        f".equ PERM_RX, {PERM_RX}",
        f".equ PERM_RWX, {PERM_RWX}",
        f".equ IMAGE_BASE, {layout.IMAGE_BASE:#x}",
        f".equ HEAP_BASE, {layout.HEAP_BASE:#x}",
        f".equ STACK_TOP, {layout.STACK_TOP:#x}",
        f".equ KERNEL_SHARED_BASE, {layout.KERNEL_SHARED_BASE:#x}",
        f".equ EXPORT_TABLE, {export_table_address():#x}",
    ]
    for api, _sysno in API_TABLE:
        lines.append(f".equ STUB_{_sanitize(api)}, {stub_address(api):#x}")
        lines.append(f".equ HASH_{_sanitize(api)}, {fnv1a32(api):#x}")
    lines.append("; ---- end prelude ----")
    return "\n".join(lines)


def syscall3(number_equ: str, a1: str = "0", a2: str = "0", a3: str = "0") -> str:
    """Emit a 3-argument syscall; operands are assembler expressions.

    Arguments that name registers are moved with ``mov``, anything else
    with ``movi``.
    """
    def load(reg: str, value: str) -> str:
        value = value.strip()
        if re.fullmatch(r"(r[0-7]|sp|fp|lr)", value, re.IGNORECASE):
            return f"    mov {reg}, {value}"
        return f"    movi {reg}, {value}"

    return "\n".join(
        [
            load("r1", a1),
            load("r2", a2),
            load("r3", a3),
            f"    movi r0, {number_equ}",
            "    syscall",
        ]
    )


def print_string(label: str, length: int) -> str:
    """Emit a console write of *length* bytes at *label*."""
    return syscall3("SYS_WRITE_CONSOLE", label, str(length))


def exit_process(status: int = 0) -> str:
    return f"    movi r1, {status}\n    movi r0, SYS_EXIT\n    syscall"


def sleep(ticks: int) -> str:
    return f"    movi r1, {ticks}\n    movi r0, SYS_SLEEP\n    syscall"


def busy_loop(label: str, iterations: int) -> str:
    """A deterministic compute loop (used to shape workload cost)."""
    return f"""
    movi r6, {iterations}
{label}:
    subi r6, r6, 1
    cmpi r6, 0
    jnz {label}
"""


def copy_loop(label: str, src_reg: str, dst_reg: str, len_reg: str) -> str:
    """Byte-copy loop: ``memcpy(dst, src, len)`` clobbering r6.

    Emits LDB/STB pairs, so DIFT propagates per-byte provenance exactly
    as a guest-visible copy should.
    """
    return f"""
{label}:
    cmpi {len_reg}, 0
    jz {label}_done
    ldb r6, [{src_reg}]
    stb [{dst_reg}], r6
    addi {src_reg}, {src_reg}, 1
    addi {dst_reg}, {dst_reg}, 1
    subi {len_reg}, {len_reg}, 1
    jmp {label}
{label}_done:
"""


def program(*sections: str) -> str:
    """Join prelude + *sections* into one assembly source."""
    return "\n".join([prelude(), *sections])

"""Shared fixtures and guest-program helpers for the test suite.

Markers
-------

``slow``
    Long-running randomized suites -- the differential harness and
    hypothesis property tests at high example counts
    (``tests/taint/test_differential.py``, the exhaustive benchmark
    assertions).  Deselected by default via ``addopts = "-m 'not slow'"``
    in ``pyproject.toml``; run them with::

        PYTHONPATH=src python -m pytest -m slow

    or everything at once with ``-m ''`` (an empty marker expression
    overrides the default deselection).
"""

from __future__ import annotations

import pytest

from repro.emulator.machine import Machine, MachineConfig
from repro.guestos import layout
from repro.guestos.asmlib import program
from repro.isa.assembler import assemble
from repro.isa.memory import PAGE_SIZE


@pytest.fixture
def machine() -> Machine:
    return Machine(MachineConfig())


def register_asm(machine: Machine, path: str, *sections: str):
    """Assemble a guest program (with the standard prelude) and install it."""
    prog = assemble(program(*sections), base=layout.IMAGE_BASE)
    machine.kernel.register_image(path, prog)
    return prog


def spawn_asm(machine: Machine, path: str, *sections: str, name=None, suspended=False):
    """Register and immediately spawn a guest program."""
    register_asm(machine, path, *sections)
    return machine.kernel.spawn(path, name=name, suspended=suspended)


def pad_to_page_offset(source: str, label: str, page_offset: int) -> str:
    """Fill the ``{pad}`` placeholder (a ``.space`` size) in *source* so
    that *label* sits *page_offset* bytes into its guest page -- e.g.
    252 puts an 8-byte instruction across a page boundary."""
    probe = assemble(program(source.replace("{pad}", "0")), base=layout.IMAGE_BASE)
    pad = (page_offset - probe.label(label)) % PAGE_SIZE
    return source.replace("{pad}", str(pad))

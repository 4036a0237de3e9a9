"""Fault-injection job targets for the triage-engine tests.

These run inside triage workers via the ``pyfunc`` job kind, so they
live in an importable module (not a test file) and take only picklable
kwargs.  Each one simulates a distinct production failure mode.
"""

from __future__ import annotations

import os
import pathlib
import signal
import time


def ok_job(token: int = 0) -> bool:
    """A well-behaved sample: verdict is 'flagged' for odd tokens."""
    return token % 2 == 1


def slow_job(seconds: float = 0.2) -> bool:
    """A sample that takes a while but finishes (must NOT time out)."""
    time.sleep(seconds)
    return False


def raising_job() -> bool:
    """A scenario that blows up inside the analysis."""
    raise ValueError("scenario exploded")


def busy_loop_job() -> bool:
    """A wedged sample: spins forever, must be killed by the timeout."""
    while True:  # pragma: no cover - the worker is SIGKILLed mid-spin
        pass


def spinning_machine_job() -> bool:
    """A wedged *guest*: the emulated machine spins forever, publishing
    watchdog progress each scheduler slice, until the pool's wall-clock
    timeout kills the worker.  The parent's timeout FaultRecord must
    then carry the machine's last-known position."""
    from repro.emulator.machine import Machine, MachineConfig
    from repro.guestos import layout
    from repro.guestos.asmlib import program
    from repro.isa.assembler import assemble

    machine = Machine(MachineConfig())
    spin = "start:\n    movi r7, 0\nloop:\n    addi r7, r7, 1\n    jmp loop"
    machine.kernel.register_image(
        "spin.exe", assemble(program(spin), base=layout.IMAGE_BASE)
    )
    machine.kernel.spawn("spin.exe")
    while True:  # pragma: no cover - the worker is SIGKILLed mid-run
        machine.run(max_instructions=10_000_000)


def selfkill_job() -> bool:
    """A worker death: the process dies without reporting a result."""
    os.kill(os.getpid(), signal.SIGKILL)
    return True  # pragma: no cover - never reached


def crash_once_job(marker: str) -> bool:
    """Crashes the worker on the first attempt, succeeds on the retry
    (the *marker* file records that the first attempt happened)."""
    path = pathlib.Path(marker)
    if path.exists():
        return True
    path.write_text("first attempt crashed")
    os.kill(os.getpid(), signal.SIGKILL)
    return False  # pragma: no cover - never reached


def marked_sleep_job(marker: str, seconds: float) -> bool:
    """A long sample that announces it has started by creating *marker*,
    so a test can act while it is in flight."""
    pathlib.Path(marker).touch()
    time.sleep(seconds)
    return False

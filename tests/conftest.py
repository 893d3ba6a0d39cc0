"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.isa import Program, assemble
from repro.soc import Soc


@pytest.fixture
def soc() -> Soc:
    """A fresh stock triple-core SoC."""
    return Soc()


def run_program(
    source_or_program, core_id: int = 0, max_cycles: int = 200_000
) -> tuple[Soc, "object"]:
    """Assemble (if needed), load and run a program on one core.

    Returns ``(soc, core)`` after the core halts.
    """
    if isinstance(source_or_program, str):
        program = assemble(source_or_program)
    else:
        program = source_or_program
    machine = Soc()
    machine.load(program)
    machine.start_core(core_id, program.base_address)
    machine.run(max_cycles=max_cycles)
    return machine, machine.cores[core_id]


def run_on_soc(
    machine: Soc, program: Program, core_id: int = 0, max_cycles: int = 200_000
):
    """Load and run a pre-built program on an existing SoC."""
    machine.load(program)
    machine.start_core(core_id, program.base_address)
    machine.run(max_cycles=max_cycles)
    return machine.cores[core_id]

"""Tests of the trace renderer and the per-table experiment drivers."""

import pytest

from repro.analysis import (
    fig1_pipeline_traces,
    fig2_structure_audit,
    table1_stalls,
    table4_tcm_vs_cache,
)
from repro.analysis import experiments
from repro.cpu.trace import render_pipeline_diagram
from repro.cpu.uop import Uop
from repro.errors import ExecutionLimitExceeded
from repro.isa.instructions import Instruction, Mnemonic


def test_render_empty_trace():
    assert "empty" in render_pipeline_diagram([])


def test_render_contains_stage_letters():
    uop = Uop(
        seq=1, instr=Instruction(Mnemonic.ADD, rd=1), slot=0,
        issue_cycle=5, wb_cycle=7,
    )
    text = render_pipeline_diagram([uop])
    assert "D" in text and "E" in text and "M" in text and "W" in text
    assert "add r1, r0, r0" in text


def test_fig1_shows_broken_forwarding():
    result = fig1_pipeline_traces()
    # Stall-free: the consumer issues right behind the producer and the
    # EX->EX path is excited.
    assert "fwd: EX0" in result.single_core_diagram
    # Contended: no forwarding annotation on the consumer's operand 7.
    contended_consumer = [
        line for line in result.contended_diagram.splitlines()
        if line.startswith("add r9")
    ][0]
    assert "EX0" not in contended_consumer
    assert result.contended_stalls > result.single_core_stalls


def test_fig2_audit_properties():
    result = fig2_structure_audit()
    assert result.execution_loop_fills == 0
    assert result.loading_loop_fills > 0
    assert result.signature_matches_single_core
    assert result.wrapped_size_bytes - result.single_size_bytes < 128
    rendered = result.render()
    assert "loading loop" in rendered


def test_fig2_audit_raises_when_the_cycle_budget_runs_out(monkeypatch):
    monkeypatch.setattr(experiments, "DEFAULT_MAX_CYCLES", 1_000)
    with pytest.raises(ExecutionLimitExceeded):
        fig2_structure_audit()


def test_table1_superlinear_growth():
    result = table1_stalls(repeat=1)
    rows = {r.active_cores: r for r in result.rows}
    assert rows[2].total_if_stalls > 2 * rows[1].total_if_stalls
    assert rows[3].total_if_stalls > rows[2].total_if_stalls
    assert rows[3].total_mem_stalls > rows[1].total_mem_stalls
    assert "Table I" in result.render()


def test_table4_memory_overhead_shape():
    result = table4_tcm_vs_cache()
    by_approach = {row.approach: row for row in result.rows}
    assert by_approach["TCM-based"].memory_overhead_bytes > 0
    assert by_approach["Cache-based"].memory_overhead_bytes == 0
    assert by_approach["Cache-based"].execution_cycles > 0
    assert "Table IV" in result.render()
    # Microsecond conversion at the paper's 180 MHz clock.
    row = by_approach["TCM-based"]
    assert row.microseconds(180_000_000) == pytest.approx(
        row.execution_cycles / 180.0, rel=1e-6
    )

"""Edge cases of the Fig. 1 pipeline-diagram renderer (repro.cpu.trace).

These pin the rendered grid exactly — stage letters and column gaps —
for the degenerate inputs the experiment code never produces: an empty
trace window, a single uop, and a stalled dependent pair.
"""

from repro.cpu.trace import render_pipeline_diagram, trace_rows
from repro.cpu.uop import Uop
from repro.isa.instructions import Instruction, Mnemonic

LABEL = 24


def make_uop(seq, instr, issue, wb=-1):
    return Uop(seq=seq, instr=instr, slot=0, issue_cycle=issue, wb_cycle=wb)


def grid(diagram, row):
    """The stage-cell portion of data row ``row`` (header is line 0)."""
    return diagram.splitlines()[1 + row][LABEL + 2:]


def test_empty_trace_window_renders_placeholder():
    assert render_pipeline_diagram([]) == "(empty trace)"


def test_single_uop_renders_four_stages():
    add = Instruction(Mnemonic.ADD, rd=7, rs1=6, rs2=5)
    uop = make_uop(0, add, issue=5, wb=7)
    diagram = render_pipeline_diagram([uop])
    lines = diagram.splitlines()
    assert len(lines) == 2  # header + one row
    # Columns span issue .. wb+1: cycles 5..8.
    assert lines[0] == " " * LABEL + "  " + "  5  6  7  8"
    assert grid(diagram, 0) == "  D  E  M  W"
    assert lines[1].startswith(str(add)[: LABEL - 1])


def test_single_uop_without_wb_uses_issue_plus_two():
    # wb_cycle = -1 (never reached WB, e.g. window cut mid-flight):
    # the renderer schedules M at issue+2 rather than at cycle -1.
    nop = Instruction(Mnemonic.NOP)
    diagram = render_pipeline_diagram([make_uop(0, nop, issue=10)])
    assert grid(diagram, 0) == "  D  E  M  W"


def test_stalled_dependent_pair_shows_issue_gap():
    load = Instruction(Mnemonic.LW, rd=7, rs1=2, imm=0)
    use = Instruction(Mnemonic.ADD, rd=9, rs1=7, rs2=4)
    # The load writes back at 2; the dependent add could have issued at
    # 1 but stalls until 3 — a two-cycle load-use gap.
    pair = [make_uop(0, load, issue=0, wb=2), make_uop(1, use, issue=3, wb=5)]
    diagram = render_pipeline_diagram(pair)
    assert grid(diagram, 0) == "  D  E  M  W  .  .  ."
    assert grid(diagram, 1) == "  .  .  .  D  E  M  W"
    # The D-column gap (3 columns) is exactly the issue-cycle distance.
    row0, row1 = grid(diagram, 0), grid(diagram, 1)
    assert row1.index("D") - row0.index("D") == 3 * 3  # 3 cells of width 3


def test_back_to_back_pair_has_adjacent_decodes():
    a = Instruction(Mnemonic.ADD, rd=7, rs1=6, rs2=5)
    b = Instruction(Mnemonic.ADD, rd=9, rs1=7, rs2=4)
    pair = [make_uop(0, a, issue=0, wb=2), make_uop(1, b, issue=1, wb=3)]
    diagram = render_pipeline_diagram(pair)
    assert grid(diagram, 0) == "  D  E  M  W  ."
    assert grid(diagram, 1) == "  .  D  E  M  W"


def test_trace_rows_copy_uop_schedule():
    add = Instruction(Mnemonic.ADD, rd=7, rs1=6, rs2=5)
    rows = trace_rows([make_uop(0, add, issue=4, wb=6)])
    assert len(rows) == 1
    assert (rows[0].issue_cycle, rows[0].wb_cycle) == (4, 6)
    assert rows[0].text == str(add)
    assert rows[0].selects == ()

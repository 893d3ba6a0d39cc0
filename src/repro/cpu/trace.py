"""Pipeline trace rendering (reproduces the paper's Fig. 1 diagrams).

With ``core.keep_trace = True`` every issued uop records its issue and
write-back cycles; :func:`render_pipeline_diagram` turns a window of the
trace into the classic instruction/cycle grid:

    add r7, r6, r5   | D  E  M  W        |
    add r9, r7, r4   |    D  E  M  W     |

Stage letters: ``D`` issue/decode, ``E`` execute, ``M`` memory,
``W`` write-back.  Gaps between ``D`` columns of dependent instructions
are exactly the stalls that break forwarding adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.recording import FwdSource
from repro.cpu.uop import Uop


@dataclass(frozen=True)
class TraceRow:
    """One instruction's stage schedule extracted from a uop."""

    text: str
    issue_cycle: int
    wb_cycle: int
    selects: tuple[FwdSource, ...]


def trace_rows(uops: list[Uop]) -> list[TraceRow]:
    """Convert traced uops into renderable rows."""
    return [
        TraceRow(
            text=str(uop.instr),
            issue_cycle=uop.issue_cycle,
            wb_cycle=uop.wb_cycle,
            selects=tuple(uop.fwd_selects),
        )
        for uop in uops
    ]


#: Width of the instruction-text column of a pipeline diagram.
LABEL_WIDTH = 24


def render_pipeline_diagram(uops: list[Uop]) -> str:
    """Render a cycle-by-cycle pipeline occupancy diagram."""
    if not uops:
        return "(empty trace)"
    rows = trace_rows(uops)

    def effective_wb(row: TraceRow) -> int:
        # A uop cut off before write-back records wb_cycle = -1; render
        # it with the nominal issue+2 schedule (matching the stage
        # placement below) instead of letting -1 shrink the grid.
        return row.wb_cycle if row.wb_cycle >= 0 else row.issue_cycle + 2

    first = min(row.issue_cycle for row in rows)
    last = max(effective_wb(row) for row in rows) + 1
    span = last - first + 1
    lines = []
    header = " " * LABEL_WIDTH + "  " + "".join(
        f"{(first + i) % 100:>3}" for i in range(span)
    )
    lines.append(header)
    for row in rows:
        cells = ["  ."] * span
        wb = effective_wb(row)
        stages = [
            (row.issue_cycle, "D"),
            (row.issue_cycle + 1, "E"),
            (wb, "M"),
            (wb + 1, "W"),
        ]
        # Decode at issue, execute the cycle after; the MEM/WB boundary
        # is the recorded wb_cycle, with retirement one cycle later.
        seen = set()
        for cycle, letter in stages:
            index = cycle - first
            if 0 <= index < span and index not in seen:
                cells[index] = f"  {letter}"
                seen.add(index)
        label = row.text[: LABEL_WIDTH - 1].ljust(LABEL_WIDTH)
        forwards = ",".join(s.name for s in row.selects if s != FwdSource.RF)
        suffix = f"   fwd: {forwards}" if forwards else ""
        lines.append(label + "  " + "".join(cells) + suffix)
    return "\n".join(lines)

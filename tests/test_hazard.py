"""Tests of the dual-issue pairing rules and the load-use stall check."""

from repro.cpu.forwarding import LatchView
from repro.cpu.hazard import can_dual_issue
from repro.cpu.state import RegFile
from repro.cpu.uop import Uop
from repro.isa.instructions import Instruction, Mnemonic


def ins(mnemonic, rd=0, rs1=0, rs2=0, imm=0):
    return Instruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2, imm=imm)


def test_independent_alu_pair_issues_together():
    assert can_dual_issue(ins(Mnemonic.ADD, 1, 2, 3), ins(Mnemonic.XOR, 4, 5, 6))


def test_raw_dependency_splits_packet():
    assert not can_dual_issue(ins(Mnemonic.ADD, 1, 2, 3), ins(Mnemonic.ADD, 4, 1, 5))


def test_waw_dependency_splits_packet():
    assert not can_dual_issue(ins(Mnemonic.ADD, 1, 2, 3), ins(Mnemonic.SUB, 1, 4, 5))


def test_war_is_allowed():
    # Second writes what first reads: fine for in-order same-cycle issue.
    assert can_dual_issue(ins(Mnemonic.ADD, 1, 2, 3), ins(Mnemonic.ADD, 2, 4, 5))


def test_memory_op_must_be_slot0():
    assert can_dual_issue(ins(Mnemonic.LW, 1, 2), ins(Mnemonic.ADD, 3, 4, 5))
    assert not can_dual_issue(ins(Mnemonic.ADD, 3, 4, 5), ins(Mnemonic.LW, 1, 2))


def test_mul_must_be_slot0():
    assert can_dual_issue(ins(Mnemonic.MUL, 1, 2, 3), ins(Mnemonic.ADD, 4, 5, 6))
    assert not can_dual_issue(ins(Mnemonic.ADD, 4, 5, 6), ins(Mnemonic.MUL, 1, 2, 3))


def test_two_memory_ops_never_pair():
    assert not can_dual_issue(ins(Mnemonic.LW, 1, 2), ins(Mnemonic.SW, 0, 3, 4))


def test_branch_terminates_packet():
    branch = ins(Mnemonic.BEQ, rs1=1, rs2=2)
    assert not can_dual_issue(branch, ins(Mnemonic.ADD, 3, 4, 5))
    assert not can_dual_issue(ins(Mnemonic.ADD, 3, 4, 5), branch)


def test_system_instructions_issue_alone():
    csr = ins(Mnemonic.CSRR, rd=1)
    assert not can_dual_issue(csr, ins(Mnemonic.ADD, 3, 4, 5))
    assert not can_dual_issue(ins(Mnemonic.ADD, 3, 4, 5), csr)


def test_nop_pairs_freely():
    assert can_dual_issue(ins(Mnemonic.ADD, 1, 2, 3), ins(Mnemonic.NOP))
    assert can_dual_issue(ins(Mnemonic.NOP), ins(Mnemonic.ADD, 1, 2, 3))


def test_64bit_pair_dependency_detected_via_high_half():
    first = ins(Mnemonic.ADD, rd=3, rs1=1, rs2=2)  # writes r3
    second = ins(Mnemonic.ADD64, rd=6, rs1=2, rs2=8)  # reads r2,r3,r8,r9
    assert not can_dual_issue(first, second)


def test_latch_view_blocks_on_pending_load():
    load = Uop(
        seq=1, instr=ins(Mnemonic.LW, 5, 2), slot=0, dests=(5,),
        result=None, result_ready=False, is_load=True,
    )
    view = LatchView([load], [], RegFile())
    consumer = ins(Mnemonic.ADD, 6, 5, 7)
    other = ins(Mnemonic.ADD, 6, 8, 7)
    assert view.blocked_register(consumer.source_regs()) == 5
    assert view.blocked_register(other.source_regs()) == 0
    assert view.blocked_register(ins(Mnemonic.NOP).source_regs()) == 0
    load.result = 0x1234
    load.result_ready = True
    assert view.blocked_register(consumer.source_regs()) == 0

"""Pipeline-level tests of forwarding-path excitation and recording.

These run engineered packet sequences from the I-TCM (perfect fetch) and
assert which mux input served each operand — the ground truth the whole
fault-grading flow rests on.
"""

import pytest

from repro.cpu.recording import FwdSource
from repro.isa.instructions import Instruction, Mnemonic
from repro.soc import Soc
from repro.stl.packets import PhasedBuilder
from repro.stl.routines.forwarding import ForwardingPath, all_paths


def run_from_tcm(build, core_id=0):
    soc = Soc()
    core = soc.cores[core_id]
    asm = PhasedBuilder(core.itcm.base, "tcmtest")
    build(asm)
    asm.halt()
    program = asm.build()
    for address, word in zip(
        range(program.base_address, program.end_address, 4),
        program.encoded_words(),
    ):
        core.itcm.write_word(address, word)
    core.testwin = 1
    soc.start_core(core_id, program.base_address)
    soc.run(max_cycles=50_000)
    return core


def _exercise(path: ForwardingPath):
    def build(asm: PhasedBuilder):
        asm.li(5, 0x1234)
        asm.li(6, 0x4321)
        asm.align()
        asm.packet(Instruction(Mnemonic.ADD, rd=10, rs1=0, rs2=0))
        producer = Instruction(Mnemonic.OR, rd=7, rs1=5, rs2=0)
        filler0 = Instruction(Mnemonic.ADD, rd=11, rs1=0, rs2=0)
        if path.producer_slot == 0:
            asm.packet(producer, filler0)
        else:
            asm.packet(filler0, producer)
        if path.distance == 2:
            asm.packet(
                Instruction(Mnemonic.ADD, rd=12, rs1=0, rs2=0),
                Instruction(Mnemonic.ADD, rd=13, rs1=0, rs2=0),
            )
        if path.operand == 0:
            consumer = Instruction(Mnemonic.XOR, rd=9, rs1=7, rs2=6)
        else:
            consumer = Instruction(Mnemonic.XOR, rd=9, rs1=6, rs2=7)
        filler1 = Instruction(Mnemonic.ADD, rd=14, rs1=0, rs2=0)
        if path.consumer_slot == 0:
            asm.packet(consumer, filler1)
        else:
            asm.packet(filler1, consumer)

    return build


EXPECTED_SOURCE = {
    (0, 1): FwdSource.EX0,
    (1, 1): FwdSource.EX1,
    (0, 2): FwdSource.MEM0,
    (1, 2): FwdSource.MEM1,
}


@pytest.mark.parametrize("path", all_paths(), ids=lambda p: p.label)
def test_every_forwarding_path_excitable(path):
    core = run_from_tcm(_exercise(path))
    expected = EXPECTED_SOURCE[(path.producer_slot, path.distance)]
    assert core.regfile.read(9) == 0x1234 ^ 0x4321
    hits = [
        r
        for r in core.log.forwarding
        if r.select == expected and r.slot == path.consumer_slot
        and r.operand == path.operand
    ]
    assert hits, f"path {path.label} not excited as {expected.name}"


def test_distance_three_reads_register_file():
    def build(asm):
        asm.li(5, 0xAA)
        asm.align()
        asm.packet(Instruction(Mnemonic.OR, rd=7, rs1=5, rs2=0))
        for reg in (10, 11, 12):
            asm.packet(
                Instruction(Mnemonic.ADD, rd=reg, rs1=0, rs2=0),
                Instruction(Mnemonic.ADD, rd=reg + 4, rs1=0, rs2=0),
            )
        asm.packet(Instruction(Mnemonic.XOR, rd=9, rs1=7, rs2=0))

    core = run_from_tcm(build)
    assert core.regfile.read(9) == 0xAA
    last = [r for r in core.log.forwarding if r.candidates[0] == 0xAA]
    assert last and all(r.select == FwdSource.RF for r in last)


def test_load_use_creates_stall_then_mem_forward():
    def build(asm):
        asm.li(3, 0x0500_0000)  # D-TCM
        asm.li(5, 0xBEEF)
        asm.sw(5, 0, 3)
        asm.align()
        asm.packet(Instruction(Mnemonic.LW, rd=7, rs1=3, imm=0))
        asm.packet(Instruction(Mnemonic.XOR, rd=9, rs1=7, rs2=0))

    core = run_from_tcm(build)
    assert core.regfile.read(9) == 0xBEEF
    assert core.hazstall >= 1
    stalls = [r for r in core.log.hdcu if r.stall]
    assert stalls
    assert any(
        r.select in (FwdSource.MEM0, FwdSource.MEM1)
        and r.candidates[int(r.select)] == 0xBEEF
        for r in core.log.forwarding
    )


def test_load_use_splits_a_packet_at_slot_1():
    """A slot-1 consumer of a load whose data has not returned cannot
    pair: slot 0 issues alone and the consumer follows next cycle from
    slot 0, reading the load's data over the MEM0 path."""

    def build(asm):
        asm.li(3, 0x0500_0000)  # D-TCM
        asm.li(5, 0xBEEF)
        asm.sw(5, 0, 3)
        asm.align()
        asm.packet(Instruction(Mnemonic.LW, rd=7, rs1=3, imm=0))
        asm.packet(
            Instruction(Mnemonic.ADD, rd=10, rs1=0, rs2=0),
            Instruction(Mnemonic.XOR, rd=9, rs1=7, rs2=0),
        )

    core = run_from_tcm(build)
    assert core.regfile.read(9) == 0xBEEF
    reads_of_r7 = [
        (r.slot, r.select, r.stall) for r in core.log.hdcu if r.consumer_reg == 7
    ]
    assert reads_of_r7 == [(0, FwdSource.MEM0, False)]


def test_stale_value_visible_as_rf_candidate():
    """While the producer is in flight, the RF candidate still holds the
    stale value — the very bit-difference mux faults are graded on."""

    def build(asm):
        asm.li(7, 0x00FF)  # stale
        asm.align()
        asm.packet(Instruction(Mnemonic.ADD, rd=10, rs1=0, rs2=0))
        asm.packet(Instruction(Mnemonic.ADD, rd=11, rs1=0, rs2=0))
        asm.li(5, 0xFF00)
        asm.align()
        asm.packet(Instruction(Mnemonic.OR, rd=7, rs1=5, rs2=0))  # rp = new
        asm.packet(Instruction(Mnemonic.XOR, rd=9, rs1=7, rs2=0))

    core = run_from_tcm(build)
    assert core.regfile.read(9) == 0xFF00
    # The *consumer's* record is the last EX0-forward of 0xFF00 (the
    # earlier one belongs to the li expansion feeding the producer).
    records = [
        r for r in core.log.forwarding
        if r.select == FwdSource.EX0 and r.candidates[int(FwdSource.EX0)] == 0xFF00
    ]
    assert records[-1].candidates[int(FwdSource.RF)] == 0x00FF


def test_intra_packet_dependency_splits_and_forwards():
    def build(asm):
        asm.li(5, 0x77)
        asm.align()
        # Dependent pair: the front end must split it.
        asm.emit(Instruction(Mnemonic.OR, rd=7, rs1=5, rs2=0))
        asm.emit(Instruction(Mnemonic.XOR, rd=9, rs1=7, rs2=0))
        asm.align()

    core = run_from_tcm(build)
    assert core.regfile.read(9) == 0x77
    assert any(
        r.select == FwdSource.EX0 and r.candidates[1] == 0x77
        for r in core.log.forwarding
    )


def test_records_respect_testwin():
    from repro.isa.instructions import Csr

    def build2(asm):
        asm.li(1, 0)
        asm.csrw(Csr.TESTWIN, 1)
        asm.li(5, 0x11)
        asm.align()
        asm.packet(Instruction(Mnemonic.OR, rd=7, rs1=5, rs2=0))
        asm.packet(Instruction(Mnemonic.XOR, rd=9, rs1=7, rs2=0))

    core = run_from_tcm(build2)
    tail = core.log.forwarding[-4:]
    assert all(not r.observable for r in tail)

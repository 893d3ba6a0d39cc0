"""End-to-end execution tests of the pipeline core."""

import pytest

from repro.errors import ExecutionLimitExceeded, SimulationError
from repro.isa import AsmBuilder, Mnemonic
from repro.isa.instructions import Instruction
from repro.soc import Soc
from tests.conftest import run_program


def test_arithmetic_loop():
    _, core = run_program(
        """
        .org 0x100
        addi r1, r0, 10
        addi r2, r0, 0
        loop: add r2, r2, r1
        addi r1, r1, -1
        bne r1, r0, loop
        halt
        """
    )
    assert core.regfile.read(2) == 55
    assert core.done


def test_memory_roundtrip_sram():
    _, core = run_program(
        """
        lui r3, 0x20000
        addi r1, r0, 1234
        sw r1, 0(r3)
        lw r2, 0(r3)
        sb r1, 5(r3)
        lbu r4, 5(r3)
        halt
        """
    )
    assert core.regfile.read(2) == 1234
    assert core.regfile.read(4) == 1234 & 0xFF


def test_tcm_data_access():
    asm = AsmBuilder(0x100)
    asm.li(3, 0x0500_0000)  # core 0 D-TCM
    asm.li(1, 0x5A5A)
    asm.sw(1, 8, 3)
    asm.lw(2, 8, 3)
    asm.halt()
    _, core = run_program(asm.build())
    assert core.regfile.read(2) == 0x5A5A
    assert core.dtcm.read_word(core.dtcm.base + 8) == 0x5A5A


def test_jal_jr_roundtrip():
    _, core = run_program(
        """
        .org 0x200
        addi r1, r0, 1
        jal sub
        addi r1, r1, 16
        halt
        sub: addi r1, r1, 2
        jr r31
        """
    )
    assert core.regfile.read(1) == 19
    assert core.regfile.read(31) == 0x208


def test_untaken_branch_falls_through():
    _, core = run_program(
        """
        addi r1, r0, 1
        beq r1, r0, skip
        addi r2, r0, 7
        skip: halt
        """
    )
    assert core.regfile.read(2) == 7


def test_csr_reads():
    _, core = run_program(
        """
        csrr r1, coreid
        csrr r2, cycles
        csrr r3, instret
        halt
        """
    )
    assert core.regfile.read(1) == 0
    assert core.regfile.read(2) > 0


def test_dual_issue_achieves_ipc_above_one():
    asm = AsmBuilder(0x100)
    # Run from the I-TCM so fetch never limits issue.
    asm = AsmBuilder(0x0400_0000)
    for i in range(100):
        asm.emit(Instruction(Mnemonic.ADD, rd=1 + i % 4, rs1=0, rs2=0))
        asm.emit(Instruction(Mnemonic.ADD, rd=5 + i % 4, rs1=0, rs2=0))
    asm.halt()
    program = asm.build()
    soc = Soc()
    core = soc.cores[0]
    for address, word in zip(
        range(program.base_address, program.end_address, 4),
        program.encoded_words(),
    ):
        core.itcm.write_word(address, word)
    soc.start_core(0, program.base_address)
    soc.run(max_cycles=10_000)
    assert core.instret / core.cycles > 1.2


def test_trap_event_reaches_icu():
    _, core = run_program(
        """
        lui r1, 0x7FFFF
        ori r1, r1, 0xFFF
        addi r2, r0, 1
        addo r3, r1, r2
        nop
        nop
        nop
        nop
        csrr r4, icu_status
        csrr r5, icu_count
        halt
        """
    )
    assert core.regfile.read(4) == 1  # OVF_ADD maps to status bit 0
    assert core.regfile.read(5) == 1


def test_icu_ack_clears_status():
    _, core = run_program(
        """
        addi r1, r0, 5
        divt r2, r1, r0
        nop
        nop
        nop
        csrw icu_ack, r0
        csrr r3, icu_status
        halt
        """
    )
    assert core.regfile.read(3) == 0


def test_cachecfg_csr_controls_caches():
    _, core = run_program(
        """
        addi r1, r0, 7
        csrw cachecfg, r1
        csrr r2, cachecfg
        addi r1, r0, 0
        csrw cachecfg, r1
        csrr r3, cachecfg
        halt
        """
    )
    assert core.regfile.read(2) == 7
    assert core.regfile.read(3) == 0


def test_icinv_dcinv_execute():
    _, core = run_program("icinv\ndcinv\nhalt\n")
    assert core.icache.stats.invalidations == 1
    assert core.dcache.stats.invalidations == 1


def test_sync_drains_pipeline():
    _, core = run_program(
        """
        lui r3, 0x20000
        addi r1, r0, 9
        sw r1, 0(r3)
        sync
        lw r2, 0(r3)
        halt
        """
    )
    assert core.regfile.read(2) == 9


def test_64bit_ops_require_core_c(soc):
    asm = AsmBuilder(0x100)
    asm.add64(2, 4, 6)
    asm.halt()
    program = asm.build()
    soc.load(program)
    soc.start_core(0, 0x100)  # core A: no 64-bit extension
    with pytest.raises(SimulationError):
        soc.run(max_cycles=1000)


def test_64bit_ops_on_core_c(soc):
    asm = AsmBuilder(0x100)
    asm.li(4, 0xFFFFFFFF)
    asm.li(5, 0x1)
    asm.li(6, 0x1)
    asm.li(7, 0x0)
    asm.add64(2, 4, 6)  # 0x1_FFFFFFFF + 1 = 0x2_00000000
    asm.halt()
    program = asm.build()
    soc.load(program)
    soc.start_core(2, 0x100)
    soc.run(max_cycles=10_000)
    core = soc.cores[2]
    assert core.regfile.read(2) == 0
    assert core.regfile.read(3) == 2


def test_runaway_program_hits_cycle_limit(soc):
    asm = AsmBuilder(0x100)
    asm.label("spin")
    asm.j("spin")
    soc.load(asm.build())
    soc.start_core(0, 0x100)
    with pytest.raises(ExecutionLimitExceeded):
        soc.run(max_cycles=500)


def test_counters_monotonic_and_consistent():
    _, core = run_program(
        """
        addi r1, r0, 50
        loop: addi r1, r1, -1
        bne r1, r0, loop
        halt
        """
    )
    # 1 init + 50 iterations of (addi + bne) + halt.
    assert core.instret == 1 + 2 * 50 + 1
    assert core.cycles >= core.instret / 2
    assert core.ifstall > 0  # uncached flash fetch always stalls some


def test_store_to_load_forwarding_through_memory():
    """A store immediately followed by a load of the same address must
    return the stored value (the memory unit serialises accesses)."""
    _, core = run_program(
        """
        lui r3, 0x20000
        addi r1, r0, 77
        sw r1, 4(r3)
        lw r2, 4(r3)
        halt
        """
    )
    assert core.regfile.read(2) == 77

"""Unit tests of operand resolution through the forwarding network."""

from repro.cpu.forwarding import resolve_register
from repro.cpu.recording import FwdSource
from repro.cpu.state import RegFile
from repro.cpu.uop import Uop
from repro.isa.instructions import Instruction, Mnemonic


def make_uop(seq, dest, value, slot=0, is_load=False, ready=True, is64=False):
    instr = Instruction(Mnemonic.LW if is_load else Mnemonic.ADD, rd=dest)
    dests = (dest, dest + 1) if is64 else (dest,)
    return Uop(
        seq=seq,
        instr=instr,
        slot=slot,
        dests=dests,
        result=value,
        is64=is64,
        result_ready=ready,
        is_load=is_load,
    )


def test_rf_read_when_no_producer():
    regfile = RegFile()
    regfile.write(5, 123)
    res = resolve_register(5, [], [], regfile)
    assert res.value == 123
    assert res.select == FwdSource.RF
    assert res.ready
    assert res.valid_mask == 1


def test_ex_source_priority_over_mem():
    regfile = RegFile()
    regfile.write(5, 1)
    ex = [make_uop(2, dest=5, value=20, slot=0)]
    mem = [make_uop(1, dest=5, value=10, slot=0)]
    res = resolve_register(5, ex, mem, regfile)
    assert res.select == FwdSource.EX0
    assert res.value == 20
    # All three sources are visible as candidates.
    assert res.candidates[int(FwdSource.EX0)] == 20
    assert res.candidates[int(FwdSource.MEM0)] == 10
    assert res.candidates[int(FwdSource.RF)] == 1


def test_slot_determines_source_lane():
    regfile = RegFile()
    ex = [make_uop(2, dest=7, value=42, slot=1)]
    res = resolve_register(7, ex, [], regfile)
    assert res.select == FwdSource.EX1


def test_mem_lane_forwarding():
    regfile = RegFile()
    mem = [make_uop(1, dest=9, value=33, slot=1)]
    res = resolve_register(9, [], mem, regfile)
    assert res.select == FwdSource.MEM1
    assert res.value == 33


def test_unready_load_blocks_resolution():
    regfile = RegFile()
    ex = [make_uop(2, dest=5, value=None, is_load=True, ready=False)]
    res = resolve_register(5, ex, [], regfile)
    assert not res.ready


def test_unready_older_load_shadowed_by_younger_producer():
    regfile = RegFile()
    ex = [make_uop(3, dest=5, value=99, slot=0)]
    mem = [make_uop(1, dest=5, value=None, slot=0, is_load=True, ready=False)]
    res = resolve_register(5, ex, mem, regfile)
    assert res.ready
    assert res.value == 99


def test_register_zero_never_forwarded():
    regfile = RegFile()
    # Even a (mis-generated) producer claiming to write r0 is ignored.
    ex = [make_uop(2, dest=0, value=77)]
    res = resolve_register(0, ex, [], regfile)
    assert res.value == 0
    assert res.select == FwdSource.RF


def test_64bit_pair_halves_resolved_independently():
    regfile = RegFile()
    regfile.write(4, 0xAAAA)
    ex = [make_uop(2, dest=4, value=0x1111_2222_3333_4444, is64=True)]
    low = resolve_register(4, ex, [], regfile)
    high = resolve_register(5, ex, [], regfile)
    assert low.value == 0x3333_4444
    assert high.value == 0x1111_2222


def test_valid_mask_reports_ready_producers():
    regfile = RegFile()
    ex = [make_uop(2, dest=5, value=20, slot=0), make_uop(3, dest=6, value=7, slot=1)]
    res = resolve_register(5, ex, [], regfile)
    assert res.valid_mask & (1 << int(FwdSource.EX0))
    assert not res.valid_mask & (1 << int(FwdSource.EX1))

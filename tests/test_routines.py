"""Tests of the STL routine generators and the library."""

import pytest

from repro.core import golden_signature
from repro.cpu.core import CORE_MODEL_A, CORE_MODEL_B, CORE_MODEL_C, ICACHE_CONFIG
from repro.stl import RoutineContext, build_library
from repro.stl.conventions import RESULT_PASS
from repro.stl.routines import (
    make_background_routines,
    make_forwarding_routine,
    make_interrupt_routine,
)
from tests.conftest import run_program


def ctx_for(core_index=0, model=CORE_MODEL_A):
    return RoutineContext.for_core(core_index, model)


def small_fwd(model=CORE_MODEL_A, **kw):
    kw.setdefault("patterns_per_path", 1)
    kw.setdefault("load_use_blocks", 2)
    return make_forwarding_routine(model, **kw)


def test_library_contents_and_lookup():
    library = build_library(CORE_MODEL_A)
    names = {r.name for r in library.routines}
    assert "fwd_a_pc" in names and "icu_a" in names
    assert library.get("stl_alu").module == "GEN"
    assert len(library.by_module("FWD")) == 2
    with pytest.raises(KeyError):
        library.get("nope")


def test_library_rejects_duplicates():
    library = build_library(CORE_MODEL_A)
    with pytest.raises(ValueError):
        library.add(library.routines[0])


def test_routines_fit_instruction_cache():
    """Section IV: 'it was not necessary to split them, since the
    instruction cache was large enough'."""
    for model in (CORE_MODEL_A, CORE_MODEL_B, CORE_MODEL_C):
        for routine in build_library(model).routines:
            if routine.module == "GEN":
                continue
            program = routine.build_single_core(0x400, ctx_for(0, model))
            assert program.size_bytes <= ICACHE_CONFIG.size_bytes, routine.name


def test_background_routines_produce_stable_signatures():
    for routine in make_background_routines():
        ctx = ctx_for()
        program = routine.build_single_core(0x400, ctx)
        sig_a = golden_signature(program, 0)
        sig_b = golden_signature(program, 0)
        assert sig_a == sig_b
        assert sig_a != 0


def test_background_repeat_scales_size():
    once = make_background_routines(repeat=1)[0]
    twice = make_background_routines(repeat=2)[0]
    size1 = once.build_single_core(0x400, ctx_for()).size_bytes
    size2 = twice.build_single_core(0x400, ctx_for()).size_bytes
    assert size2 > 1.8 * size1


def test_forwarding_routine_excites_all_paths_when_stall_free():
    routine = small_fwd()
    program = routine.build_single_core(0x400, ctx_for())
    soc, core = run_program(program)
    # Enable perfect-fetch conditions instead: run it cache-wrapped.
    from repro.core import build_cache_wrapped

    wrapped = build_cache_wrapped(routine, 0x400, ctx_for())
    soc, core = run_program(wrapped)
    assert len(core.log.forwarded_path_set()) == 16


def test_forwarding_routine_signature_value_independent_of_pcs_setting():
    with_pcs = make_forwarding_routine(CORE_MODEL_A, with_pcs=True,
                                       patterns_per_path=1)
    assert with_pcs.uses_pcs
    no_pcs = make_forwarding_routine(CORE_MODEL_A, with_pcs=False,
                                     patterns_per_path=1)
    assert not no_pcs.uses_pcs


def test_interrupt_routine_triggers_every_event():
    routine = make_interrupt_routine(CORE_MODEL_A)
    program = routine.build_single_core(0x400, ctx_for())
    _, core = run_program(program)
    raised = set()
    for recognition in core.icu.recognitions:
        raised.update(recognition.events)
    assert len(raised) == 6


def test_interrupt_routine_merged_pairs_on_shared_mapping():
    routine = make_interrupt_routine(CORE_MODEL_A)
    program = routine.build_single_core(0x400, ctx_for())
    _, core = run_program(program)
    assert any(r.merged for r in core.log.icu)


def test_epilogue_pass_verdict():
    routine = small_fwd()
    ctx = ctx_for()
    program = routine.build_single_core(0x400, ctx)
    expected = golden_signature(program, 0)
    checked = routine.build_single_core(0x400, ctx, expected)
    _, core = run_program(checked)
    assert core.dtcm.read_word(ctx.mailbox_address) == RESULT_PASS


def test_epilogue_fail_verdict_on_wrong_expectation():
    routine = small_fwd()
    ctx = ctx_for()
    checked = routine.build_single_core(0x400, ctx, expected_signature=0x1)
    _, core = run_program(checked)
    from repro.stl.conventions import RESULT_FAIL

    assert core.dtcm.read_word(ctx.mailbox_address) == RESULT_FAIL


def test_core_c_routine_uses_64bit_blocks():
    routine = small_fwd(CORE_MODEL_C)
    program = routine.build_single_core(0x400, ctx_for(2, CORE_MODEL_C))
    from repro.isa.instructions import Mnemonic

    mnemonics = {i.mnemonic for i in program.code}
    assert Mnemonic.OR64 in mnemonics and Mnemonic.XOR64 in mnemonics


def test_core_c_records_wide_operands():
    from repro.soc import Soc

    routine = small_fwd(CORE_MODEL_C)
    program = routine.build_single_core(0x400, ctx_for(2, CORE_MODEL_C))
    soc = Soc()
    soc.load(program)
    soc.start_core(2, 0x400)
    soc.run(max_cycles=400_000)
    wide = [r for r in soc.cores[2].log.forwarding if r.width == 64]
    assert wide
    assert any(r.observable_high for r in wide)
    assert any(not r.observable_high for r in wide)

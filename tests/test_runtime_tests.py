"""Tests of the run-time (idle-window) self-test mode."""

import pytest

from repro.core import golden_signature
from repro.cpu.core import CORE_MODEL_A, CORE_MODEL_B, CORE_MODEL_C
from repro.soc import Soc
from repro.stl import RoutineContext
from repro.stl.routines import make_background_routines, make_forwarding_routine
from repro.stl.runtime import (
    build_runtime_session,
    expected_app_checksum,
    session_checksum,
    session_verdict,
)

MODELS = {0: CORE_MODEL_A, 1: CORE_MODEL_B, 2: CORE_MODEL_C}


def routines_with_expected(core_index, model, count=2):
    routines = make_background_routines()[:count]
    ctx = RoutineContext.for_core(core_index, model)
    out = []
    for routine in routines:
        program = routine.build_single_core(0x7000, ctx)
        out.append((routine, golden_signature(program, core_index)))
    return out, ctx


def test_session_runs_and_passes_single_core():
    pairs, ctx = routines_with_expected(0, CORE_MODEL_A)
    session = build_runtime_session(pairs, rounds=4, base_address=0x1000, ctx=ctx)
    soc = Soc()
    soc.load(session.program)
    soc.start_core(0, session.entry_point)
    soc.run(max_cycles=4_000_000)
    passed, checksum_ok = session_verdict(soc.cores[0], session)
    assert passed
    assert checksum_ok


def test_runtime_tests_survive_full_contention():
    """The paper: run-time tests CAN be executed in parallel."""
    soc = Soc()
    sessions = {}
    for core_id, model in MODELS.items():
        pairs, ctx = routines_with_expected(core_id, model)
        sessions[core_id] = build_runtime_session(
            pairs, rounds=3, base_address=0x1000 + core_id * 0x8000, ctx=ctx
        )
        soc.load(sessions[core_id].program)
    for core_id, session in sessions.items():
        soc.start_core(core_id, session.entry_point)
    soc.run(max_cycles=8_000_000)
    for core_id, session in sessions.items():
        passed, checksum_ok = session_verdict(soc.cores[core_id], session)
        assert passed, f"core {core_id} run-time test failed under contention"
        assert checksum_ok


def test_app_checksum_model_matches_hardware():
    pairs, ctx = routines_with_expected(0, CORE_MODEL_A, count=1)
    for rounds in (1, 2, 5):
        session = build_runtime_session(
            pairs, rounds=rounds, base_address=0x1000, ctx=ctx
        )
        soc = Soc()
        soc.load(session.program)
        soc.start_core(0, session.entry_point)
        soc.run(max_cycles=4_000_000)
        _, checksum_ok = session_verdict(soc.cores[0], expected_app_checksum(rounds))
        assert checksum_ok
        assert session_checksum(soc.cores[0]) == expected_app_checksum(rounds)


def test_wrong_expected_signature_latches_fail():
    routines = make_background_routines()[:1]
    ctx = RoutineContext.for_core(0, CORE_MODEL_A)
    session = build_runtime_session(
        [(routines[0], 0xDEAD_0000)], rounds=2, base_address=0x1000, ctx=ctx
    )
    soc = Soc()
    soc.load(session.program)
    soc.start_core(0, session.entry_point)
    soc.run(max_cycles=4_000_000)
    passed, checksum_ok = session_verdict(soc.cores[0], session)
    assert not passed
    # The application itself is unaffected by the failing test.
    assert checksum_ok


def test_pc_bearing_routine_rejected():
    routine = make_forwarding_routine(CORE_MODEL_A, with_pcs=True)
    ctx = RoutineContext.for_core(0, CORE_MODEL_A)
    with pytest.raises(ValueError, match="performance counters"):
        build_runtime_session([(routine, 0)], rounds=1, base_address=0x1000, ctx=ctx)


def test_empty_routine_list_rejected():
    ctx = RoutineContext.for_core(0, CORE_MODEL_A)
    with pytest.raises(ValueError):
        build_runtime_session([], rounds=1, base_address=0x1000, ctx=ctx)

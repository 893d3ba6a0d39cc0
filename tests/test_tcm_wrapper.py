"""Tests of the TCM/scratchpad execution strategy (Table IV baseline)."""

import pytest

from repro.core import build_tcm_wrapped
from repro.cpu.core import CORE_MODEL_A
from repro.errors import ValidationError
from repro.soc import Soc
from repro.stl import RoutineContext
from repro.stl.conventions import RESULT_PASS, SIG_REG
from repro.stl.routines import make_forwarding_routine, make_interrupt_routine

CTX = RoutineContext.for_core(0, CORE_MODEL_A)


def run_deployment(deployment, core_id=0):
    soc = Soc()
    deployment.load(soc, core_id)
    soc.start_core(core_id, deployment.entry_point)
    soc.run(max_cycles=2_000_000)
    return soc, soc.cores[core_id]


def test_deployment_runs_and_reserves_tcm():
    routine = make_interrupt_routine(CORE_MODEL_A, windows=(0, 2))
    deployment = build_tcm_wrapped(routine, 0x1000, CTX)
    soc, core = run_deployment(deployment)
    assert core.done
    assert core.itcm.reserved_bytes == deployment.reserved_tcm_bytes
    assert deployment.reserved_tcm_bytes == deployment.body.size_bytes
    assert core.regfile.read(SIG_REG) != 0


def test_body_image_matches_body_program():
    routine = make_interrupt_routine(CORE_MODEL_A, windows=(0,))
    deployment = build_tcm_wrapped(routine, 0x1000, CTX)
    words = deployment.body.encoded_words()
    for i, word in enumerate(words):
        assert deployment.driver.data[deployment.image_address + 4 * i] == word


def test_copy_loop_actually_copies_into_tcm():
    routine = make_interrupt_routine(CORE_MODEL_A, windows=(0,))
    deployment = build_tcm_wrapped(routine, 0x1000, CTX)
    soc, core = run_deployment(deployment)
    base = deployment.body.base_address
    for i, word in enumerate(deployment.body.encoded_words()):
        assert core.itcm.read_word(base + 4 * i) == word


def test_signature_check_passes_with_expected():
    routine = make_interrupt_routine(CORE_MODEL_A, windows=(0, 2))

    def build(expected):
        return build_tcm_wrapped(routine, 0x1000, CTX, expected).driver

    # finalise_with_expected wants a plain Program builder; adapt.
    unchecked = build_tcm_wrapped(routine, 0x1000, CTX)
    soc, core = run_deployment(unchecked)
    expected = core.regfile.read(SIG_REG)
    checked = build_tcm_wrapped(routine, 0x1000, CTX, expected)
    soc, core = run_deployment(checked)
    assert core.dtcm.read_word(CTX.mailbox_address) == RESULT_PASS


def test_oversized_body_rejected():
    routine = make_forwarding_routine(CORE_MODEL_A, patterns_per_path=12)
    with pytest.raises(ValidationError):
        build_tcm_wrapped(routine, 0x1000, CTX, tcm_offset=12 << 10)


def test_driver_overrun_rejected():
    routine = make_interrupt_routine(CORE_MODEL_A)
    with pytest.raises(ValidationError, match="image_offset"):
        build_tcm_wrapped(routine, 0x1000, CTX, image_offset=8)


def test_tcm_execution_time_is_deterministic_under_contention():
    """The body runs from the I-TCM, so its signature is contention-proof
    (its *start time* may shift, but the computed signature may not)."""
    routine = make_interrupt_routine(CORE_MODEL_A, windows=(0, 3))
    deployment = build_tcm_wrapped(routine, 0x1000, CTX)

    def run_with_noise(noise: bool):
        soc = Soc()
        deployment.load(soc, 0)
        if noise:
            from repro.stl.packets import PhasedBuilder

            busy = PhasedBuilder(0x0010_0000, "busy")
            busy.label("spin")
            busy.nop(12)
            busy.j("spin")
            soc.load(busy.build())
            for other in (1, 2):
                soc.cores[other].recording = False
                soc.start_core(other, 0x0010_0000)
        soc.start_core(0, deployment.entry_point)
        for _ in range(2_000_000):
            soc.step()
            if soc.cores[0].done:
                break
        return soc.cores[0].regfile.read(SIG_REG)

    assert run_with_noise(False) == run_with_noise(True)

"""The simulator's fast paths against their references.

Two shortcuts in the cycle-level core must be exact:

* **Starved-core fast path.**  While a core can do nothing but wait for
  its head instruction fetch, ``Core.step`` only counts the cycle as an
  IF stall.  The reference is the full step every cycle, obtained by
  patching ``Core._starved_on`` (the predicate that arms the fast path)
  to always answer None.  Both runs must agree on every counter,
  statistic, signature, ICU recognition and activation record.
* **Per-cycle latch view.**  ``LatchView`` scans the producer latches
  once per issue cycle; every operand it resolves must equal the
  per-operand reference :func:`resolve_register`, and its HDCU summary
  and blocked register must equal a direct scan of the latches.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import determinism
from repro.core.determinism import default_scenarios, run_scenario
from repro.cpu.core import Core
from repro.cpu.forwarding import LatchView, Resolution, resolve_register
from repro.cpu.state import RegFile
from repro.cpu.uop import Uop
from repro.faults import BusGlitcher
from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS
from repro.isa import AsmBuilder, Instruction, Mnemonic
from repro.isa.encoding import encode
from repro.mem.memmap import dtcm_base, itcm_base
from repro.soc import RoutineSpec, Soc
from repro.soc import TestSupervisor as Supervisor
from repro.stl import RoutineContext
from repro.stl.routines import make_interrupt_routine
from tests.test_pattern_digests import BUILDERS, log_digest


def interrupt_builders():
    """The imprecise-interrupt routine per core, without the cache
    wrapper: trapping instructions retire right before fetch gaps."""
    return {
        core: make_interrupt_routine(model).builder_for(
            RoutineContext.for_core(core, model)
        )
        for core, model in DEFAULT_CAMPAIGN_MODELS.items()
    }


WORKLOADS = {**BUILDERS, "interrupts": interrupt_builders}


def _never_starved(core: Core) -> None:
    return None


def soc_state(soc: Soc) -> dict:
    """Everything a run leaves behind that a fast path could disturb."""
    return {
        "cycle": soc.cycle,
        "bus": {core: asdict(stats) for core, stats in soc.bus.stats.items()},
        "flash": (soc.flash.buffer_hits, soc.flash.buffer_misses),
        "cores": [
            {
                "counters": (
                    core.cycles,
                    core.instret,
                    core.ifstall,
                    core.memstall,
                    core.hazstall,
                ),
                "regs": core.regfile.snapshot(),
                "mailbox": core.dtcm.read_word(core.dtcm.base),
                "icache": asdict(core.icache.stats),
                "dcache": asdict(core.dcache.stats),
                "icu": [
                    (r.cycle, r.events, r.imprecision, r.status_bits)
                    for r in core.icu.recognitions
                ],
                "log": log_digest(core.log),
            }
            for core in soc.cores
        ],
    }


def both_ways(monkeypatch, run) -> tuple[dict, dict, int]:
    """``run()`` with the fast path and with the full step every cycle.

    Returns both end states and how often the fast path was armed.
    """
    armed = 0
    starved_on = Core._starved_on

    def counting(core):
        nonlocal armed
        txn = starved_on(core)
        armed += txn is not None
        return txn

    with monkeypatch.context() as patch:
        patch.setattr(Core, "_starved_on", counting)
        fast = run()
    with monkeypatch.context() as patch:
        patch.setattr(Core, "_starved_on", _never_starved)
        full = run()
    return fast, full, armed


def scenario_run(monkeypatch, builders_name: str, label: str, setup=None):
    """A ``run()`` for :func:`both_ways`: one matrix scenario through
    ``run_scenario``, with ``setup(soc)`` applied to its fresh SoC."""
    scenario = next(s for s in default_scenarios() if s.label == label)

    def run() -> dict:
        socs = []

        class CapturedSoc(Soc):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if setup is not None:
                    setup(self)
                socs.append(self)

        with monkeypatch.context() as patch:
            patch.setattr(determinism, "Soc", CapturedSoc)
            run_scenario(WORKLOADS[builders_name](), scenario)
        return soc_state(socs[0])

    return run


@pytest.mark.parametrize(
    "builders, label",
    [
        ("plain", "cores012_low_word"),
        ("cached", "cores012_mid_dword"),
        ("interrupts", "cores012_low_word"),
    ],
)
def test_fast_path_matches_full_step(monkeypatch, builders, label):
    run = scenario_run(monkeypatch, builders, label)
    fast, full, armed = both_ways(monkeypatch, run)
    assert armed > 0
    assert fast == full


def test_fast_path_matches_full_step_under_bus_glitches(monkeypatch):
    glitchers = []

    def glitch(soc: Soc) -> None:
        soc.bus.glitcher = BusGlitcher(seed=11, delay_rate=0.2, error_rate=0.05)
        glitchers.append(soc.bus.glitcher)

    run = scenario_run(monkeypatch, "plain", "cores012_low_word", glitch)
    fast, full, armed = both_ways(monkeypatch, run)
    assert armed > 0
    assert fast == full
    fast_glitches, full_glitches = (asdict(g.stats) for g in glitchers)
    assert fast_glitches == full_glitches
    assert fast_glitches["errors_injected"] > 0


# ----------------------------------------------------------------------
# A watchdog retry that hard-resets a starved core.
# ----------------------------------------------------------------------

ENTRY = 0x5000


def hop_to_itcm_program():
    """Write ``j <itcm>`` into core 0's I-TCM, jump there and spin.

    Right after the jump the core is starved on the TCM path: nothing
    can be fetched from the I-TCM until the uncached bursts still in
    flight from flash have drained.  A hard reset back to ``ENTRY``
    then switches the fetch unit to the uncached path, which may launch
    at once.
    """
    target = itcm_base(0)
    asm = AsmBuilder(ENTRY)
    asm.li(1, encode(Instruction(Mnemonic.J, imm=target // 4)))
    asm.li(2, target)
    asm.sw(1, 0, 2)
    # Padding that puts the jump where a prefetch burst is in flight.
    asm.nop(26)
    asm.jr(2)
    asm.nop(8)
    return asm.build()


def starved_on_tcm_cycle() -> int:
    """Cycles from start until core 0 is starved on the TCM path with
    exactly one (discarded) uncached burst left in flight."""
    soc = Soc()
    soc.load(hop_to_itcm_program())
    soc.start_core(0, ENTRY)
    fetch = soc.cores[0].fetch
    for _ in range(1000):
        soc.step()
        if (
            fetch.starved_on is not None
            and fetch.itcm.contains(fetch.fetch_pc)
            and len(fetch._inflight) == 1
        ):
            return soc.cycle
    raise AssertionError("core 0 never starved on the TCM path")


def test_fast_path_matches_full_step_across_watchdog_retry(monkeypatch):
    deadline = starved_on_tcm_cycle()

    def run() -> dict:
        soc = Soc()
        soc.load(hop_to_itcm_program())
        spec = RoutineSpec(
            name="hop",
            core_id=0,
            entry_point=ENTRY,
            mailbox_address=dtcm_base(0),
            deadline_cycles=deadline,
        )
        report = Supervisor(soc, max_retries=1).run_routine(spec)
        assert report.quarantined
        # The parked (halted) core must stay still from here on.
        soc.run_cycles(64)
        state = soc_state(soc)
        state["attempts"] = [(a.outcome, a.cycles) for a in report.attempts]
        return state

    fast, full, armed = both_ways(monkeypatch, run)
    assert armed > 0
    assert fast == full


# ----------------------------------------------------------------------
# The per-cycle latch view against the per-operand reference.
# ----------------------------------------------------------------------


def reference_summary(ex_latch, mem_latch):
    """The HDCU comparator inputs from a direct scan of both latches."""
    regs = [0, 0, 0, 0]
    valid = 0
    loads = 0
    for base, latch in ((0, ex_latch), (2, mem_latch)):
        for uop in latch:
            index = base + uop.slot
            bit = 1 << index
            if uop.dests and not valid & bit:
                regs[index] = uop.dests[0]
                valid |= bit
            if uop.is_load and not uop.result_ready:
                loads |= bit
    return tuple(regs), valid, loads


def reference_blocked(sources, ex_latch, mem_latch) -> int:
    """The register an HDCU stall records, from a direct latch scan."""
    blocked = 0
    for reg in sources:
        for latch in (ex_latch, mem_latch):
            for uop in latch:
                if not uop.result_ready and reg in uop.dests:
                    blocked = reg
    return blocked


@st.composite
def producer(draw, slot: int) -> Uop:
    is_load = draw(st.booleans())
    ready = not is_load or draw(st.booleans())
    kind = draw(st.sampled_from(["none", "word", "pair"]))
    rd = draw(st.integers(1, 30))
    dests = {"none": (), "word": (rd,), "pair": (rd, rd + 1)}[kind]
    is64 = kind == "pair"
    value = draw(st.integers(0, (1 << (64 if is64 else 32)) - 1))
    return Uop(
        seq=0,
        instr=Instruction(Mnemonic.LW if is_load else Mnemonic.ADD, rd=rd),
        slot=slot,
        dests=dests,
        result=value if ready else None,
        is64=is64,
        result_ready=ready,
        is_load=is_load,
    )


@st.composite
def latch(draw) -> list[Uop]:
    slots = draw(st.sampled_from([(), (0,), (1,), (0, 1), (1, 0)]))
    return [draw(producer(slot)) for slot in slots]


@settings(max_examples=300, deadline=None)
@given(
    ex_latch=latch(),
    mem_latch=latch(),
    values=st.lists(st.integers(0, (1 << 32) - 1), min_size=32, max_size=32),
    sources=st.lists(st.integers(0, 31), max_size=4),
)
def test_latch_view_matches_per_operand_reference(
    ex_latch, mem_latch, values, sources
):
    regfile = RegFile()
    for reg, value in enumerate(values):
        regfile.write(reg, value)
    view = LatchView(ex_latch, mem_latch, regfile)
    for reg in range(32):
        assert Resolution(*view.resolve(reg)) == resolve_register(
            reg, ex_latch, mem_latch, regfile
        )
    assert view.summary == reference_summary(ex_latch, mem_latch)
    assert view.blocked_register(tuple(sources)) == reference_blocked(
        sources, ex_latch, mem_latch
    )

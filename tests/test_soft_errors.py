"""Seeded soft-error injection: memory flips, cache flips, bus glitches."""

import pytest

from repro.errors import BusError, FaultModelError, MemoryError_, ReproError
from repro.faults import (
    AlwaysGlitch,
    BusGlitcher,
    CycleTrigger,
    SoftErrorInjector,
)
from repro.isa import AsmBuilder
from repro.mem.cache import Cache, CacheConfig
from repro.mem.sram import Sram
from repro.soc import Soc
from repro.stl.conventions import scratch_base

# ----------------------------------------------------------------------
# Bit flips in backing memories.
# ----------------------------------------------------------------------


def small_sram() -> Sram:
    return Sram(base=0x2000_0000, size=0x1000, latency=1)


def test_device_flip_bit_xors_one_bit():
    sram = small_sram()
    sram.write_word(0x2000_0010, 0x1234_5678)
    flipped = sram.flip_bit(0x2000_0010, 3)
    assert flipped == 0x1234_5678 ^ (1 << 3)
    assert sram.read_word(0x2000_0010) == flipped
    assert sram.soft_error_flips == 1


def test_device_flip_bit_validates_bit_index():
    sram = small_sram()
    sram.write_word(0x2000_0000, 1)
    with pytest.raises(MemoryError_):
        sram.flip_bit(0x2000_0000, 32)


def test_flash_flip_bypasses_the_readonly_guard():
    soc = Soc()
    soc.flash.program_word(soc.config.flash_base, 0xFFFF_FFFF)
    with pytest.raises(ReproError):
        soc.flash.write_word(soc.config.flash_base, 0)
    soc.flash.flip_bit(soc.config.flash_base, 31)
    assert soc.flash.read_word(soc.config.flash_base) == 0x7FFF_FFFF


def test_sram_flip_random_bit_draws_from_occupied_words():
    from repro.utils.rng import DeterministicRng

    sram = small_sram()
    sram.write_word(0x2000_0020, 0xFFFF_FFFF)
    address, bit = sram.flip_random_bit(DeterministicRng(3))
    assert address == 0x2000_0020
    assert sram.read_word(address) == 0xFFFF_FFFF ^ (1 << bit)
    with pytest.raises(MemoryError_):
        small_sram().flip_random_bit(DeterministicRng(3))


def test_injector_refuses_an_empty_device():
    injector = SoftErrorInjector(seed=1)
    with pytest.raises(FaultModelError):
        injector.flip_memory_bit(small_sram())


def test_injector_is_reproducible_from_its_seed():
    def campaign(seed: int) -> list[dict]:
        sram = small_sram()
        for i in range(32):
            sram.write_word(0x2000_0000 + 4 * i, 0xA5A5_0000 | i)
        injector = SoftErrorInjector(seed)
        for _ in range(10):
            injector.flip_memory_bit(sram)
        return injector.log_dicts()

    assert campaign(42) == campaign(42)
    assert campaign(42) != campaign(43)


def test_injection_records_round_trip():
    sram = small_sram()
    sram.write_word(0x2000_0040, 7)
    injector = SoftErrorInjector(seed=9)
    record = injector.flip_memory_bit(sram, cycle=123)
    assert record.kind == "sram-flip"
    assert record.cycle == 123
    from repro.faults import InjectionRecord

    assert InjectionRecord.from_dict(record.to_dict()) == record


# ----------------------------------------------------------------------
# Bit flips in cache lines.
# ----------------------------------------------------------------------


def warm_cache() -> Cache:
    cache = Cache(CacheConfig(name="d0", size_bytes=512))
    cache.install(0x100, list(range(8)))
    cache.install(0x200, list(range(8, 16)))
    return cache


def test_cache_flip_corrupts_a_resident_word():
    cache = warm_cache()
    assert sorted(cache.valid_line_addresses()) == [0x100, 0x200]
    cache.flip_bit(0x100, word_index=2, bit=5)
    assert cache.read(0x100 + 8) == 2 ^ (1 << 5)
    assert cache.stats.soft_error_flips == 1


def test_cache_flip_requires_a_resident_line():
    cache = warm_cache()
    with pytest.raises(MemoryError_):
        cache.flip_bit(0x300, word_index=0, bit=0)


def test_cache_injector_skips_an_empty_cache():
    cache = Cache(CacheConfig(name="d0", size_bytes=512))
    injector = SoftErrorInjector(seed=5)
    assert injector.flip_cache_bit(cache) is None
    assert injector.log == []


def test_cache_flip_does_not_dirty_the_line():
    """An SEU must not change writeback bookkeeping: invalidation drops
    the corruption instead of writing it back (the recovery guarantee)."""
    cache = warm_cache()
    injector = SoftErrorInjector(seed=5)
    record = injector.flip_cache_bit(cache, core_id=0)
    assert record is not None
    cache.invalidate_all()
    assert cache.valid_line_addresses() == []


# ----------------------------------------------------------------------
# Bus glitches: delayed grants and retriable error responses.
# ----------------------------------------------------------------------


def busy_program(base: int = 0x100):
    asm = AsmBuilder(base)
    asm.li(5, scratch_base(0))
    asm.li(1, 0)
    asm.li(2, 20)
    asm.label("loop")
    asm.add(1, 1, 2)
    asm.sw(1, 0, 5)
    asm.lw(3, 0, 5)
    asm.addi(2, 2, -1)
    asm.bne(2, 0, "loop")
    asm.halt()
    return asm.build()


def run_with_glitcher(glitcher) -> Soc:
    soc = Soc()
    program = busy_program()
    soc.load(program)
    soc.bus.glitcher = glitcher
    soc.start_core(0, program.base_address)
    soc.run(max_cycles=200_000)
    return soc


def test_glitch_rates_are_validated():
    with pytest.raises(FaultModelError):
        BusGlitcher(seed=1, delay_rate=1.5)
    with pytest.raises(FaultModelError):
        BusGlitcher(seed=1, max_delay=0)


def test_delayed_grants_stretch_the_run_deterministically():
    baseline = run_with_glitcher(None)
    first = BusGlitcher(seed=7, delay_rate=0.3)
    second = BusGlitcher(seed=7, delay_rate=0.3)
    run_a = run_with_glitcher(first)
    run_b = run_with_glitcher(second)
    assert first.stats.grants_delayed > 0
    assert first.stats.delay_cycles == second.stats.delay_cycles
    assert run_a.cycle == run_b.cycle > baseline.cycle
    assert (
        run_a.bus.stats[0].glitch_delay_cycles
        == run_b.bus.stats[0].glitch_delay_cycles
        == first.stats.delay_cycles
    )
    # The glitches are architecturally invisible: same final state.
    assert run_a.cores[0].regfile.read(1) == baseline.cores[0].regfile.read(1)


def test_error_responses_are_retried_transparently():
    baseline = run_with_glitcher(None)
    glitcher = BusGlitcher(seed=11, error_rate=0.25)
    soc = run_with_glitcher(glitcher)
    assert soc.bus.stats[0].error_responses > 0
    assert glitcher.stats.errors_injected == soc.bus.stats[0].error_responses
    # Every errored transaction was re-submitted and the program's
    # architectural outcome is untouched.
    assert soc.cores[0].regfile.read(1) == baseline.cores[0].regfile.read(1)
    assert soc.cores[0].regfile.read(3) == baseline.cores[0].regfile.read(3)


def test_retry_exhaustion_raises_bus_error():
    program = busy_program()
    soc = Soc()
    soc.load(program)
    soc.bus.glitcher = AlwaysGlitch()
    soc.start_core(0, program.base_address)
    with pytest.raises(BusError) as excinfo:
        soc.run(max_cycles=200_000)
    err = excinfo.value
    assert isinstance(err, ReproError)
    assert err.core_id == 0
    assert err.kind == "ifetch"
    assert err.retries == 3
    assert "core 0" in str(err)


@pytest.mark.parametrize(
    "store, kind", [(False, "read"), (True, "write")], ids=["load", "store"]
)
def test_data_retry_exhaustion_raises_bus_error(store, kind):
    """Code in the I-TCM never touches the bus, so the first transaction
    to fail is the data access itself."""
    soc = Soc()
    core = soc.cores[0]
    asm = AsmBuilder(core.itcm.base)
    asm.li(5, scratch_base(0))
    if store:
        asm.sw(0, 0, 5)
    else:
        asm.lw(1, 0, 5)
    asm.halt()
    program = asm.build()
    for address, word in program.image().items():
        core.itcm.write_word(address, word)
    soc.bus.glitcher = AlwaysGlitch()
    soc.start_core(0, program.base_address)
    with pytest.raises(BusError) as excinfo:
        soc.run(max_cycles=10_000)
    err = excinfo.value
    assert err.core_id == 0
    assert err.kind == kind
    assert err.address == scratch_base(0)
    assert err.retries == 3
    assert soc.bus.stats[0].error_responses == 4


def test_always_glitch_targets_one_core_only():
    program = busy_program()
    soc = Soc()
    soc.load(program)
    soc.bus.glitcher = AlwaysGlitch(target_core=1)
    soc.start_core(0, program.base_address)
    soc.run(max_cycles=200_000)  # core 0 is untouched
    assert soc.bus.stats[0].error_responses == 0


# ----------------------------------------------------------------------
# SoC fault hooks.
# ----------------------------------------------------------------------


def test_cycle_trigger_fires_once_at_its_cycle():
    program = busy_program()
    soc = Soc()
    soc.load(program)
    fired_at = []
    trigger = CycleTrigger(cycle=50, action=lambda s: fired_at.append(s.cycle))
    soc.fault_hooks.append(trigger)
    soc.start_core(0, program.base_address)
    soc.run(max_cycles=200_000)
    assert trigger.fired
    assert fired_at == [50]
    assert soc.fault_hooks == []

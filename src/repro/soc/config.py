"""Configuration of the modelled triple-core automotive SoC.

The stock configuration mirrors the case-study device of Section IV-A:
three dual-issue cores (A and B the same 32-bit model with different
physical design, C with the 64-bit extended ISA), each with a private
8 KiB instruction cache, 4 KiB data cache and two TCMs, sharing a single
bus to embedded flash (8-cycle array access) and system SRAM, running at
180 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.core import (
    CORE_MODEL_A,
    CORE_MODEL_B,
    CORE_MODEL_C,
    DCACHE_CONFIG,
    ICACHE_CONFIG,
    CoreModel,
)
from repro.mem.cache import CacheConfig


@dataclass(frozen=True)
class SocConfig:
    """Everything needed to build a :class:`repro.soc.soc.Soc`."""

    core_models: tuple[CoreModel, ...] = (
        CORE_MODEL_A,
        CORE_MODEL_B,
        CORE_MODEL_C,
    )
    icache: CacheConfig = ICACHE_CONFIG
    dcache: CacheConfig = DCACHE_CONFIG
    tcm_size: int = 16 << 10
    flash_base: int = 0x0000_0000
    flash_size: int = 32 << 20
    flash_array_cycles: int = 8
    flash_buffer_cycles: int = 2
    flash_buffer_bytes: int = 32
    flash_num_buffers: int = 2
    sram_base: int = 0x2000_0000
    sram_size: int = 1 << 20
    sram_latency: int = 2
    frequency_hz: int = 180_000_000

    @property
    def num_cores(self) -> int:
        return len(self.core_models)


DEFAULT_SOC_CONFIG = SocConfig()

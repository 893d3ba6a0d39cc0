"""The multi-core SoC: cores + shared bus + memories, clocked together."""

from __future__ import annotations

from repro.cpu.core import Core
from repro.errors import CoreDiagnostic, ExecutionLimitExceeded
from repro.isa.program import Program
from repro.mem.bus import SystemBus
from repro.mem.flash import Flash
from repro.mem.memmap import MemoryMap
from repro.mem.sram import Sram
from repro.soc.config import DEFAULT_SOC_CONFIG, SocConfig
from repro.telemetry.events import NULL_SINK


class Soc:
    """A cycle-stepped multi-core system-on-chip."""

    def __init__(self, config: SocConfig = DEFAULT_SOC_CONFIG):
        self.config = config
        self.memmap = MemoryMap()
        self.flash = Flash(
            base=config.flash_base,
            size=config.flash_size,
            array_cycles=config.flash_array_cycles,
            buffer_cycles=config.flash_buffer_cycles,
            buffer_bytes=config.flash_buffer_bytes,
            num_buffers=config.flash_num_buffers,
        )
        self.sram = Sram(
            base=config.sram_base, size=config.sram_size, latency=config.sram_latency
        )
        self.memmap.add(self.flash)
        self.memmap.add(self.sram)
        self.bus = SystemBus(self.memmap, config.num_cores)
        self.cores = [
            Core(
                core_id,
                model,
                self.bus,
                icache_config=config.icache,
                dcache_config=config.dcache,
                tcm_size=config.tcm_size,
            )
            for core_id, model in enumerate(config.core_models)
        ]
        self.cycle = 0
        #: Telemetry sink (no-op unless a TelemetrySession is attached).
        #: Components emit through their own ``telemetry`` attributes;
        #: this one serves SoC-level users (e.g. the supervisor).
        self.telemetry = NULL_SINK
        #: Disturbance hooks called once per clock with the SoC (see
        #: :mod:`repro.faults.soft_errors`); a hook that returns True is
        #: spent and removed.
        self.fault_hooks: list = []

    # ------------------------------------------------------------------
    # Program loading.
    # ------------------------------------------------------------------

    def load(self, program: Program) -> None:
        """Write a program's code and data into the backing memories."""
        for address, word in program.image().items():
            device = self.memmap.route(address)
            if device is self.flash:
                self.flash.program_word(address, word)
            else:
                device.write_word(address, word)

    def start_core(self, core_id: int, pc: int) -> None:
        """Reset one core to begin executing at ``pc``."""
        self.cores[core_id].reset(pc)

    def core_by_model(self, name: str) -> Core:
        """Find the core running processor model ``name`` (A, B or C)."""
        for core in self.cores:
            if core.model.name == name:
                return core
        raise KeyError(f"no core with model {name!r}")

    # ------------------------------------------------------------------
    # Clocking.
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the whole SoC by one clock cycle."""
        self.cycle += 1
        self.bus.step(self.cycle)
        for core in self.cores:
            core.step(self.cycle)
        if self.fault_hooks:
            self.fault_hooks = [
                hook for hook in self.fault_hooks if not hook(self)
            ]

    def core_diagnostics(self) -> tuple[CoreDiagnostic, ...]:
        """Per-core state snapshots (attached to watchdog trips)."""
        return tuple(
            CoreDiagnostic(
                core_id=core.core_id,
                model=core.model.name,
                pc=core.fetch.fetch_pc,
                started=core.started,
                halted=core.halted,
                active=core.active,
                cycles=core.cycles,
                bus_wait_cycles=self.bus.stats[core.core_id].wait_cycles,
            )
            for core in self.cores
        )

    def run(self, max_cycles: int = 2_000_000) -> int:
        """Run until every started core halts; returns elapsed cycles.

        Raises :class:`ExecutionLimitExceeded` when the budget runs out —
        the multi-core equivalent of a watchdog firing on a hung test.
        The exception carries a :class:`CoreDiagnostic` per core (id, PC,
        run state, bus-wait cycles) so the trip is debuggable.
        """
        start = self.cycle
        while any(core.active for core in self.cores):
            if self.cycle - start >= max_cycles:
                raise ExecutionLimitExceeded(
                    f"SoC still running after {max_cycles} cycles",
                    diagnostics=self.core_diagnostics(),
                )
            self.step()
        return self.cycle - start

    def run_cycles(self, cycles: int) -> None:
        """Run for a fixed number of cycles (cores may still be active)."""
        for _ in range(cycles):
            self.step()

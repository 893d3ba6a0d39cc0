"""Non-intrusive stall monitoring (the paper's "external debugger").

Section IV-B tracks the STL's parallel execution "leveraging an external
debugger, that monitored the number of clock cycles of stall due to the
memory subsystem in each processor core".  :class:`StallMonitor` reads
the cores' performance-counter state without issuing any instruction,
so the measurement cannot perturb the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.soc.soc import Soc


@dataclass(frozen=True)
class CoreStallReport:
    """Stall figures of one core, in clock cycles."""

    core_id: int
    model: str
    cycles: int
    instret: int
    if_stalls: int
    mem_stalls: int
    hazard_stalls: int
    #: Cycles this core's transactions spent queued on the shared bus
    #: (read off the bus-side per-master counters, still non-intrusive).
    bus_wait_cycles: int = 0


@dataclass(frozen=True)
class StallReport:
    """System-level stall figures (Table I rows)."""

    active_cores: int
    per_core: tuple[CoreStallReport, ...]

    @property
    def total_if_stalls(self) -> int:
        return sum(core.if_stalls for core in self.per_core)

    @property
    def total_mem_stalls(self) -> int:
        return sum(core.mem_stalls for core in self.per_core)

    @property
    def total_cycles(self) -> int:
        return sum(core.cycles for core in self.per_core)

    @property
    def total_bus_wait_cycles(self) -> int:
        return sum(core.bus_wait_cycles for core in self.per_core)


class StallMonitor:
    """Reads stall counters off a finished (or running) SoC."""

    def snapshot(self, soc: Soc) -> StallReport:
        """Capture the stall state of every started core."""
        reports = tuple(
            CoreStallReport(
                core_id=core.core_id,
                model=core.model.name,
                cycles=core.cycles,
                instret=core.instret,
                if_stalls=core.ifstall,
                mem_stalls=core.memstall,
                hazard_stalls=core.hazstall,
                bus_wait_cycles=soc.bus.stats[core.core_id].wait_cycles,
            )
            for core in soc.cores
            if core.started
        )
        return StallReport(active_cores=len(reports), per_core=reports)

"""Exception hierarchy for the ``repro`` library.

Every error raised on purpose by this package derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still being able to distinguish assembly problems
from simulation problems.
"""

from __future__ import annotations

from dataclasses import dataclass


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class AssemblyError(ReproError):
    """An assembly-language source could not be assembled.

    Carries the offending source line number (1-based) when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EncodingError(ReproError):
    """An instruction could not be encoded to, or decoded from, 32 bits."""


class MemoryError_(ReproError):
    """A memory access fell outside every mapped device or was misaligned.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`.
    """


class SimulationError(ReproError):
    """The CPU or SoC simulation reached an inconsistent state."""


class BusError(SimulationError):
    """A bus transaction completed with an error response.

    Raised by :meth:`repro.mem.bus.SystemBus.resubmit` once the bounded
    retry budget for a retriable error response (a transient glitch on
    the interconnect) is exhausted.  Carries enough context to localise
    the failing master.
    """

    def __init__(
        self,
        message: str,
        core_id: int | None = None,
        address: int | None = None,
        kind: str | None = None,
        retries: int = 0,
    ):
        parts = []
        if core_id is not None:
            parts.append(f"core {core_id}")
        if kind is not None:
            parts.append(kind)
        if address is not None:
            parts.append(f"address {address:#010x}")
        if retries:
            parts.append(f"after {retries} retries")
        if parts:
            message = f"{message} ({', '.join(parts)})"
        super().__init__(message)
        self.core_id = core_id
        self.address = address
        self.kind = kind
        self.retries = retries


@dataclass(frozen=True)
class CoreDiagnostic:
    """Snapshot of one core's state when a watchdog/limit trips."""

    core_id: int
    model: str
    pc: int
    started: bool
    halted: bool
    active: bool
    cycles: int
    bus_wait_cycles: int

    def describe(self) -> str:
        if not self.started:
            state = "off"
        elif self.halted:
            state = "halted"
        elif self.active:
            state = "running"
        else:
            state = "done"
        return (
            f"core {self.core_id} ({self.model}): {state}, pc={self.pc:#010x}, "
            f"{self.cycles} cycles, {self.bus_wait_cycles} bus-wait cycles"
        )


class ExecutionLimitExceeded(SimulationError):
    """A simulation ran longer than its configured cycle budget.

    When raised by :meth:`repro.soc.soc.Soc.run` it carries a
    per-core :class:`CoreDiagnostic` tuple so a watchdog trip is
    debuggable: which core hung, where its PC was pointing and how long
    it sat waiting for the bus.
    """

    def __init__(self, message: str, diagnostics: tuple[CoreDiagnostic, ...] = ()):
        if diagnostics:
            details = "; ".join(d.describe() for d in diagnostics)
            message = f"{message} [{details}]"
        super().__init__(message)
        self.diagnostics = diagnostics


class ValidationError(ReproError):
    """A self-test routine violates the cache-based methodology rules."""


class RoutineTooLargeError(ValidationError):
    """A routine does not fit the instruction cache and was not split."""


class FaultModelError(ReproError):
    """A netlist or fault list is malformed."""


class CheckpointError(ReproError):
    """A campaign checkpoint file is malformed or incompatible."""


class CheckpointCorruptionWarning(UserWarning):
    """A campaign checkpoint failed its integrity check.

    The offending file is preserved as a ``.corrupt`` sidecar and every
    scenario it held is graded again — corruption costs recomputation
    and a warning, never silent double-counting and never a lost file.
    """


class OrchestrationError(ReproError):
    """A supervised campaign could not be completed.

    Raised when one or more shards exhausted their retry budget and the
    caller did not opt into partial completion (``allow_partial``).  The
    message enumerates the quarantine roster; the
    :class:`repro.faults.orchestrator.OrchestrationReport` written next
    to the campaign checkpoint holds the full attempt history.
    """

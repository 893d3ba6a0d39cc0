"""Interrupt Control Unit with synchronous *imprecise* interrupts.

Synchronous imprecise interrupts (Smith & Pleszkun's terminology, cited
as [20] in the paper) are raised by a particular instruction but
recognised only after a **variable number of younger instructions have
retired** — the number depends on the retirement stream, which in a
multi-core SoC depends on bus-contention stalls.  The self-test routine
of Singh et al. [21] reads the ICU's software-visible registers into the
test signature; when the imprecision varies, so does the signature.

Model
-----
A trapping instruction delivers its event to the ICU at retirement.  The
event sits in a pending queue until a *recognition slot*: the first cycle
in which the pipeline retires fewer than two instructions (a retirement
bubble), or after ``max_wait`` cycles.  All events pending at that moment
are recognised together ("merged"), each setting its mapped status bit.

Status-bit mapping is the per-core implementation detail the paper uses
to explain core C's ~10 % higher ICU fault coverage (Section IV-D): on
cores A and B two event sources share each status bit, so merged or
mis-attributed events are indistinguishable; on core C the mapping is
one-hot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import NUM_EVENTS, Event


@dataclass
class IcuRecognition:
    """One recognition: the merged event set and its imprecision."""

    cycle: int
    events: tuple[Event, ...]
    imprecision: int
    status_bits: int
    merged: bool


@dataclass
class _Pending:
    event: Event
    raise_cycle: int
    retired_after: int = 0
    wait_cycles: int = 0


@dataclass
class IcuConfig:
    """Per-core ICU implementation parameters."""

    #: True on cores A/B: event pairs share a status bit; False on core C.
    shared_status_bits: bool = True
    #: Recognition is forced after this many cycles without a retire bubble.
    max_wait: int = 6


class Icu:
    """The interrupt control unit of one core."""

    def __init__(self, config: IcuConfig):
        self.config = config
        self._pending: list[_Pending] = []
        self.status = 0
        self.imprecision = 0
        self.recognised_count = 0
        self.recognitions: list[IcuRecognition] = []

    # ------------------------------------------------------------------
    # Status-bit mapping.
    # ------------------------------------------------------------------

    def map_event(self, event: Event) -> int:
        """Status bit index for ``event`` under this core's mapping."""
        if self.config.shared_status_bits:
            return int(event) // 2
        return int(event)

    @property
    def num_status_bits(self) -> int:
        return NUM_EVENTS // 2 if self.config.shared_status_bits else NUM_EVENTS

    # ------------------------------------------------------------------
    # Pipeline interface.
    # ------------------------------------------------------------------

    def raise_event(self, event: Event, cycle: int) -> None:
        """Deliver an event from a retiring trapping instruction."""
        self._pending.append(_Pending(event, cycle))

    @property
    def has_pending(self) -> bool:
        """True while a delivered event awaits recognition."""
        return bool(self._pending)

    @property
    def pending_vector(self) -> int:
        """Bitmask of raw (unmapped) pending event lines."""
        vector = 0
        for entry in self._pending:
            vector |= 1 << int(entry.event)
        return vector

    def step(self, cycle: int, retired_this_cycle: int) -> IcuRecognition | None:
        """Advance one clock cycle given how many instructions retired.

        Returns the recognition performed this cycle, if any.
        """
        if not self._pending:
            return None
        for entry in self._pending:
            entry.retired_after += retired_this_cycle
            entry.wait_cycles += 1
        head = self._pending[0]
        bubble = retired_this_cycle < 2
        if not bubble and head.wait_cycles < self.config.max_wait:
            return None
        recognised = self._pending
        self._pending = []
        bits = 0
        for entry in recognised:
            bits |= 1 << self.map_event(entry.event)
        self.status |= bits
        self.imprecision = recognised[-1].retired_after
        self.recognised_count += len(recognised)
        recognition = IcuRecognition(
            cycle=cycle,
            events=tuple(entry.event for entry in recognised),
            imprecision=self.imprecision,
            status_bits=bits,
            merged=len(recognised) > 1,
        )
        self.recognitions.append(recognition)
        return recognition

    # ------------------------------------------------------------------
    # Software-visible register file.
    # ------------------------------------------------------------------

    def read_status(self) -> int:
        return self.status

    def read_imprecision(self) -> int:
        return self.imprecision

    def read_count(self) -> int:
        return self.recognised_count

    def acknowledge(self) -> None:
        """Software acknowledge: clears status and the imprecision latch."""
        self.status = 0
        self.imprecision = 0

"""In-memory host spans for the benchmark's traced run.

A span records one call into a layer: its name, start and end
(``time.perf_counter`` seconds), the index of the span that enclosed it
and the scenario it served.  Spans stay in memory while the run is
timed and are written out once it ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    scenario: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; the innermost open span is the parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, scenario: str | None = None):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, scenario)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> dict[str, float]:
        """Span name -> summed duration minus the time its children cover."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.seconds
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            own = span.seconds - children[index]
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write(self, path: Path, context: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"context": context, "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(payload) + "\n")

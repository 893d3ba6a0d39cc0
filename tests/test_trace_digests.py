"""Pinned digests of the canned trace scenarios' three exported views.

The oracle for the telemetry layer (event stream -> exported artifacts).
Each canned scenario of :mod:`repro.telemetry.scenarios` that traces a
distinct run (quickstart and contention, each full and ``small``, plus
recovery) is reduced to three blake2b digests:

* ``trace`` — the Chrome trace-event list that ``python -m repro trace
  --trace-out`` writes;
* ``metrics`` — the phase-split metrics dict (``--metrics-out``);
* ``audit`` — the determinism auditor's summary.

and compared against ``trace_digests.json``.  A refactor of the phase
tracker, the metrics collector, the auditor or the exporter must
reproduce these digests bit for bit.

Regenerate the pinned file only in a change meant to alter the traced
runs or their exported form::

    PYTHONPATH=src python tests/test_trace_digests.py
"""

from __future__ import annotations

import json
from hashlib import blake2b
from pathlib import Path

import pytest

from repro.telemetry.chrome_trace import chrome_trace_events
from repro.telemetry.scenarios import run_trace_scenario

DIGESTS = Path(__file__).with_name("trace_digests.json")

#: ``label -> (scenario, small)``; ``recovery`` ignores ``small``.
RUNS = {
    "quickstart": ("quickstart", False),
    "quickstart-small": ("quickstart", True),
    "contention": ("contention", False),
    "contention-small": ("contention", True),
    "recovery": ("recovery", False),
}


def _digest(payload) -> str:
    return blake2b(json.dumps(payload).encode(), digest_size=16).hexdigest()


def run_digests(label: str) -> dict[str, str]:
    """``<label>/{trace,metrics,audit}`` -> digest, for one traced run."""
    scenario, small = RUNS[label]
    session = run_trace_scenario(scenario, small=small).session
    return {
        f"{label}/trace": _digest(
            chrome_trace_events(session.events, session.core_names())
        ),
        f"{label}/metrics": _digest(session.metrics.snapshot().to_dict()),
        f"{label}/audit": _digest(session.auditor.summary()),
    }


@pytest.mark.parametrize("label", sorted(RUNS))
def test_trace_exports_match_pinned_digests(label):
    expected = {
        key: value
        for key, value in json.loads(DIGESTS.read_text()).items()
        if key.startswith(f"{label}/")
    }
    assert expected, f"no pinned trace digests for {label}"
    actual = run_digests(label)
    assert sorted(actual) == sorted(expected)
    mismatched = sorted(key for key in expected if actual[key] != expected[key])
    assert not mismatched, f"exported views changed: {mismatched}"


def pin() -> None:
    digests = {}
    for label in RUNS:
        digests.update(run_digests(label))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} trace digests in {DIGESTS}")


if __name__ == "__main__":
    pin()

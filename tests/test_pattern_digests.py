"""Pinned digests of every pattern set the scenario matrix produces.

The oracle for pattern extraction (activation log -> packed
``PatternSet``).  The Section IV-C matrix is simulated once, with the
plain and with the cache-wrapped forwarding routine, and every active
core's log goes through all the builders: FWD, FWD in temporal order
(the transition-delay input), HDCU and ICU.  Each resulting pattern set
is reduced to one blake2b digest of its canonical form and compared
against ``pattern_digests.json``.  A change to extraction alone must
reproduce these digests bit for bit.

The same simulation is also the simulator's timing oracle: for every
active core, ``timing_digests.json`` pins the signature and mailbox, the
cycle and IF/MEM/hazard stall counters, the scenario's total cycles and
a digest of the whole activation log (every record in order, fields by
name, enums as ints).  A change to the simulator's speed alone must
reproduce these bit for bit.

Regenerate the pinned files only in a change meant to alter simulated
results (timing or the activation logs themselves)::

    PYTHONPATH=src python tests/test_pattern_digests.py
"""

from __future__ import annotations

import enum
import json
from dataclasses import fields
from hashlib import blake2b
from pathlib import Path

import pytest

from repro.core.determinism import default_scenarios, run_scenario
from repro.faults import (
    forwarding_pattern_sets,
    get_modules,
    hdcu_pattern_sets,
    icu_pattern_set,
)
from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS, forwarding_builders
from repro.stl import RoutineContext
from repro.stl.routines import make_forwarding_routine

DIGESTS = Path(__file__).with_name("pattern_digests.json")
TIMING = Path(__file__).with_name("timing_digests.json")


def plain_builders():
    """Full-size forwarding routine per core, without the cache wrapper."""
    return {
        core: make_forwarding_routine(model, with_pcs=False).builder_for(
            RoutineContext.for_core(core, model)
        )
        for core, model in DEFAULT_CAMPAIGN_MODELS.items()
    }


BUILDERS = {"plain": plain_builders, "cached": forwarding_builders}

KINDS = {
    "FWD": lambda log, modules: forwarding_pattern_sets(log, modules),
    "FWD-ordered": lambda log, modules: forwarding_pattern_sets(
        log, modules, ordered=True
    ),
    "HDCU": hdcu_pattern_sets,
    "ICU": lambda log, modules: {"icu": icu_pattern_set(log, modules)},
}


def pattern_digest(patterns) -> str:
    """Digest of ``num_patterns`` and the sorted input/observability maps."""
    digest = blake2b(digest_size=16)
    digest.update(f"n={patterns.num_patterns}".encode())
    for tag, packed in (
        ("i", patterns.inputs),
        ("o", patterns.output_observability),
    ):
        for net, value in sorted(packed.items()):
            digest.update(f";{tag}{net}={value:x}".encode())
    return digest.hexdigest()


def port_name(port) -> str:
    return port if isinstance(port, str) else f"s{port[0]}o{port[1]}"


def simulate_matrix() -> dict[tuple[str, str], object]:
    """(builders, scenario label) -> ScenarioResult."""
    runs = {}
    for name, make in BUILDERS.items():
        builders = make()
        for scenario in default_scenarios():
            runs[name, scenario.label] = run_scenario(builders, scenario)
    return runs


def logs_of(runs) -> dict[tuple[str, str, int], object]:
    """(builders, scenario label, core) -> activation log."""
    return {
        (name, label, core): core_result.log
        for (name, label), result in runs.items()
        for core, core_result in result.per_core.items()
    }


def log_digest(log) -> str:
    """Digest of every activation record in order: fields by name,
    enums as ints (independent of the record classes' implementation)."""
    digest = blake2b(digest_size=16)
    for kind, records in (
        ("fwd", log.forwarding),
        ("hdcu", log.hdcu),
        ("icu", log.icu),
    ):
        digest.update(f"#{kind}={len(records)}".encode())
        for record in records:
            parts = []
            for f in fields(record):
                value = getattr(record, f.name)
                if isinstance(value, enum.Enum):
                    value = int(value)
                parts.append(f"{f.name}={value!r}")
            digest.update(("|" + ",".join(parts)).encode())
    return digest.hexdigest()


def timing_of(runs) -> dict[str, dict]:
    """``builders/scenario/coreN`` -> the core's timing and log digest."""
    timing = {}
    for (name, label), result in runs.items():
        for core, run in result.per_core.items():
            timing[f"{name}/{label}/core{core}"] = {
                "signature": run.signature,
                "mailbox": run.mailbox,
                "cycles": run.cycles,
                "if_stalls": run.if_stalls,
                "mem_stalls": run.mem_stalls,
                "hazard_stalls": run.hazard_stalls,
                "total_cycles": result.total_cycles,
                "log": log_digest(run.log),
            }
    return timing


def digests_of(logs, kind: str) -> dict[str, str]:
    build = KINDS[kind]
    digests = {}
    for (name, label, core), log in logs.items():
        modules = get_modules(DEFAULT_CAMPAIGN_MODELS[core])
        for port, patterns in build(log, modules).items():
            key = f"{name}/{label}/core{core}/{kind}/{port_name(port)}"
            digests[key] = pattern_digest(patterns)
    return digests


@pytest.fixture(scope="module")
def matrix_runs():
    return simulate_matrix()


@pytest.fixture(scope="module")
def matrix_logs(matrix_runs):
    return logs_of(matrix_runs)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("builders", sorted(BUILDERS))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_pattern_sets_match_pinned_digests(matrix_logs, pinned, builders, kind):
    logs = {key: log for key, log in matrix_logs.items() if key[0] == builders}
    prefix = f"{builders}/"
    expected = {
        key: value
        for key, value in pinned.items()
        if key.startswith(prefix) and key.split("/")[3] == kind
    }
    assert expected, f"no pinned digests for {builders} {kind}"
    actual = digests_of(logs, kind)
    assert sorted(actual) == sorted(expected)
    mismatched = sorted(key for key in expected if actual[key] != expected[key])
    assert not mismatched, f"{len(mismatched)} pattern sets changed: {mismatched[:5]}"


@pytest.mark.parametrize("builders", sorted(BUILDERS))
def test_timing_matches_pinned_digests(matrix_runs, builders):
    runs = {key: run for key, run in matrix_runs.items() if key[0] == builders}
    prefix = f"{builders}/"
    expected = {
        key: value
        for key, value in json.loads(TIMING.read_text()).items()
        if key.startswith(prefix)
    }
    assert expected, f"no pinned timing for {builders}"
    actual = timing_of(runs)
    assert sorted(actual) == sorted(expected)
    mismatched = sorted(key for key in expected if actual[key] != expected[key])
    assert not mismatched, (
        f"{len(mismatched)} core runs changed timing: {mismatched[:5]}"
    )


def pin() -> None:
    runs = simulate_matrix()
    logs = logs_of(runs)
    digests = {}
    for kind in KINDS:
        digests.update(digests_of(logs, kind))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} pattern-set digests in {DIGESTS}")
    timing = timing_of(runs)
    TIMING.write_text(json.dumps(timing, indent=1, sort_keys=True) + "\n")
    print(f"pinned timing of {len(timing)} core runs in {TIMING}")


if __name__ == "__main__":
    pin()

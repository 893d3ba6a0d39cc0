"""Pinned digests of every pattern set the scenario matrix produces.

The oracle for pattern extraction (activation log -> packed
``PatternSet``).  The Section IV-C matrix is simulated once, with the
plain and with the cache-wrapped forwarding routine, and every active
core's log goes through all the builders: FWD, FWD in temporal order
(the transition-delay input), HDCU and ICU.  Each resulting pattern set
is reduced to one blake2b digest of its canonical form and compared
against ``pattern_digests.json``.  A change to extraction alone must
reproduce these digests bit for bit.

Regenerate the pinned file only in a change meant to alter simulated
results (the activation logs themselves)::

    PYTHONPATH=src python tests/test_pattern_digests.py
"""

from __future__ import annotations

import json
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


def simulate_matrix() -> dict[tuple[str, str, int], object]:
    """(builders, scenario label, core) -> activation log."""
    logs = {}
    for name, make in BUILDERS.items():
        builders = make()
        for scenario in default_scenarios():
            result = run_scenario(builders, scenario)
            for core in scenario.active_cores:
                logs[name, scenario.label, core] = result.per_core[core].log
    return logs


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
def matrix_logs():
    return simulate_matrix()


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


def pin() -> None:
    logs = simulate_matrix()
    digests = {}
    for kind in KINDS:
        digests.update(digests_of(logs, kind))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} pattern-set digests in {DIGESTS}")


if __name__ == "__main__":
    pin()

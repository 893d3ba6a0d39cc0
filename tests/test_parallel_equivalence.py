"""Differential equivalence of the campaign against a plain grading loop.

The campaign's contract is that neither the worker count nor the
caller's scenario order changes a single reported number.  These tests
pin that contract against a test-local reference — a loop of
:func:`grade_scenario` in this process, with no dispatcher and no
checkpoint — comparing coverage dicts, scenario order and the per-core
signatures each scenario records, in process and over real process
pools, for one and several fault lists.
"""

import random

import pytest

from repro.core.determinism import Scenario
from repro.faults import grade_scenario, run_parallel_checkpointed_campaign
from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS, small_provider
from repro.soc import CodeAlignment, CodePosition

SCENARIOS = (
    Scenario((0, 1), CodePosition.LOW, CodeAlignment.QWORD),
    Scenario((0, 1), CodePosition.MID, CodeAlignment.WORD),
    Scenario((0, 1, 2), CodePosition.HIGH, CodeAlignment.DWORD),
)


# ----------------------------------------------------------------------
# Campaign-level equivalence: coverage dicts AND signatures.
# ----------------------------------------------------------------------


def outcome_dicts(outcomes):
    return {label: outcome.to_dict() for label, outcome in outcomes.items()}


def reference(scenarios, modules):
    """Every scenario graded in this process, in the given order."""
    builders = small_provider()()
    return {
        s.label: grade_scenario(builders, s, DEFAULT_CAMPAIGN_MODELS, modules)
        for s in scenarios
    }


@pytest.fixture(scope="module")
def serial_campaign():
    return reference(SCENARIOS, ("FWD",))


@pytest.mark.parametrize("workers,shuffle_seed", [(1, None), (2, 3), (2, 7)])
def test_campaign_equivalence(
    serial_campaign, tmp_path, workers, shuffle_seed
):
    """``shuffle_seed`` permutes the caller's scenario order (None keeps
    it): the shard plan depends on the scenario set alone."""
    scenarios = list(SCENARIOS)
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(scenarios)
    result = run_parallel_checkpointed_campaign(
        small_provider(),
        scenarios,
        DEFAULT_CAMPAIGN_MODELS,
        tmp_path / "parallel",
        modules=("FWD",),
        workers=workers,
    )
    assert list(result.outcomes) == [s.label for s in scenarios]
    assert outcome_dicts(result.outcomes) == outcome_dicts(serial_campaign)
    # Signatures are part of the contract: identical per core, per
    # scenario, whatever the pool geometry.
    for label, outcome in result.outcomes.items():
        assert outcome.signatures == serial_campaign[label].signatures
        assert outcome.signatures  # actually recorded, not vacuous


def test_campaign_preserves_scenario_order(serial_campaign, tmp_path):
    result = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS,
        DEFAULT_CAMPAIGN_MODELS,
        tmp_path / "ordered",
        modules=("FWD",),
        workers=2,
    )
    assert list(result.outcomes) == [s.label for s in SCENARIOS]
    assert list(result.outcomes) == list(serial_campaign)


def test_campaign_multi_module_equivalence(tmp_path):
    """Grading several fault lists at once stays equivalent too."""
    modules = ("FWD", "ICU")
    serial = reference(SCENARIOS[:2], modules)
    parallel = run_parallel_checkpointed_campaign(
        small_provider(),
        SCENARIOS[:2],
        DEFAULT_CAMPAIGN_MODELS,
        tmp_path / "parallel",
        modules=modules,
        workers=2,
    )
    assert outcome_dicts(parallel.outcomes) == outcome_dicts(serial)

"""The mutation registry cannot rot: every entry still applies.

Running the mutants is ``python -m tests.mutants`` (minutes, not
tier-1); this check is instant.  It fails when a refactor moves or
duplicates a mutated snippet, or renames a test an entry names.
"""

import pytest

from tests.mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name.replace(" ", "-"))
def test_mutant_applies_to_exactly_one_snippet(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.old != mutant.new and mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        function = name.partition("[")[0]
        assert f"def {function}(" in (ROOT / path).read_text(), test

"""Mutation registry: every oracle's bite as a re-runnable check.

Each entry names a source file, an exact snippet of it, the snippet's
replacement (a deliberately wrong program) and the tests that must fail
on it.  Run the registry from the repository root with::

    python -m tests.mutants

For each mutant the runner copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, applies the replacement
there, runs only the named tests against that copy and checks that every
one of them fails.  It exits non-zero if any named test passes on its
mutant (the mutant survives the oracle that claims to catch it).  The
repository itself is never written.

``tests/test_mutants.py`` checks that every ``old`` snippet still occurs
exactly once in its file, so a refactor that moves the mutated code
cannot silently blunt an entry.  A new oracle adds its entry here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: Wall-clock ceiling of one mutant's test run, in seconds.
TIMEOUT = 900


class Mutant(NamedTuple):
    """One deliberate bug and the tests that must catch it."""

    name: str
    #: Source file, relative to the repository root.
    path: str
    #: Exact snippet of ``path``; it must occur there exactly once.
    old: str
    new: str
    #: pytest node ids; an id without a parameter suffix counts as
    #: failed when any of its parametrisations fails.
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "compiled propagator ignores observability masks",
        "src/repro/faults/compiled.py",
        "                        acc |= (value ^ good_value) & out_obs\n",
        "                        acc |= value ^ good_value\n",
        (
            "tests/test_compiled_equivalence.py"
            "::test_random_netlists_stuckat_equivalence",
            "tests/test_compiled_equivalence.py"
            "::test_random_netlists_transition_equivalence",
        ),
    ),
    Mutant(
        "DropSet.add records nothing",
        "src/repro/faults/ppsfp.py",
        "        self._ids.add(stable_id)\n",
        "        pass\n",
        (
            "tests/test_atpg.py::test_forwarding_ceiling_matches_pin",
            "tests/test_compiled_equivalence.py"
            "::test_dropping_is_neutral_within_one_call",
            "tests/test_compiled_equivalence.py"
            "::test_sharded_dropping_matches_serial",
        ),
    ),
    Mutant(
        "negative observed net accepted",
        "src/repro/faults/ppsfp.py",
        "        if not 0 <= net < netlist.num_nets:\n",
        "        if net >= netlist.num_nets:\n",
        (
            "tests/test_compiled_equivalence.py"
            "::test_observability_on_unknown_net_rejected",
        ),
    ),
    Mutant(
        "FWD extraction drops the width mask",
        "src/repro/faults/observability.py",
        "            | (c0 & mask) << NUM_SOURCES\n"
        "            | (c1 & mask) << d1\n"
        "            | (c2 & mask) << d2\n"
        "            | (c3 & mask) << d3\n"
        "            | (c4 & mask) << d4\n",
        "            | c0 << NUM_SOURCES\n"
        "            | c1 << d1\n"
        "            | c2 << d2\n"
        "            | c3 << d3\n"
        "            | c4 << d4\n",
        (
            "tests/test_extraction_properties.py"
            "::test_candidates_above_module_width_are_truncated",
            "tests/test_extraction_properties.py::test_random_logs_match_reference",
        ),
    ),
    Mutant(
        "FWD extraction drops the high-word flag of a repeated key",
        "src/repro/faults/observability.py",
        "        elif high or key not in port_rows:\n",
        "        elif key not in port_rows:\n",
        ("tests/test_extraction_properties.py::test_high_word_observability",),
    ),
    Mutant(
        "transition fault launched on the first pattern",
        "src/repro/faults/transition.py",
        "            launch = value & ~previous & mask & ~1\n",
        "            launch = value & ~previous & mask\n",
        ("tests/test_transition_faults.py::test_first_pattern_cannot_launch",),
    ),
    Mutant(
        "compiled kernel rejects dead sites without truncated cones",
        "src/repro/faults/compiled.py",
        "            if truncated and not observable[n]:\n",
        "            if not observable[n]:\n",
        (
            "tests/test_compiled_equivalence.py"
            "::test_random_netlists_stuckat_equivalence",
        ),
    ),
    Mutant(
        "compiled kernel drops side-input narrowing",
        "src/repro/faults/compiled.py",
        "                if kind == _AND or kind == _NAND:\n"
        "                    through &= good[reader_side[n]]\n"
        "                elif kind == _OR or kind == _NOR:\n"
        "                    through &= ~good[reader_side[n]]\n",
        "",
        (
            "tests/test_compiled_equivalence.py"
            "::test_dropping_is_neutral_within_one_call",
            "tests/test_compiled_equivalence.py"
            "::test_engines_record_identical_drop_sets",
            "tests/test_compiled_equivalence.py::test_campaign_engines_agree",
        ),
    ),
    Mutant(
        "compiled kernel treats an observed fanout-free net as traced",
        "src/repro/faults/compiled.py",
        "            if out >= 0 and site_obs is None:\n",
        "            if out >= 0:\n",
        (
            "tests/test_compiled_equivalence.py"
            "::test_random_netlists_transition_equivalence[2]",
            "tests/test_compiled_equivalence.py"
            "::test_random_netlists_transition_equivalence[4]",
            "tests/test_compiled_equivalence.py"
            "::test_random_netlists_transition_equivalence[5]",
        ),
    ),
    Mutant(
        "injected fault skips the wide operand",
        "src/repro/cpu/core.py",
        "            return fault.apply(\n"
        "                slot, operand, Resolution(value, select, True, candidates, valid_mask)\n"
        "            )\n",
        "            return value\n",
        (
            "tests/test_core_c_64bit.py"
            "::test_injected_fault_reaches_the_wide_operand[0-81-0]",
            "tests/test_core_c_64bit.py"
            "::test_injected_fault_reaches_the_wide_operand[32-80-1]",
            "tests/test_core_c_64bit.py"
            "::test_select_fault_reaches_the_wide_operand_without_recording",
        ),
    ),
    Mutant(
        "starved fast path ignores a pending interrupt",
        "src/repro/cpu/core.py",
        "            or self.icu.has_pending\n",
        "",
        ("tests/test_simulator_fast_paths.py::test_fast_path_matches_full_step",),
    ),
    Mutant(
        "starved marker kept across hard_reset",
        "src/repro/cpu/core.py",
        "        self.reset(pc)  # The redirect also clears the starved marker.\n",
        "        starved_on = self.fetch.starved_on\n"
        "        self.reset(pc)\n"
        "        self.fetch.starved_on = starved_on\n",
        (
            "tests/test_simulator_fast_paths.py"
            "::test_fast_path_matches_full_step_across_watchdog_retry",
        ),
    ),
    Mutant(
        "slot-1 load-use check dropped",
        "src/repro/cpu/core.py",
        "            if can_dual_issue(i0, i1) and not view.blocked_register(\n"
        "                i1.source_regs()\n"
        "            ):\n",
        "            if can_dual_issue(i0, i1):\n",
        (
            "tests/test_core_forwarding_paths.py"
            "::test_load_use_splits_a_packet_at_slot_1",
        ),
    ),
    Mutant(
        "parked core not halted",
        "src/repro/cpu/core.py",
        "        self.fetch.redirect(pc)\n        self.halted = True\n",
        "        self.fetch.redirect(pc)\n",
        (
            "tests/test_supervisor.py"
            "::test_hung_routine_is_quarantined_after_the_retry_budget",
            "tests/test_supervisor.py"
            "::test_session_continues_past_a_quarantined_routine",
        ),
    ),
    Mutant(
        "bus retry budget off by one",
        "src/repro/mem/bus.py",
        "        if txn.retries >= RETRY_LIMIT:\n",
        "        if txn.retries > RETRY_LIMIT:\n",
        (
            "tests/test_soft_errors.py::test_retry_exhaustion_raises_bus_error",
            "tests/test_soft_errors.py::test_data_retry_exhaustion_raises_bus_error",
        ),
    ),
    Mutant(
        "failed checkpoint write keeps the new outcome in memory",
        "src/repro/faults/campaign.py",
        "                self.outcomes.pop(outcome.label, None)\n",
        "                pass\n",
        (
            "tests/test_parallel_checkpoint.py"
            "::test_crash_during_checkpoint_save_rolls_back",
        ),
    ),
    Mutant(
        "dispatch sorted by label alone",
        "src/repro/faults/orchestrator.py",
        "    ordered = sorted(scenarios, key=lambda s: "
        "(-len(s.active_cores), s.label))\n",
        "    ordered = sorted(scenarios, key=lambda s: s.label)\n",
        ("tests/test_dispatch_order.py::test_longest_first_is_not_label_order",),
    ),
    Mutant(
        "pool queues every shard",
        "src/repro/faults/orchestrator.py",
        "            ready = [s for s in idle if s.ready_at <= now][: max(room, 0)]\n",
        "            ready = [s for s in idle if s.ready_at <= now]\n",
        (
            "tests/test_orchestrator_chaos.py"
            "::test_slow_shards_never_queue_behind_their_deadline",
        ),
    ),
    Mutant(
        "window frame drops its closing align",
        "src/repro/stl/routine.py",
        "        self.emit_body(asm, replace(ctx, testwin_reg=None))\n"
        "        asm.align()\n",
        "        self.emit_body(asm, replace(ctx, testwin_reg=None))\n",
        ("tests/test_program_images.py::test_program_images_match_pinned_digests",),
    ),
    Mutant(
        "STORE fields swap rs1 and rs2",
        "src/repro/isa/encoding.py",
        '    Format.STORE: (_RS1, _RS2, ("imm", 0, 10, True)),\n',
        '    Format.STORE: (("rs1", 10, 5, False), ("rs2", 15, 5, False),'
        ' ("imm", 0, 10, True)),\n',
        ("tests/test_program_images.py::test_program_images_match_pinned_digests",),
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Apply ``mutant`` to the tree at ``root``."""
    path = root / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(
            f"{mutant.name}: snippet occurs {count} times in {mutant.path}"
        )
    path.write_text(text.replace(mutant.old, mutant.new))


def failed_ids(output: str) -> set[str]:
    """Node ids pytest's ``-rfE`` summary reports as failed or errored."""
    return {
        line.split()[1]
        for line in output.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def caught(test: str, failed: set[str]) -> bool:
    """True when ``test`` (or one of its parametrisations, or the file
    holding it) failed."""
    return any(
        f == test or f.startswith(test + "[") or test.startswith(f + "::")
        for f in failed
    )


def survivors(mutant: Mutant) -> list[str]:
    """The named tests that pass on ``mutant`` (empty: it is caught)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        root = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, root / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", root)
        apply(mutant, root)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-rfE",
             *mutant.tests],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT,
        )
    failed = failed_ids(result.stdout)
    return [test for test in mutant.tests if not caught(test, failed)]


def main() -> int:
    alive = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        passing = survivors(mutant)
        seconds = time.perf_counter() - start
        verdict = "caught" if not passing else "SURVIVED " + ", ".join(passing)
        print(f"{mutant.name}: {verdict} ({seconds:.0f} s)", flush=True)
        alive += bool(passing)
    print(f"{len(MUTANTS) - alive}/{len(MUTANTS)} mutants caught")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())

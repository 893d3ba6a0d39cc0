"""Pinned digests of every program image the program builders emit.

The oracle for the build layer (routine body -> framed ``Program``).
Every routine of ``build_library(model)`` on cores A, B and C is built
in each standalone and wrapped shape:

* single-core (Fig. 2a), without and with an expected signature;
* cache-wrapped (Fig. 2b), write-allocate and no-write-allocate, each
  without and with an expected signature;
* the TCM deployment (driver plus I-TCM body);
* a run-time session, for the routines without performance counters;

plus one static and one dynamic dispatch program per core over the
generic routines.  Each program is reduced to one blake2b digest of its
base address, encoded words, data, symbols and name, and compared
against ``program_digests.json``.  A refactor of the builders must
reproduce these digests bit for bit.

Regenerate the pinned file only in a change meant to alter the emitted
programs::

    PYTHONPATH=src python tests/test_program_images.py
"""

from __future__ import annotations

import json
from hashlib import blake2b
from pathlib import Path

import pytest

from repro.core.cache_wrapper import CacheWrapperOptions, build_cache_wrapped
from repro.core.tcm_wrapper import build_tcm_wrapped
from repro.cpu.core import CORE_MODEL_A, CORE_MODEL_B, CORE_MODEL_C
from repro.soc.loader import CodeAlignment, CodePosition, placement_address
from repro.soc.scheduler import (
    DynamicSchedulerLayout,
    ParallelSchedule,
    build_dispatch_program,
    build_dynamic_dispatch_program,
)
from repro.stl import RoutineContext
from repro.stl.library import build_library
from repro.stl.runtime import build_runtime_session

DIGESTS = Path(__file__).with_name("program_digests.json")

MODELS = {0: CORE_MODEL_A, 1: CORE_MODEL_B, 2: CORE_MODEL_C}

#: The two expected-signature settings: derive-only and checked.
EXPECTED = {"nosig": None, "sig": 0x1234_5678}

WRITE_ALLOCATE = {"wa": True, "nwa": False}


def program_digest(*programs) -> str:
    """Digest of each program's base, encoded words, data, symbols, name."""
    digest = blake2b(digest_size=16)
    for program in programs:
        digest.update(f"@{program.base_address:x}".encode())
        for word in program.encoded_words():
            digest.update(f",{word:x}".encode())
        for address, word in sorted(program.data.items()):
            digest.update(f";d{address:x}={word:x}".encode())
        for label, address in sorted(program.symbols.items()):
            digest.update(f";s{label}={address:x}".encode())
        digest.update(f"#{program.name}".encode())
    return digest.hexdigest()


def core_images(core: int) -> dict[str, str]:
    """``coreN/<routine>/<shape>`` -> digest, for one core."""
    model = MODELS[core]
    library = build_library(model)
    ctx = RoutineContext.for_core(core, model)
    base = placement_address(CodePosition.LOW, CodeAlignment.QWORD, core)
    digests = {}
    for routine in library.routines:
        key = f"core{core}/{routine.name}"
        for tag, expected in EXPECTED.items():
            digests[f"{key}/single/{tag}"] = program_digest(
                routine.build_single_core(base, ctx, expected)
            )
            for wa_tag, write_allocate in WRITE_ALLOCATE.items():
                options = CacheWrapperOptions(write_allocate=write_allocate)
                digests[f"{key}/cache-{wa_tag}/{tag}"] = program_digest(
                    build_cache_wrapped(routine, base, ctx, expected, options)
                )
        tcm = build_tcm_wrapped(routine, base, ctx, EXPECTED["sig"])
        digests[f"{key}/tcm"] = program_digest(tcm.driver, tcm.body)
        if not routine.uses_pcs:
            session = build_runtime_session(
                [(routine, EXPECTED["sig"])], 2, base, ctx
            )
            digests[f"{key}/runtime"] = program_digest(session.program)
    schedule = ParallelSchedule.round_robin({core: library})
    digests[f"core{core}/dispatch"] = program_digest(
        build_dispatch_program(library, schedule.per_core[core], base, ctx)
    )
    layout = DynamicSchedulerLayout(num_routines=len(library.generic_routines))
    digests[f"core{core}/dyndispatch"] = program_digest(
        build_dynamic_dispatch_program(library, base, ctx, layout)
    )
    return digests


def all_images() -> dict[str, str]:
    digests = {}
    for core in MODELS:
        digests.update(core_images(core))
    return digests


@pytest.mark.parametrize("core", sorted(MODELS))
def test_program_images_match_pinned_digests(core):
    prefix = f"core{core}/"
    expected = {
        key: value
        for key, value in json.loads(DIGESTS.read_text()).items()
        if key.startswith(prefix)
    }
    assert expected, f"no pinned program images for core {core}"
    actual = core_images(core)
    assert sorted(actual) == sorted(expected)
    mismatched = sorted(key for key in expected if actual[key] != expected[key])
    assert not mismatched, (
        f"{len(mismatched)} program images changed: {mismatched[:5]}"
    )


def pin() -> None:
    digests = all_images()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} program-image digests in {DIGESTS}")


if __name__ == "__main__":
    pin()

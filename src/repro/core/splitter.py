"""Routine splitting — rule 2.2 of the methodology.

"If the resulting test program is larger than the available cache size,
it must be split into two or more smaller self-test procedures"
(Section III).  The splitter partitions a routine's block emitters
greedily: blocks are appended to the current part until the *wrapped*
program (loading/execution loop included) would no longer fit the
instruction cache (:func:`repro.core.validator.residency_violation`),
then a new part starts.  Splitting never drops a block, so the
union of the parts applies exactly the original pattern set — "it does
not compromise the fault coverage of the original single-core test
procedure".
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.core.cache_wrapper import CacheWrapperOptions, build_cache_wrapped
from repro.core.validator import residency_violation
from repro.errors import RoutineTooLargeError
from repro.mem.cache import CacheConfig
from repro.stl.packets import PhasedBuilder
from repro.stl.routine import RoutineContext, TestRoutine

Emitter = Callable[[PhasedBuilder, RoutineContext], None]


def _compose(
    name: str,
    module: str,
    setup: Emitter | None,
    blocks: Sequence[Emitter],
    teardown: Emitter | None,
    uses_pcs: bool,
) -> TestRoutine:
    def emit_body(asm: PhasedBuilder, ctx: RoutineContext) -> None:
        if setup is not None:
            setup(asm, ctx)
        for block in blocks:
            block(asm, ctx)
        if teardown is not None:
            teardown(asm, ctx)

    return TestRoutine(name=name, module=module, emit_body=emit_body, uses_pcs=uses_pcs)


def split_routine(
    name: str,
    module: str,
    blocks: Sequence[Emitter],
    ctx: RoutineContext,
    icache: CacheConfig,
    setup: Emitter | None = None,
    teardown: Emitter | None = None,
    uses_pcs: bool = False,
    options: CacheWrapperOptions = CacheWrapperOptions(),
) -> list[TestRoutine]:
    """Partition ``blocks`` into cache-sized self-test procedures.

    Returns a single-element list when no split is needed.  Every part
    repeats the ``setup``/``teardown`` emitters (e.g. operand constants
    and performance-counter deltas), exactly like manually splitting an
    STL routine would.
    """
    if not blocks:
        raise ValueError("cannot split an empty block list")
    parts: list[TestRoutine] = []
    current: list[Emitter] = []
    index = 0

    def close_part() -> None:
        nonlocal current
        part_name = f"{name}_part{len(parts)}"
        parts.append(
            _compose(part_name, module, setup, tuple(current), teardown, uses_pcs)
        )
        current = []

    for block in blocks:
        candidate = _compose(
            f"{name}_probe", module, setup, tuple(current) + (block,), teardown, uses_pcs
        )
        # The wrapped size is position-independent, so probing at any base
        # is representative (constant materialisation uses fixed-width
        # sequences for the addresses involved).
        probe = build_cache_wrapped(candidate, 0x1000, ctx, None, options)
        if residency_violation(probe, icache) is not None:
            if not current:
                raise RoutineTooLargeError(
                    f"{name}: block {index} alone exceeds the "
                    f"{icache.size_bytes} B instruction cache"
                )
            close_part()
        current.append(block)
        index += 1
    if current:
        close_part()
    if len(parts) == 1:
        parts[0].name = name
    return parts

"""Fig. 2 — the cache-based strategy's program structure, audited.

Paper (Fig. 2b + Section III): the multi-core version embeds the
unmodified single-core body in a two-iteration loop after invalidating
the caches; the loading loop moves the code into the I-cache without
performing any signature computation; the execution loop then runs
entirely cache-resident and its signature equals the single-core
reference; and the transformation does not alter the routine's memory
footprint.
"""

from repro.analysis import fig2_structure_audit


def test_fig2_structure(benchmark, emit):
    result = benchmark.pedantic(fig2_structure_audit, rounds=1, iterations=1)
    emit(result.render())
    # All line fills happen in the loading loop; the execution loop is
    # fully cache-resident.
    assert result.loading_loop_fills > 0
    assert result.execution_loop_fills == 0
    # Activations outside the test window never count as observable.
    assert result.outside_window_records > 0
    assert result.observable_records > 0
    # Deterministic result: the execution loop reproduces the golden
    # single-core signature exactly.
    assert result.signature_matches_single_core
    # Memory footprint: the wrapper costs a few flash words only.
    assert result.wrapped_size_bytes - result.single_size_bytes < 128

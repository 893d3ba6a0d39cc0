"""End-to-end memory-consistency property test.

Runs randomly generated store/load sequences through the *full* pipeline
(uncached, write-allocate cached and no-write-allocate cached) and
checks every loaded value against a flat reference memory.  This is the
strongest guard against cache/memory-unit bugs: any coherence slip in
the write-back path, the NWA bypass or the fill sequencing shows up as
a wrong loaded value.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import AsmBuilder
from repro.isa.instructions import (
    CACHECFG_DCACHE_EN,
    CACHECFG_WRITE_ALLOCATE,
    Csr,
)
from repro.soc import Soc
from repro.utils.bitops import MASK32

BASE = 0x2000_0000
#: Offsets span several cache lines and sets.
OFFSETS = tuple(range(0, 512, 4))

ops = st.lists(
    st.tuples(
        st.booleans(),  # True = store
        st.sampled_from(OFFSETS),
        st.integers(min_value=0, max_value=MASK32),
    ),
    min_size=1,
    max_size=25,
)

cache_modes = st.sampled_from(
    (0, CACHECFG_DCACHE_EN, CACHECFG_DCACHE_EN | CACHECFG_WRITE_ALLOCATE)
)


@settings(max_examples=40, deadline=None)
@given(ops, cache_modes)
def test_pipeline_memory_matches_reference(operations, cachecfg):
    asm = AsmBuilder(0x100)
    asm.li(1, cachecfg)
    asm.csrw(Csr.CACHECFG, 1)
    asm.li(2, BASE)
    reference: dict[int, int] = {}
    expected_loads = []
    load_count = 0
    for is_store, offset, value in operations:
        if is_store:
            asm.li(3, value)
            asm.sw(3, offset, 2)
            reference[offset] = value
        else:
            asm.lw(4 + load_count % 8, offset, 2)
            expected_loads.append((4 + load_count % 8, reference.get(offset, 0)))
            load_count += 1
            # Fold the loaded value into a running signature so every
            # load is architecturally observable at the end.
            asm.xor(20, 20, 4 + (load_count - 1) % 8)
    asm.halt()
    soc = Soc()
    soc.load(asm.build())
    soc.start_core(0, 0x100)
    soc.run(max_cycles=500_000)
    core = soc.cores[0]
    # The final value of each load register must match the reference
    # (later loads into the same register win).
    final = {}
    for reg, value in expected_loads:
        final[reg] = value
    for reg, value in final.items():
        assert core.regfile.read(reg) == value, (
            f"cachecfg={cachecfg:#x} r{reg}"
        )
    # And the XOR accumulator matches the reference fold.
    acc = 0
    for _, value in expected_loads:
        acc ^= value
    assert core.regfile.read(20) == acc

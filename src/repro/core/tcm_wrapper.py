"""The TCM (scratchpad) execution strategy — Table IV's comparison point.

"Such programs are copied (during the system boot) and then executed
from the instruction TCM" (Section IV-E).  The deployment consists of:

* a **body program** linked at an I-TCM address: test-window open,
  signature init, the unmodified body, and a ``JR`` return;
* the body's encoded words stored in flash as *data*;
* a **driver program** in flash: an unrolled copy loop moving the image
  into the I-TCM, a ``JAL`` into the TCM, then the signature check.

The body bytes stay resident in the I-TCM for the lifetime of the
application — the permanently *reserved* memory that is the strategy's
fundamental drawback, quantified in Table IV against the cache-based
strategy's zero overhead.  Caches stay disabled throughout: avoiding
cache dependence is this strategy's premise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.isa.instructions import Instruction, Mnemonic
from repro.isa.program import Program
from repro.mem.memmap import itcm_base
from repro.soc.soc import Soc
from repro.stl.conventions import LINK_REG
from repro.stl.packets import PhasedBuilder
from repro.stl.routine import RoutineContext, TestRoutine, emit_epilogue

#: Registers used by the copy loop (disjoint from the body's register
#: needs because the body only runs after the copy completes).
_SRC, _DST, _COUNT, _TMP0, _TMP1, _TMP2, _TMP3 = 1, 2, 3, 4, 5, 6, 7
_UNROLL = 4


@dataclass(frozen=True)
class TcmDeployment:
    """Everything needed to run one TCM-based self-test."""

    driver: Program
    body: Program
    #: I-TCM bytes permanently reserved for the test (Table IV metric).
    reserved_tcm_bytes: int
    #: Flash address where the body image is stored as data.
    image_address: int

    def load(self, soc: Soc, core_index: int) -> None:
        """Program the flash image and mark the TCM reservation."""
        soc.load(self.driver)
        soc.cores[core_index].itcm.reserve(self.reserved_tcm_bytes)

    @property
    def entry_point(self) -> int:
        return self.driver.base_address


def build_tcm_body(
    routine: TestRoutine, tcm_address: int, ctx: RoutineContext
) -> Program:
    """The TCM-resident part: prologue + body + return."""
    asm = PhasedBuilder(tcm_address, f"{routine.name}_tcmbody")
    routine.emit_windowed(asm, ctx)
    asm.jr(LINK_REG)
    return asm.build()


def build_tcm_wrapped(
    routine: TestRoutine,
    base_address: int,
    ctx: RoutineContext,
    expected_signature: int | None = None,
    tcm_offset: int = 0x100,
    image_offset: int = 0x2000,
) -> TcmDeployment:
    """Build the full TCM deployment of ``routine`` for one core."""
    tcm_address = itcm_base(ctx.core_index) + tcm_offset
    body = build_tcm_body(routine, tcm_address, ctx)
    core_tcm_size = 16 << 10
    if tcm_offset + body.size_bytes > core_tcm_size:
        raise ValidationError(
            f"{routine.name}: body of {body.size_bytes} B does not fit the "
            f"I-TCM at offset {tcm_offset:#x}"
        )
    image_address = base_address + image_offset
    words = body.encoded_words()
    padded = len(words) + (-len(words)) % _UNROLL

    asm = PhasedBuilder(base_address, f"{routine.name}_tcm")
    asm.li(_SRC, image_address)
    asm.li(_DST, tcm_address)
    asm.li(_COUNT, padded // _UNROLL)
    asm.label("copy_loop")
    for k, tmp in enumerate((_TMP0, _TMP1, _TMP2, _TMP3)):
        asm.lw(tmp, 4 * k, _SRC)
        asm.sw(tmp, 4 * k, _DST)
    asm.addi(_SRC, _SRC, 4 * _UNROLL)
    asm.addi(_DST, _DST, 4 * _UNROLL)
    asm.addi(_COUNT, _COUNT, -1)
    asm.bne(_COUNT, 0, "copy_loop")
    asm.sync()
    # Call into the TCM-resident body; it returns through LINK_REG.
    asm.emit(Instruction(Mnemonic.JAL, imm=tcm_address // 4))
    emit_epilogue(asm, ctx, expected_signature)
    asm.halt()
    driver = asm.build()
    if driver.end_address > image_address:
        raise ValidationError(
            f"{routine.name}: driver code ({driver.size_bytes} B) overruns "
            f"the body image at {image_address:#x}; increase image_offset"
        )
    for i, word in enumerate(words):
        driver.data[image_address + 4 * i] = word
    for i in range(len(words), padded):
        driver.data[image_address + 4 * i] = 0
    return TcmDeployment(
        driver=driver,
        body=body,
        reserved_tcm_bytes=body.size_bytes,
        image_address=image_address,
    )

"""Parallel boot-time STL execution (after Floridia et al., ITC 2019 [13]).

The Table I experiment runs the whole library "in parallel on the
physical microcontroller, with a software structure similar to the one
presented by the authors of [13]": every core walks its own statically
assigned sequence of boot-time routines and halts when the sequence is
done.  The scheduler here builds that per-core dispatch program — one
contiguous flash image per core concatenating its routines' bodies,
with a per-routine signature init so each routine remains individually
checkable.

Static partitioning is the decentralised scheme's degenerate (and most
common) configuration: each core owns a fixed slice of the library, so
no inter-core synchronisation is needed beyond the common release.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import Instruction, Mnemonic
from repro.isa.program import Program
from repro.soc.loader import CodeAlignment, CodePosition, placement_address
from repro.stl.conventions import SIG_REG
from repro.stl.library import SoftwareTestLibrary
from repro.stl.packets import PhasedBuilder
from repro.stl.routine import RoutineContext


@dataclass
class CoreSchedule:
    """The routine sequence assigned to one core."""

    core_id: int
    routine_names: list[str] = field(default_factory=list)


@dataclass
class ParallelSchedule:
    """A full parallel test session: one routine sequence per core."""

    per_core: dict[int, CoreSchedule] = field(default_factory=dict)

    @classmethod
    def round_robin(
        cls, libraries: dict[int, SoftwareTestLibrary], repeat: int = 1
    ) -> "ParallelSchedule":
        """Assign every generic routine of each core's library, in
        library order, ``repeat`` times."""
        schedule = cls()
        for core_id, library in libraries.items():
            names = [r.name for r in library.generic_routines] * repeat
            schedule.per_core[core_id] = CoreSchedule(core_id, names)
        return schedule


def build_dispatch_program(
    library: SoftwareTestLibrary,
    schedule: CoreSchedule,
    base_address: int,
    ctx: RoutineContext,
) -> Program:
    """Concatenate a core's assigned routines into one boot-time program.

    Each routine gets its own signature seed and test window, exactly as
    if the dispatcher called it; the core halts after the last one.
    """
    asm = PhasedBuilder(base_address, f"dispatch_core{schedule.core_id}")
    for name in schedule.routine_names:
        library.get(name).emit_windowed(asm, ctx)
    asm.halt()
    return asm.build()


def dispatch_builders(
    libraries: dict[int, SoftwareTestLibrary],
    schedule: ParallelSchedule,
    contexts: dict[int, RoutineContext],
):
    """Relocatable per-core dispatch builders for the campaign runner."""
    builders = {}
    for core_id, core_schedule in schedule.per_core.items():
        library = libraries[core_id]
        ctx = contexts[core_id]

        def build(base, library=library, core_schedule=core_schedule, ctx=ctx):
            return build_dispatch_program(library, core_schedule, base, ctx)

        builders[core_id] = build
    return builders


@dataclass(frozen=True)
class DynamicSchedulerLayout:
    """SRAM control block of the decentralised dynamic scheduler.

    One shared lock word and a shared next-routine counter implement the
    run-once claiming of [13]: whichever core grabs the lock first pulls
    the next routine index; every routine executes exactly once across
    the whole SoC.  Result slots (one word per routine) collect the
    produced signatures.
    """

    control_base: int = 0x200F_0000
    num_routines: int = 0

    @property
    def lock_address(self) -> int:
        return self.control_base

    @property
    def counter_address(self) -> int:
        return self.control_base + 4

    @property
    def results_base(self) -> int:
        return self.control_base + 8

    def result_address(self, index: int) -> int:
        return self.results_base + 4 * index


def build_dynamic_dispatch_program(
    library: SoftwareTestLibrary,
    base_address: int,
    ctx: RoutineContext,
    layout: DynamicSchedulerLayout,
    routine_names: list[str] | None = None,
) -> Program:
    """One core's dynamic dispatcher: claim-execute until the pool drains.

    The dispatcher spins on the TAS lock, atomically claims the next
    routine index from the shared counter, releases the lock, and calls
    its own copy of the claimed routine through a jump table.  The
    routine's signature is stored into the shared result slot, so the
    host can verify that every routine ran exactly once, wherever it
    landed.
    """
    names = routine_names or [r.name for r in library.generic_routines]
    asm = PhasedBuilder(base_address, f"dyndispatch_core{ctx.core_index}")
    scratch_idx = ctx.mailbox_address + 16  # saved claim index (D-TCM)
    asm.j("dispatch_loop")
    # Routine subroutines; each returns through LINK_REG.
    entry_labels = []
    for name in names:
        label = f"rt_{name}"
        entry_labels.append(label)
        asm.align()
        asm.label(label)
        library.get(name).emit_windowed(asm, ctx)
        asm.jr(31)
    asm.label("dispatch_loop")
    # Acquire the pool lock (atomic test-and-set on the shared word).
    asm.label("acquire")
    asm.li(1, layout.lock_address)
    asm.tas(2, 0, 1)
    asm.bne(2, 0, "acquire")
    # Claim the next routine index and release the lock.
    asm.li(3, layout.counter_address)
    asm.lw(4, 0, 3)
    asm.addi(5, 4, 1)
    asm.sw(5, 0, 3)
    asm.sync()
    asm.sw(0, 0, 1)
    asm.li(6, len(names))
    asm.branch_far(Mnemonic.BGE, 4, 6, "drained")
    # Save the claimed index across the routine call (registers are
    # clobbered by the body, like a context switch).
    asm.li(7, scratch_idx)
    asm.sw(4, 0, 7)
    # Jump-table call into the claimed routine.  The table address is
    # only known after build (it follows the code), so a placeholder
    # LUI/ORI pair is emitted and patched afterwards.
    asm.slli(8, 4, 2)
    asm.emit(Instruction(Mnemonic.LUI, rd=9, imm=0))
    asm.emit(Instruction(Mnemonic.ORI, rd=9, rs1=9, imm=0))
    asm.add(9, 9, 8)
    asm.lw(10, 0, 9)
    asm.li_address(31, "dispatch_ret")
    asm.jr(10)
    asm.label("dispatch_ret")
    # Publish the signature into the shared result slot.
    asm.li(7, scratch_idx)
    asm.lw(4, 0, 7)
    asm.slli(8, 4, 2)
    asm.li(9, layout.results_base)
    asm.add(9, 9, 8)
    asm.sw(SIG_REG, 0, 9)
    asm.sync()
    asm.j("dispatch_loop")
    asm.label("drained")
    asm.halt()
    program = asm.build()
    # The jump table lives in flash right after the code, 16-aligned.
    table_base = (program.end_address + 15) & ~15
    for index, label in enumerate(entry_labels):
        program.data[table_base + 4 * index] = program.symbols[label]
    program.symbols["jump_table"] = table_base
    # Patch the two li_address("jump_table") instructions now that the
    # table address is known: rebuild with the real constant.
    return _patch_address_lis(program, "jump_table", table_base)


def _patch_address_lis(program: Program, label: str, address: int) -> Program:
    """Fix up placeholder LUI/ORI pairs (imm 0) with the final address."""
    placeholder_hits = []
    for index in range(len(program.code) - 1):
        first, second = program.code[index], program.code[index + 1]
        if (
            first.mnemonic is Mnemonic.LUI
            and first.imm == 0
            and second.mnemonic is Mnemonic.ORI
            and second.rs1 == first.rd
            and second.rd == first.rd
            and second.imm == 0
        ):
            placeholder_hits.append(index)
    for index in placeholder_hits:
        rd = program.code[index].rd
        program.code[index] = Instruction(Mnemonic.LUI, rd=rd, imm=address >> 12)
        program.code[index + 1] = Instruction(
            Mnemonic.ORI, rd=rd, rs1=rd, imm=address & 0xFFF
        )
    return program


def load_parallel_session(
    soc,
    libraries: dict[int, SoftwareTestLibrary],
    schedule: ParallelSchedule,
) -> dict[int, int]:
    """Load one dispatch program per scheduled core, each at its core's
    low-flash, qword-aligned copy; return entry points."""
    entries = {}
    for core_id, core_schedule in schedule.per_core.items():
        ctx = RoutineContext.for_core(core_id, soc.cores[core_id].model)
        base = placement_address(CodePosition.LOW, CodeAlignment.QWORD, core_id)
        program = build_dispatch_program(
            libraries[core_id], core_schedule, base, ctx
        )
        soc.load(program)
        entries[core_id] = program.base_address
    return entries

"""Static validation of the methodology's code rules (Section III.2).

Rule 2.1 — no conditional branch may yield a different execution flow
between the loading and the execution loop, except branches that fire
*because of a fault* (the signature check) and the wrapper's own loop
back-edge.  Rule 2.2 — the whole multi-core version must fit the
instruction cache; otherwise it must be split.

The validator works on the built program, so it sees exactly what will
be fetched: branch targets, jump targets, code footprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import Format, Mnemonic
from repro.isa.program import Program
from repro.mem.cache import CacheConfig

#: Label prefixes of branches that are allowed to diverge: the wrapper
#: loop back-edge and fault-intentional checks.
ALLOWED_BRANCH_PREFIXES = ("wrapper_loop", "copy_loop", "__sig_", "__far_")


@dataclass
class ValidationReport:
    """Outcome of validating one program against one cache geometry."""

    program_name: str
    code_bytes: int
    cache_bytes: int
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else "VIOLATIONS"
        lines = [
            f"{self.program_name}: {status} "
            f"({self.code_bytes} B of {self.cache_bytes} B I-cache)"
        ]
        lines.extend(f"  violation: {v}" for v in self.violations)
        lines.extend(f"  warning:   {w}" for w in self.warnings)
        return "\n".join(lines)


def residency_violation(program: Program, icache: CacheConfig) -> str | None:
    """Rule 2.2: why ``program`` cannot stay resident in ``icache``, or None.

    The one fit test: the validator reports its verdict and the splitter
    closes a part on it.
    """
    if program.size_bytes > icache.size_bytes:
        return (
            f"code ({program.size_bytes} B) exceeds the instruction cache "
            f"({icache.size_bytes} B); split the routine (rule 2.2)"
        )
    return None


def validate_cache_residency(
    program: Program, icache: CacheConfig
) -> ValidationReport:
    """Check rules 2.1 and 2.2 for a cache-wrapped program."""
    report = ValidationReport(
        program_name=program.name,
        code_bytes=program.size_bytes,
        cache_bytes=icache.size_bytes,
    )
    violation = residency_violation(program, icache)
    if violation is not None:
        report.violations.append(violation)
    _check_branches(program, report)
    _check_jump_targets(program, report)
    return report


def _check_branches(program: Program, report: ValidationReport) -> None:
    for index, instr in enumerate(program.code):
        if instr.spec.format is not Format.BRANCH:
            continue
        label = instr.label or ""
        if any(label.startswith(prefix) for prefix in ALLOWED_BRANCH_PREFIXES):
            continue
        report.warnings.append(
            f"conditional branch at {program.address_of(index):#010x} "
            f"({instr}) may alter the execution flow between iterations "
            "(rule 2.1); acceptable only if both legs stay cache-resident "
            "and the condition is iteration-invariant"
        )


def _check_jump_targets(program: Program, report: ValidationReport) -> None:
    lo, hi = program.base_address, program.end_address
    for index, instr in enumerate(program.code):
        if instr.mnemonic in (Mnemonic.J, Mnemonic.JAL):
            target = 4 * instr.imm
            if not lo <= target < hi:
                report.violations.append(
                    f"jump at {program.address_of(index):#010x} leaves the "
                    f"routine (target {target:#010x}); the execution loop "
                    "would miss in the instruction cache"
                )
        elif instr.mnemonic is Mnemonic.JR:
            report.warnings.append(
                f"register-indirect jump at {program.address_of(index):#010x}; "
                "residency cannot be checked statically"
            )

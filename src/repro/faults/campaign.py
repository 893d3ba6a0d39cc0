"""Fault-coverage campaigns: activation logs in, coverage figures out.

Mirrors the authors' flow (Section IV-C): "Each of these logic
simulations was then fault simulated" — every scenario run is graded
independently against the same per-core fault list, and the spread of
the resulting coverages across scenarios is the paper's
deterministic-vs-fluctuating evidence.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path

from repro.cpu.core import CoreModel
from repro.cpu.recording import ActivationLog
from repro.errors import CheckpointCorruptionWarning, CheckpointError, ReproError
from repro.faults.generators import get_modules
from repro.faults.observability import (
    forwarding_pattern_sets,
    hdcu_pattern_sets,
    icu_pattern_set,
)
from repro.faults.ppsfp import fault_simulate
from repro.faults.transition import (
    enumerate_transition_faults,
    transition_fault_simulate,
)


@dataclass(frozen=True)
class ModuleCoverage:
    """Fault coverage of one module for one run."""

    module: str
    core_model: str
    total_faults: int
    detected_faults: int

    @property
    def coverage_percent(self) -> float:
        if self.total_faults == 0:
            return 0.0
        return 100.0 * self.detected_faults / self.total_faults

    def to_dict(self) -> dict:
        return {
            "module": self.module,
            "core_model": self.core_model,
            "total_faults": self.total_faults,
            "detected_faults": self.detected_faults,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleCoverage":
        return cls(
            module=data["module"],
            core_model=data["core_model"],
            total_faults=data["total_faults"],
            detected_faults=data["detected_faults"],
        )


#: Module labels a campaign can grade: the keys of a checkpoint's
#: ``modules``, the ``faultsim --modules`` choices and the ``module``
#: argument of :func:`module_coverage`.
COVERAGE_GRADERS = ("FWD", "HDCU", "ICU", "FWD-TDF")


def grading_items(module: str, log: ActivationLog, model: CoreModel):
    """Yield ``(netlist, patterns, faults)`` for every port of one module.

    ``patterns`` is None where the run left the port nothing to grade:
    no pattern set, or fewer patterns than the fault model needs (one
    for stuck-at, a launch/capture pair for transition delay).  The
    pattern-set builders and the transition-fault enumerator are looked
    up on this module when called, so a caller can patch them here.
    """
    modules = get_modules(model)
    if module == "FWD":
        sets = forwarding_pattern_sets(log, modules)
        ports = [
            (modules.forwarding[port], sets.get(port), faults)
            for port, faults in modules.forwarding_faults.items()
        ]
    elif module == "HDCU":
        sets = hdcu_pattern_sets(log, modules)
        ports = [
            (modules.hdcu[port], sets.get(port), faults)
            for port, faults in modules.hdcu_faults.items()
        ]
    elif module == "ICU":
        ports = [(modules.icu, icu_pattern_set(log, modules), modules.icu_faults)]
    elif module == "FWD-TDF":
        # Ordered sets: a delay fault needs its launch and capture to be
        # consecutive applied vectors, which multi-core fetch gaps
        # destroy — the paper's conclusion expects the determinism
        # problem to be "further emphasized with delay faults".
        sets = forwarding_pattern_sets(log, modules, ordered=True)
        ports = (
            (netlist, sets.get(port), enumerate_transition_faults(netlist))
            for port, netlist in modules.forwarding.items()
        )
    else:
        raise ValueError(f"unknown coverage module {module!r}")
    needed = 2 if module == "FWD-TDF" else 1
    for netlist, patterns, faults in ports:
        if patterns is not None and patterns.num_patterns < needed:
            patterns = None
        yield netlist, patterns, faults


def module_coverage(
    module: str, log: ActivationLog, model: CoreModel
) -> ModuleCoverage:
    """Grade one module's fault list against one core's activation log.

    ``module`` is one of :data:`COVERAGE_GRADERS`: the stuck-at
    forwarding, HDCU and ICU fault lists, or transition-delay faults on
    the forwarding logic (``"FWD-TDF"``).  Ports without patterns count
    towards the total but are not simulated.  The fault simulators are
    looked up on this module when called, so a caller can patch them.
    """
    transition = module == "FWD-TDF"
    simulate = transition_fault_simulate if transition else fault_simulate
    total = 0
    detected = 0
    for netlist, patterns, faults in grading_items(module, log, model):
        total += len(faults) if transition else sum(w for _, w in faults)
        if patterns is not None:
            detected += simulate(netlist, patterns, faults).detected_faults
    return ModuleCoverage(
        module=module,
        core_model=model.name,
        total_faults=total,
        detected_faults=detected,
    )


@dataclass(frozen=True)
class CoverageRange:
    """Min/max coverage across a set of runs (Table II's third column)."""

    module: str
    core_model: str
    minimum_percent: float
    maximum_percent: float

    @property
    def spread(self) -> float:
        return self.maximum_percent - self.minimum_percent

    @property
    def stable(self) -> bool:
        return self.spread < 1e-9


def coverage_range(coverages: list[ModuleCoverage]) -> CoverageRange:
    """Summarise per-scenario coverages as a min-max range."""
    if not coverages:
        raise ValueError("no coverages to summarise")
    values = [c.coverage_percent for c in coverages]
    return CoverageRange(
        module=coverages[0].module,
        core_model=coverages[0].core_model,
        minimum_percent=min(values),
        maximum_percent=max(values),
    )


# ----------------------------------------------------------------------
# Supervised, checkpointed coverage campaigns.
#
# A long in-field campaign must survive a crashed or hung scenario run:
# each scenario executes once under a cycle deadline (a deterministic
# scenario that fails fails the same way again, so it is never re-run),
# a failure is recorded as the scenario's error outcome instead of
# aborting the sweep, and every finished scenario is recorded in one
# JSON checkpoint so a killed campaign resumes where it left off and
# produces coverage identical to an uninterrupted run.  The campaign
# loop is repro.faults.orchestrator.run_parallel_checkpointed_campaign;
# this module holds its per-scenario grading and its checkpoint.
# ----------------------------------------------------------------------

CHECKPOINT_VERSION = 1

#: Sidecar suffix appended to quarantined (corrupt) checkpoint files.
CORRUPT_SUFFIX = ".corrupt"


def content_digest(data: dict) -> str:
    """Content digest of a checkpoint payload.

    Computed over the canonical JSON of the payload *without* its
    ``digest`` field, so the digest can be embedded in the same file it
    protects.  blake2b/128-bit: collision-resistance against silent
    disk/fs corruption, not an adversary.
    """
    payload = {key: value for key, value in data.items() if key != "digest"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def quarantine_corrupt_file(path: Path, reason: str) -> Path:
    """Move a corrupt file to a ``.corrupt`` sidecar and warn.

    The bytes are preserved for post-mortem (never silently deleted):
    the sidecar is the first free name of ``.corrupt``, ``.corrupt.1``,
    ``.corrupt.2``…, so a later corruption never overwrites an earlier
    one's evidence.  The original path is freed so the campaign can
    start fresh, and the warning makes the silent-restart failure mode
    impossible: a resume that lost state always says why.  Returns the
    sidecar path.
    """
    sidecar = path.with_name(path.name + CORRUPT_SUFFIX)
    copies = 0
    while sidecar.exists():
        copies += 1
        sidecar = path.with_name(f"{path.name}{CORRUPT_SUFFIX}.{copies}")
    os.replace(path, sidecar)
    warnings.warn(
        f"{path} failed its integrity check ({reason}); moved to "
        f"{sidecar.name}; every scenario it held will be graded again",
        CheckpointCorruptionWarning,
        stacklevel=3,
    )
    return sidecar


def verify_payload(path: Path, data: dict) -> str | None:
    """Return a corruption reason for a loaded payload, or None if OK.

    Every checkpoint is written with a digest, so a missing digest is
    corruption, and so is a wrong one — the valid-JSON tamper case that
    no parse error can catch.
    """
    recorded = data.get("digest")
    if recorded is None:
        return "no content digest"
    expected = content_digest(data)
    if recorded != expected:
        return f"digest mismatch (recorded {recorded}, computed {expected})"
    return None


def load_payload(path: Path) -> dict | None:
    """Read, parse and verify one checkpoint file (None if absent).

    Unreadable bytes, invalid JSON, a payload that is not a JSON object
    and a missing or wrong content digest are *corruption*: the file is
    quarantined to a ``.corrupt`` sidecar with a
    :class:`CheckpointCorruptionWarning` and None is returned, so the
    campaign starts afresh while the evidence survives.  A version
    mismatch is an incompatibility, not rot: it raises
    :class:`CheckpointError` naming the file, before the digest is
    checked, since another version's payload is not this one's to judge.
    """
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    # ValueError covers JSONDecodeError and the UnicodeDecodeError that
    # non-UTF-8 garbage raises before the parser even runs.
    except (OSError, ValueError) as exc:
        quarantine_corrupt_file(path, f"unreadable: {exc}")
        return None
    if not isinstance(data, dict):
        reason = f"not a JSON object ({type(data).__name__})"
    elif data.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {data.get('version')!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    else:
        reason = verify_payload(path, data)
    if reason is not None:
        quarantine_corrupt_file(path, reason)
        return None
    return data


def write_json_atomic(path: Path, data) -> None:
    """Durably replace ``path`` with ``data`` as indented JSON.

    The temp name carries the pid so two processes pointed at the same
    path can never tear each other's staging file; fsync-before-rename
    makes the rename a real commit point even if the host dies right
    after, and a failed write leaves no staging file behind.
    """
    tmp = path.with_suffix(f"{path.suffix}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w") as handle:
            handle.write(json.dumps(data, indent=2) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


@dataclass
class ScenarioOutcome:
    """One scenario's graded coverages — or its recorded failure."""

    label: str
    coverages: list[dict] = field(default_factory=list)
    error: str | None = None
    #: Final test signature per active core (JSON keys are strings).
    signatures: dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None

    def module_coverages(self) -> list[ModuleCoverage]:
        return [ModuleCoverage.from_dict(c) for c in self.coverages]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "coverages": self.coverages,
            "error": self.error,
            "signatures": self.signatures,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioOutcome":
        return cls(
            label=data["label"],
            coverages=list(data["coverages"]),
            error=data["error"],
            signatures=dict(data.get("signatures", {})),
        )


class CampaignCheckpoint:
    """JSON checkpoint of a partially-run coverage campaign.

    One file per campaign, owned by the process that runs the campaign
    (pool workers only compute).  It is rewritten atomically (tmp +
    rename) after every scenario, so a kill at any instant leaves either
    the previous or the new consistent state — never a torn file.
    Unknown ``modules`` raise :class:`ValueError`.
    """

    def __init__(self, path: str | Path, modules: tuple[str, ...]):
        unknown = [m for m in modules if m not in COVERAGE_GRADERS]
        if unknown:
            raise ValueError(f"unknown coverage modules {unknown}")
        self.path = Path(path)
        self.modules = tuple(modules)
        self.outcomes: dict[str, ScenarioOutcome] = {}
        data = load_payload(self.path)
        if data is None:
            return
        # A module mismatch is a caller error, never papered over by a
        # silent restart: mixing incompatible campaigns must raise.
        if tuple(data.get("modules", ())) != self.modules:
            raise CheckpointError(
                f"checkpoint {self.path} graded modules "
                f"{data.get('modules')}, this campaign grades "
                f"{list(self.modules)}; refusing to mix them"
            )
        for entry in data.get("scenarios", []):
            outcome = ScenarioOutcome.from_dict(entry)
            self.outcomes[outcome.label] = outcome

    def done(self, label: str) -> bool:
        return label in self.outcomes

    def record(self, outcome: ScenarioOutcome) -> None:
        """Persist one outcome, keeping memory and disk in lock-step.

        If the write fails (disk full, a kill simulated by the crash
        tests) the in-memory map is rolled back, so this checkpoint
        never *claims* a scenario it did not durably record — the
        invariant that stops a resumed campaign from double-counting a
        scenario that both a dead worker and its replacement graded.
        """
        previous = self.outcomes.get(outcome.label)
        self.outcomes[outcome.label] = outcome
        try:
            self.save()
        except BaseException:
            if previous is None:
                self.outcomes.pop(outcome.label, None)
            else:
                self.outcomes[outcome.label] = previous
            raise

    def save(self) -> None:
        data = {
            "version": CHECKPOINT_VERSION,
            "modules": list(self.modules),
            "scenarios": [o.to_dict() for o in self.outcomes.values()],
        }
        data["digest"] = content_digest(data)
        write_json_atomic(self.path, data)


def grade_scenario(
    builders,
    scenario,
    models: dict[int, CoreModel],
    modules: tuple[str, ...],
    soc_config=None,
) -> ScenarioOutcome:
    """Simulate one scenario and grade every active core; no I/O.

    The scenario runs once, under ``run_scenario``'s cycle watchdog; a
    :class:`repro.errors.ReproError` becomes the outcome's ``error``
    instead of propagating.  A scenario is deterministic, so a re-run
    would fail the same way.  ``run_scenario`` and
    :func:`module_coverage`'s kernels are looked up when called, so a
    caller can patch them on their modules.
    """
    # Imported here: repro.core builds on repro.faults results in the
    # analysis layer, so the module-level direction stays faults <- core.
    from repro.core.determinism import run_scenario
    from repro.soc.config import DEFAULT_SOC_CONFIG

    outcome = ScenarioOutcome(label=scenario.label)
    try:
        result = run_scenario(builders, scenario, soc_config or DEFAULT_SOC_CONFIG)
    except ReproError as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome
    outcome.signatures = {
        str(core_id): result.per_core[core_id].signature
        for core_id in scenario.active_cores
    }
    outcome.coverages = [
        {
            "core_id": core_id,
            **module_coverage(
                module, result.per_core[core_id].log, models[core_id]
            ).to_dict(),
        }
        for module in modules
        for core_id in scenario.active_cores
    ]
    return outcome


def coverage_ranges(outcomes) -> dict[tuple[str, int], CoverageRange]:
    """Min-max coverage per ``(module, core_id)`` over scenario outcomes.

    The reducer behind Table II and ``python -m repro faultsim``.  A
    failed outcome carries no coverages, so it adds nothing; a core
    active in no graded scenario has no key.  Keys come back sorted.
    """
    per_key: dict[tuple[str, int], list[ModuleCoverage]] = {}
    for outcome in outcomes:
        for entry in outcome.coverages:
            per_key.setdefault((entry["module"], entry["core_id"]), []).append(
                ModuleCoverage.from_dict(entry)
            )
    return {key: coverage_range(per_key[key]) for key in sorted(per_key)}

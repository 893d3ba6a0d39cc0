"""The benchmark's workloads: set-up, one pass, outcome records.

Every workload is a closed loop driven by one client process: the next
scenario starts only when the previous one finished, as in a self-test
campaign, which is a batch job.

* ``matrix_cached`` -- the 18-scenario Section IV-C matrix, every core
  running the full-size cache-wrapped forwarding routine, FWD/HDCU/ICU
  graded through ``run_parallel_checkpointed_campaign`` with one worker.
  The headline campaign; every layer does work.
* ``matrix_nocache_tdf`` -- the same matrix with the plain routine (no
  wrapper), graded for FWD and FWD-TDF.  Every fetch crosses the
  contended bus, almost every record is observable, and extraction takes
  both the dedup path and the ordered path of the transition kernel.
* ``matrix_sharded`` -- ``matrix_cached`` through the same entry point
  with two workers: the only workload where shard dispatch, pool
  start-up and shard imbalance cost time.

Both the untraced and the traced pass of a campaign workload call the
public entry point.  The traced pass replaces the layer functions the
campaign looks up (see :class:`LayerTrace`) with wrappers that open a
span around each call.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from functools import partial
from hashlib import blake2b
from pathlib import Path

#: Spans that time one layer; traced wall-clock outside them is other.s.
LAYER_SPANS = (
    "build", "simulate", "extract", "extract.ordered", "grade", "grade.tdf",
    "checkpoint", "dispatch",
)


def record_digest(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return blake2b(text.encode(), digest_size=16).hexdigest()


def outcome_digest(records: dict[str, dict]) -> str:
    """One digest over every record, keyed by label (order-free)."""
    return record_digest({label: record_digest(r) for label, r in records.items()})


@dataclass
class Setup:
    seconds: float
    modules_s: float
    compile_s: float
    state: dict


@dataclass
class PassResult:
    records: dict[str, dict]
    soc_cycles: int
    #: The public campaign result, when its shard timings mean dispatch.
    campaign: object = None
    seconds: float = 0.0
    counts: Counter = field(default_factory=Counter)


@contextmanager
def patched(owner, name: str, wrap):
    """Replace ``owner.name`` by ``wrap(original)`` for the block."""
    original = getattr(owner, name)
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


# ----------------------------------------------------------------------
# Campaign workloads.
# ----------------------------------------------------------------------

def plain_forwarding_builders():
    """Per-core builders of the forwarding routine without the wrapper."""
    from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS
    from repro.stl import RoutineContext
    from repro.stl.routines import make_forwarding_routine

    return {
        core: make_forwarding_routine(model, with_pcs=False).builder_for(
            RoutineContext.for_core(core, model)
        )
        for core, model in DEFAULT_CAMPAIGN_MODELS.items()
    }


def sim_record(result) -> dict:
    """Simulated time of one scenario: SoC cycles, per-core cycles/stalls."""
    return {
        "total_cycles": result.total_cycles,
        "cores": {
            str(core): [r.cycles, r.if_stalls, r.mem_stalls, r.hazard_stalls]
            for core, r in sorted(result.per_core.items())
        },
    }


def scenario_record(outcome, sim) -> dict:
    return {
        "error": outcome.error,
        "signatures": outcome.signatures,
        "coverages": outcome.coverages,
        "sim": sim,
    }


class ScenarioProbe:
    """Captures every ``run_scenario`` result's simulated time.

    The public campaign result carries coverages and signatures but not
    cycles or stalls, so the untraced pass wraps ``run_scenario`` (the
    campaign looks it up at call time).  Each process appends one JSON
    line per scenario to its own file, so forked pool workers report
    through the same directory.
    """

    def __init__(self, directory: Path):
        self.directory = directory

    @contextmanager
    def installed(self):
        import repro.core.determinism as determinism

        self.directory.mkdir(parents=True, exist_ok=True)
        directory = self.directory

        def probe(original):
            def probed(builders, scenario, *args, **kwargs):
                result = original(builders, scenario, *args, **kwargs)
                line = json.dumps({"label": scenario.label, **sim_record(result)})
                with open(directory / f"{os.getpid()}.jsonl", "a") as handle:
                    handle.write(line + "\n")
                return result

            return probed

        with patched(determinism, "run_scenario", probe):
            yield self

    def collect(self) -> dict[str, dict]:
        records = {}
        for path in sorted(self.directory.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                entry = json.loads(line)
                records[entry.pop("label")] = entry
        return records


def count_soc(counts: Counter, soc, cores) -> None:
    """Simulated-time counters of one finished SoC run."""
    for core_id in cores:
        core = soc.cores[core_id]
        bus = soc.bus.stats[core_id]
        counts["sim.cycles"] += core.cycles
        counts["simulate.instret"] += core.instret
        counts["sim.if_stalls"] += core.ifstall
        counts["sim.mem_stalls"] += core.memstall
        counts["sim.hazard_stalls"] += core.hazstall
        counts["mem.bus_wait_cycles"] += bus.wait_cycles
        counts["mem.bus_transactions"] += bus.transactions
        counts["icache.hits"] += core.icache.stats.hits
        counts["icache.misses"] += core.icache.stats.misses


def extraction_inputs(log) -> dict[str, int]:
    """Observable inputs each pattern-set builder reads from ``log``."""
    return {
        "forwarding": sum(1 for r in log.forwarding if r.observable),
        "hdcu": sum(1 for r in log.hdcu if r.observable),
        "icu": sum(bin(r.event_vector).count("1") for r in log.icu if r.observable),
    }


class LayerTrace:
    """Span wrappers on the layer functions a campaign calls.

    ``run_checkpointed_campaign`` reaches every layer through a name it
    looks up when it runs: ``run_scenario`` (and, inside it, ``Soc``) on
    ``repro.core.determinism``, the pattern-set builders and fault
    simulators on ``repro.faults.campaign``, and ``CampaignCheckpoint.record``.
    :meth:`installed` replaces each with a wrapper that opens a span around
    the call and reads the layer's counters from its arguments and result,
    so every call into a layer is timed from outside, in the campaign's
    own order.  The builders are timed through :meth:`provider`.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.counts: Counter = Counter()
        self.sims: dict[str, dict] = {}
        self.label: str | None = None
        self._socs: list = []
        self._inputs: dict[int, dict[str, int]] = {}

    def span(self, name: str):
        return self.tracer.span(name, self.label)

    def provider(self, provider):
        """``provider`` with its call and every builder it returns timed."""

        def timed(builder):
            def build(base_address: int):
                with self.span("build"):
                    program = builder(base_address)
                self.counts["build.programs"] += 1
                return program

            return build

        def traced():
            with self.tracer.span("build"):
                builders = provider()
            return {core: timed(builder) for core, builder in builders.items()}

        return traced

    def run_scenario(self, original):
        def traced(builders, scenario, *args, **kwargs):
            self.label = scenario.label
            self._socs.clear()
            with self.span("simulate"):
                result = original(builders, scenario, *args, **kwargs)
            # Read the SoC's counters and drop it, as run_scenario does.
            count_soc(self.counts, self._socs.pop(), scenario.active_cores)
            self._socs.clear()
            self.counts["soc.cycles"] += result.total_cycles
            self._inputs.clear()
            for core in scenario.active_cores:
                log = result.per_core[core].log
                for records in (log.forwarding, log.hdcu, log.icu):
                    self.counts["record.records"] += len(records)
                    self.counts["record.observable"] += sum(
                        1 for r in records if r.observable
                    )
                self._inputs[id(log)] = extraction_inputs(log)
            self.sims[scenario.label] = sim_record(result)
            return result

        return traced

    def extractor(self, original, reads: str):
        """A pattern-set builder; ``ordered=True`` feeds the TDF kernel."""

        def traced(log, modules, *args, **kwargs):
            ordered = kwargs.get("ordered", False)
            with self.span("extract.ordered" if ordered else "extract"):
                patterns = original(log, modules, *args, **kwargs)
            if not ordered:
                sets = patterns.values() if isinstance(patterns, dict) else [patterns]
                self.counts["extract.patterns"] += sum(p.num_patterns for p in sets)
                self.counts["extract.inputs"] += self._inputs[id(log)][reads]
            return patterns

        return traced

    def grader(self, original, name: str):
        def traced(netlist, patterns, faults, *args, **kwargs):
            with self.span(name):
                result = original(netlist, patterns, faults, *args, **kwargs)
            self.counts["grade.faults"] += result.total_faults
            self.counts["grade.detected"] += result.detected_faults
            self.counts["grade.gate_fault_evals"] += len(netlist.gates) * len(faults)
            return result

        return traced

    def timed(self, original, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        return traced

    def checkpoint(self, original):
        def record(checkpoint, outcome):
            with self.tracer.span("checkpoint", outcome.label):
                original(checkpoint, outcome)
            self.counts["checkpoint.writes"] += 1
            self.counts["checkpoint.bytes"] += checkpoint.path.stat().st_size

        return record

    @contextmanager
    def installed(self):
        import repro.core.determinism as determinism
        import repro.faults.campaign as campaign

        socs = self._socs

        def captured(soc_class):
            class CapturedSoc(soc_class):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    socs.append(self)

            return CapturedSoc

        wrappers = (
            (determinism, "Soc", captured),
            (determinism, "run_scenario", self.run_scenario),
            (campaign, "forwarding_pattern_sets", partial(self.extractor, reads="forwarding")),
            (campaign, "hdcu_pattern_sets", partial(self.extractor, reads="hdcu")),
            (campaign, "icu_pattern_set", partial(self.extractor, reads="icu")),
            (campaign, "fault_simulate", partial(self.grader, name="grade")),
            (campaign, "transition_fault_simulate", partial(self.grader, name="grade.tdf")),
            (campaign, "enumerate_transition_faults", partial(self.timed, name="grade.tdf")),
            (campaign.CampaignCheckpoint, "record", self.checkpoint),
        )
        with ExitStack() as stack:
            for owner, name, wrap in wrappers:
                stack.enter_context(patched(owner, name, wrap))
            yield self


class CampaignWorkload:
    def __init__(self, name, modules, wrapped, workers, digest_key=None):
        self.name = name
        self.modules = modules
        self.wrapped = wrapped
        self.workers = workers
        self.digest_key = digest_key or name

    def setup(self) -> Setup:
        start = time.perf_counter()
        from repro.core.determinism import default_scenarios
        from repro.faults.compiled import compiled_for
        from repro.faults.generators import get_modules
        from repro.faults.workload import DEFAULT_CAMPAIGN_MODELS, standard_provider

        imported = time.perf_counter()
        fault_universe = [get_modules(m) for m in DEFAULT_CAMPAIGN_MODELS.values()]
        built = time.perf_counter()
        for core_modules in fault_universe:
            netlists = list(core_modules.forwarding.values())
            if "HDCU" in self.modules:
                netlists += core_modules.hdcu.values()
            if "ICU" in self.modules:
                netlists.append(core_modules.icu)
            for netlist in netlists:
                compiled_for(netlist)
        compiled = time.perf_counter()
        provider = standard_provider() if self.wrapped else partial(
            plain_forwarding_builders
        )
        # The campaign calls the provider once per shard; one call here
        # puts the routine builders' first-use cost into set-up.
        provider()
        state = {
            "provider": provider,
            "models": DEFAULT_CAMPAIGN_MODELS,
            "scenarios": default_scenarios(),
        }
        return Setup(
            time.perf_counter() - start, built - imported, compiled - built, state
        )

    def plan(self, state, seed: int) -> list:
        """Every scenario, in a seed-permuted order."""
        scenarios = list(state["scenarios"])
        random.Random(seed).shuffle(scenarios)
        return scenarios

    def label(self, scenario) -> str:
        return scenario.label

    def pin_plan(self, state) -> list:
        return list(state["scenarios"])

    def campaign(self, state, plan, workdir: Path, provider, workers: int):
        from repro.faults import run_parallel_checkpointed_campaign

        directory = Path(tempfile.mkdtemp(dir=workdir))
        try:
            return run_parallel_checkpointed_campaign(
                provider, plan, state["models"], directory,
                modules=self.modules, workers=workers,
            )
        finally:
            shutil.rmtree(directory)

    def run_pass(self, state, plan, workdir: Path, workers=None) -> PassResult:
        workers = workers or self.workers
        probe = ScenarioProbe(Path(tempfile.mkdtemp(dir=workdir)))
        try:
            with probe.installed():
                campaign = self.campaign(state, plan, workdir, state["provider"], workers)
            sims = probe.collect()
        finally:
            shutil.rmtree(probe.directory)
        records = {
            label: scenario_record(outcome, sims.get(label))
            for label, outcome in campaign.outcomes.items()
        }
        cycles = sum(sim["total_cycles"] for sim in sims.values())
        return PassResult(records, cycles, campaign=campaign if workers > 1 else None)

    def traced_pass(self, state, plan, workdir: Path, tracer) -> PassResult:
        if self.workers > 1:
            # Spans inside pool workers are out of scope: the parent times
            # the dispatch as a whole and reads the shard timings.
            with tracer.span("dispatch"):
                return self.run_pass(state, plan, workdir)
        trace = LayerTrace(tracer)
        with trace.installed():
            campaign = self.campaign(
                state, plan, workdir, trace.provider(state["provider"]), 1
            )
        records = {
            label: scenario_record(outcome, trace.sims.get(label))
            for label, outcome in campaign.outcomes.items()
        }
        return PassResult(records, trace.counts["soc.cycles"], counts=trace.counts)

    def invariants(self, records: dict[str, dict]) -> list[tuple[set, str]]:
        """The paper's claims on one pass: (failing labels, message) pairs."""
        values: dict[tuple, dict] = {}
        for label, record in records.items():
            for core, signature in record["signatures"].items():
                values.setdefault(("signature", int(core)), {})[label] = signature
            for coverage in record["coverages"]:
                key = (coverage["module"], coverage["core_id"])
                values.setdefault(key, {})[label] = coverage["detected_faults"]
        problems = []
        for (what, core), by_label in sorted(values.items()):
            seen = Counter(by_label.values())
            if self.wrapped and len(seen) > 1:
                # Cache-based execution: bit-identical across all
                # scenarios; the scenarios off the common value fail.
                common = seen.most_common(1)[0][0]
                problems.append((
                    {label for label, v in by_label.items() if v != common},
                    f"{what} of core {core} differs across scenarios: {sorted(seen)}",
                ))
            elif not self.wrapped and what == "FWD" and len(seen) < 2:
                # Without the wrapper, FWD coverage oscillates (Table II).
                problems.append((
                    set(by_label),
                    f"FWD coverage of core {core} does not spread across scenarios",
                ))
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        CampaignWorkload("matrix_cached", ("FWD", "HDCU", "ICU"), True, 1),
        CampaignWorkload("matrix_nocache_tdf", ("FWD", "FWD-TDF"), False, 1),
        CampaignWorkload(
            "matrix_sharded", ("FWD", "HDCU", "ICU"), True, 2,
            digest_key="matrix_cached",
        ),
    )
}

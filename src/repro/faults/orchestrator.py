"""The coverage campaign and its one shard-dispatch loop.

:func:`run_parallel_checkpointed_campaign` is the only way to run a
campaign.  It makes every scenario its own shard, longest first, and
hands the shards to one loop, :func:`_supervise`.  A shard grades its
scenario against the full fault lists with
:func:`~repro.faults.campaign.grade_scenario` and does no I/O: the
calling process records every outcome in the campaign's one checkpoint
file.  The loop's dispatch rules:

* shards run **in the calling process** if and only if ``workers == 1``
  and there is no :class:`RetryPolicy`; otherwise they run through a
  process pool (a single-worker pool at ``workers=1`` with a policy, so
  a crashing or hung shard is recoverable rather than fatal);
* **one in-flight rule**: never more shards in flight than the
  capacity — the pool size, or 1 while any unfinished shard is a
  suspect, and then only suspects are dispatched.  No shard waits in
  the executor's queue, so a shard's deadline counts from its dispatch;
* the loop sleeps until the next event — a completion, the earliest
  in-flight deadline or the earliest backoff expiry — never on a poll;
* the policy decides what a shard failure does.  Without one, the first
  shard exception propagates unchanged once the pool is torn down.
  With one, the run is supervised:

  - **Bounded, deterministic retry.**  A failed shard is re-dispatched
    up to ``max_retries`` times behind an exponential-backoff delay
    (:func:`backoff_delay`) whose jitter is blake2b of ``(shard,
    failure)`` — backoff affects only wall-clock, never results.
  - **Pool-death recovery with attribution.**  A
    :class:`~concurrent.futures.process.BrokenProcessPool` condemns
    every in-flight future, so the guilty shard is unknowable.  The
    pool is rebuilt and the suspects re-dispatched **in isolation** (one
    at a time): an innocent shard completes uncharged; a shard that
    breaks the pool again while alone is the culprit and its retry
    budget is charged.
  - **Straggler re-dispatch.**  With a ``shard_timeout``, a shard still
    in flight that long after its dispatch is declared hung: the pool
    is torn down (a running future cannot be cancelled), the straggler
    is charged one failure, and every other in-flight shard is
    re-dispatched uncharged.  A shard is one scenario, so the re-run is
    cheap; determinism makes it invisible.
  - **Graceful degradation.**  More than :data:`MAX_POOL_REBUILDS`
    rebuilds means the host cannot sustain a pool at all — the
    remaining shards run in-process, on the same path an unsupervised
    ``workers=1`` run takes (chaos-style process failures downgrade to
    exceptions there).
  - **Quarantine, not abort.**  A shard that exhausts its budget is
    quarantined; the run completes with the loss *enumerated* — coverage
    becomes an explicit lower bound — or raises
    :class:`~repro.errors.OrchestrationError` when the caller did not
    opt into partial completion.

Every dispatch of every shard, supervised or not, is logged once as a
:class:`ShardAttempt` in the run's :class:`OrchestrationReport`; the
``"ok"`` attempts are the campaign's shard timings.  A supervised run
writes the report next to the campaign's checkpoint.

The headline invariant, enforced by the chaos suite
(``tests/test_orchestrator_chaos.py`` with :mod:`repro.faults.chaos`):
whenever no shard ends quarantined, campaign outcomes and signatures
are **bit-identical** to a clean run — retries, rebuilds and
straggler kills are invisible in the numbers.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from hashlib import blake2b
from pathlib import Path

from repro.errors import CheckpointError, FaultModelError, OrchestrationError
from repro.faults.campaign import (
    CampaignCheckpoint,
    ScenarioOutcome,
    grade_scenario,
    write_json_atomic,
)

__all__ = [
    "CHECKPOINT_NAME",
    "MAX_POOL_REBUILDS",
    "ORCHESTRATION_REPORT_NAME",
    "OrchestrationReport",
    "ParallelCampaignResult",
    "RetryPolicy",
    "ShardAttempt",
    "backoff_delay",
    "resolve_workers",
    "run_parallel_checkpointed_campaign",
]

#: The campaign's one checkpoint file, inside its checkpoint directory.
CHECKPOINT_NAME = "campaign.json"

#: Report filename, written next to the campaign's checkpoint.
ORCHESTRATION_REPORT_NAME = "orchestration_report.json"

#: Backoff shape: failure *k* waits ``BACKOFF_BASE * BACKOFF_FACTOR**(k-1)``
#: seconds times ``1 + jitter``, capped at ``BACKOFF_MAX``.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 30.0

#: Pool rebuilds a supervised run survives; one more degrades it to
#: in-process serial execution.
MAX_POOL_REBUILDS = 3


def resolve_workers(requested: int | None) -> int:
    """Clamp a worker count to the host's CPUs (None = all of them).

    A process pool wider than ``os.cpu_count()`` cannot run faster —
    the extra processes only time-slice the same cores and add fork,
    pickle and scheduler overhead, which is how a 2-worker run on a
    single-CPU host ends up *slower* than serial.  ``python -m repro
    faultsim`` resolves its worker count through this helper so
    oversubscription never happens by default; callers that really want
    it can still pass an explicit ``workers`` to
    :func:`run_parallel_checkpointed_campaign`, which does not clamp.
    """
    cpus = max(1, os.cpu_count() or 1)
    if requested is None:
        return cpus
    if requested < 1:
        raise FaultModelError(f"workers must be >= 1, got {requested}")
    return min(requested, cpus)


# ----------------------------------------------------------------------
# Policy: how hard to try, and for exactly how long.
# ----------------------------------------------------------------------

def backoff_delay(shard_index: int, failure: int) -> float:
    """Deterministic delay before re-running a shard after failure ``failure``.

    ``jitter`` in [0, 1) is blake2b of ``(shard, failure)``: fully
    deterministic, de-synchronised across shards, and free of wall-clock
    randomness in anything a result depends on.
    """
    if failure < 1:
        return 0.0
    digest = blake2b(
        f"{shard_index}:{failure}".encode("utf-8"), digest_size=8
    ).digest()
    jitter = int.from_bytes(digest, "big") / 2**64
    raw = BACKOFF_BASE * BACKOFF_FACTOR ** (failure - 1)
    return min(raw * (1.0 + jitter), BACKOFF_MAX)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/deadline budget of one supervised run.

    ``max_retries`` is per shard: a shard may run ``max_retries + 1``
    times before quarantine, each re-run behind :func:`backoff_delay`.
    ``shard_timeout`` (seconds from dispatch, None = no deadline) arms
    straggler detection; ``allow_partial`` turns quarantine from an
    :class:`~repro.errors.OrchestrationError` into a
    :class:`ParallelCampaignResult` with an explicit quarantine roster.
    """

    max_retries: int = 2
    shard_timeout: float | None = None
    allow_partial: bool = False

    def __post_init__(self):
        if self.max_retries < 0:
            raise FaultModelError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise FaultModelError(
                f"shard_timeout must be positive, got {self.shard_timeout}"
            )


# ----------------------------------------------------------------------
# Reporting: every dispatch the loop made, machine-readable.
# ----------------------------------------------------------------------

@dataclass
class ShardAttempt:
    """One dispatch of one shard, how it ended and how long it took.

    ``seconds`` runs from dispatch until this process saw the result, so
    the ``"ok"`` attempts are the campaign's per-shard wall-clock.
    """

    shard: int
    label: str
    attempt: int
    #: "ok" | "error" | "pool-broken" | "timeout"
    status: str
    error: str | None = None
    seconds: float = 0.0
    #: Backoff scheduled before the *next* attempt (0.0 if none).
    backoff: float = 0.0
    in_process: bool = False


@dataclass
class OrchestrationReport:
    """Structured record of a run's dispatches and control decisions.

    A supervised run saves it as JSON next to the campaign checkpoint.
    ``stable_dict`` strips the wall-clock fields so chaos tests can
    assert that the *decision sequence* (attempts, statuses, backoffs,
    quarantine roster) is deterministic even though timings are not.
    """

    num_shards: int
    workers: int
    attempts: list[ShardAttempt] = field(default_factory=list)
    quarantined: list[int] = field(default_factory=list)
    pool_rebuilds: int = 0
    policy: dict = field(default_factory=dict)

    @property
    def retried_shards(self) -> list[int]:
        return sorted({a.shard for a in self.attempts if a.status != "ok"})

    @property
    def stragglers(self) -> int:
        return sum(a.status == "timeout" for a in self.attempts)

    @property
    def degraded_serial(self) -> bool:
        return self.pool_rebuilds > MAX_POOL_REBUILDS

    def to_dict(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "workers": self.workers,
            "attempts": [asdict(a) for a in self.attempts],
            "quarantined": list(self.quarantined),
            "pool_rebuilds": self.pool_rebuilds,
            "stragglers": self.stragglers,
            "degraded_serial": self.degraded_serial,
            "policy": dict(self.policy),
        }

    def stable_dict(self) -> dict:
        """The deterministic projection of the decision sequence.

        Drops wall-clock fields and sorts attempts by (shard, attempt):
        pool scheduling perturbs *completion order* (hence append
        order), but each shard's own attempt sequence — how many times
        it ran, with what status, behind what backoff — is a pure
        function of the chaos policy and the retry policy.  Two runs
        under the same policies must produce equal stable dicts.
        """
        data = self.to_dict()
        for attempt in data["attempts"]:
            attempt.pop("seconds", None)
        data["attempts"].sort(key=lambda a: (a["shard"], a["attempt"]))
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "OrchestrationReport":
        return cls(
            num_shards=data["num_shards"],
            workers=data["workers"],
            attempts=[ShardAttempt(**a) for a in data["attempts"]],
            quarantined=list(data["quarantined"]),
            pool_rebuilds=data["pool_rebuilds"],
            policy=dict(data["policy"]),
        )

    def save(self, path: str | Path) -> None:
        write_json_atomic(Path(path), self.to_dict())


@dataclass
class ParallelCampaignResult:
    """A campaign's outcomes and shard-level accounting.

    ``outcomes`` covers exactly the scenarios whose shards completed, in
    the caller's scenario order;
    ``quarantined_labels`` enumerates the rest (only a supervised run
    under ``allow_partial`` can have any), so coverage computed from
    this result is an explicit *lower bound* over an explicit
    denominator — never a silently shrunken campaign.  ``report`` is
    the run's :class:`OrchestrationReport`, its one record of every
    dispatch.
    """

    outcomes: dict[str, ScenarioOutcome]
    report: OrchestrationReport
    #: Shard indices actually executed this run (resume skips the rest).
    scheduled: tuple[int, ...] = ()
    quarantined_labels: tuple[str, ...] = ()

    @property
    def num_shards(self) -> int:
        return self.report.num_shards

    @property
    def quarantined_shards(self) -> tuple[int, ...]:
        return tuple(self.report.quarantined)

    @property
    def shard_timings(self) -> list[ShardAttempt]:
        """The ``"ok"`` attempts of this run, in dispatch (shard) order."""
        ok = [a for a in self.report.attempts if a.status == "ok"]
        return sorted(ok, key=lambda a: a.shard)

    @property
    def complete(self) -> bool:
        return not self.report.quarantined


# ----------------------------------------------------------------------
# The shard body: what one dispatched shard runs, in a worker or inline.
# ----------------------------------------------------------------------

def _campaign_shard_worker(spec: dict) -> ScenarioOutcome:
    """Grade one shard's scenario.

    Rebuilds the program builders from the provider, then grades the
    scenario.  It writes nothing: the dispatching process records the
    outcome.
    """
    chaos = spec["chaos"]
    if chaos is not None:
        chaos.fire(spec["index"], spec["attempt"], in_process=spec["in_process"])
    return grade_scenario(
        spec["provider"](),
        spec["scenario"],
        spec["models"],
        spec["modules"],
        soc_config=spec["soc_config"],
    )


# ----------------------------------------------------------------------
# The dispatch loop itself.
# ----------------------------------------------------------------------

def _pool_context():
    """Prefer fork (cheap, inherits loaded modules) where available."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return multiprocessing.get_context()


class _ShardState:
    __slots__ = (
        "index", "label", "failures", "done", "quarantined", "ready_at",
        "suspect",
    )

    def __init__(self, index: int, label: str):
        self.index = index
        self.label = label
        self.failures = 0
        self.done = False
        self.quarantined = False
        #: monotonic() before which this shard must not be dispatched.
        self.ready_at = 0.0
        #: True after an unattributed pool break: run isolated next.
        self.suspect = False


def _supervise(
    labels: dict[int, str],
    spec_for,
    workers: int,
    policy: RetryPolicy | None,
    report: OrchestrationReport,
    on_complete,
) -> None:
    """Run every shard in ``labels`` (index -> label) to done or quarantine.

    ``spec_for(index, attempt, in_process)`` is the picklable work order
    of one shard attempt; this loop runs it through the pool, or in this
    process — the whole run when ``workers == 1`` and ``policy`` is
    None, and the supervised run's degraded endgame.  Every attempt is
    logged in ``report``; ``on_complete(index, outcome)`` receives each
    shard's outcome exactly once.  Without a policy the first shard
    exception propagates unchanged (after the pool is torn down).  The
    caller returns outcomes in its own scenario order, so completion
    order — the one thing chaos *does* perturb — never reaches a result.
    """
    states = [_ShardState(index, labels[index]) for index in sorted(labels)]
    if not states:
        return
    capacity = min(workers, len(states))
    pool: ProcessPoolExecutor | None = None
    #: Future -> (state, attempt, monotonic() at dispatch)
    in_flight: dict = {}
    #: Shards run in this process: the unsupervised workers=1 path from
    #: the start, or a supervised run degraded after too many rebuilds.
    serial = policy is None and workers == 1
    timeout = policy.shard_timeout if policy is not None else None

    def flying():
        return [state for state, _, _ in in_flight.values()]

    def new_pool():
        nonlocal pool
        pool = ProcessPoolExecutor(
            max_workers=capacity, mp_context=_pool_context()
        )

    def kill_pool():
        nonlocal pool
        if pool is None:
            return
        # Running futures cannot be cancelled and a hung worker never
        # returns, so reclamation is forcible: drop queued work, then
        # terminate the worker processes outright.  Workers hold no
        # durable state (this process records each outcome once its
        # future resolves), so a terminated worker loses at most
        # in-progress, re-runnable work.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already dead
                pass
        pool = None

    def restart_pool(suspects):
        """Abandon everything in flight, marking ``suspects`` for
        isolated re-runs, and rebuild the pool — or degrade to serial."""
        nonlocal serial
        for state in suspects:
            state.suspect = True
        in_flight.clear()
        kill_pool()
        report.pool_rebuilds += 1
        if report.degraded_serial:
            serial = True
        else:
            new_pool()

    def record_success(state, attempt, seconds, outcome, in_process=False):
        report.attempts.append(
            ShardAttempt(
                shard=state.index,
                label=state.label,
                attempt=attempt,
                status="ok",
                seconds=seconds,
                in_process=in_process,
            )
        )
        state.done = True
        state.suspect = False
        on_complete(state.index, outcome)

    def record_failure(state, status, error, seconds, in_process=False):
        state.failures += 1
        attempt = ShardAttempt(
            shard=state.index,
            label=state.label,
            attempt=state.failures,
            status=status,
            error=error,
            seconds=seconds,
            in_process=in_process,
        )
        report.attempts.append(attempt)
        if state.failures > policy.max_retries:
            state.quarantined = True
            report.quarantined.append(state.index)
            return
        attempt.backoff = backoff_delay(state.index, state.failures)
        state.ready_at = time.monotonic() + attempt.backoff

    def try_submit(state) -> bool:
        attempt = state.failures + 1
        try:
            future = pool.submit(
                _campaign_shard_worker, spec_for(state.index, attempt, False)
            )
        except Exception:
            if policy is None:
                raise
            # The pool died between our last look and this submit; the
            # guilty party is someone already in flight, not this shard.
            restart_pool(flying() + [state])
            return False
        in_flight[future] = (state, attempt, time.monotonic())
        return True

    def run_serial():
        # In-process: no pool to break, no deadline to enforce (a
        # blocking call cannot be preempted from within); a supervised
        # run keeps its retry/backoff/quarantine semantics and chaos
        # downgrades process misbehaviour to raised exceptions.
        for state in states:
            while not state.done and not state.quarantined:
                delay = state.ready_at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                attempt = state.failures + 1
                start = time.perf_counter()
                try:
                    outcome = _campaign_shard_worker(
                        spec_for(state.index, attempt, True)
                    )
                except Exception as exc:
                    if policy is None:
                        raise
                    record_failure(
                        state,
                        "error",
                        f"{type(exc).__name__}: {exc}",
                        time.perf_counter() - start,
                        in_process=True,
                    )
                else:
                    record_success(
                        state, attempt, time.perf_counter() - start, outcome,
                        in_process=True,
                    )

    if not serial:
        new_pool()
    try:
        while True:
            remaining = [s for s in states if not s.done and not s.quarantined]
            if not remaining:
                break
            if serial:
                run_serial()
                break
            # The in-flight rule: while any shard is a suspect, only
            # suspects run, one at a time, so the next pool break is
            # attributable; otherwise fill the pool, never its queue.
            now = time.monotonic()
            suspects = [s for s in remaining if s.suspect]
            busy = flying()
            idle = [s for s in suspects or remaining if s not in busy]
            room = (1 if suspects else capacity) - len(in_flight)
            ready = [s for s in idle if s.ready_at <= now][: max(room, 0)]
            if not all(try_submit(state) for state in ready):
                continue
            # Sleep until the next event: a completion, the earliest
            # deadline or the earliest backoff expiry.
            events = [s.ready_at for s in idle if s.ready_at > now]
            if timeout is not None:
                events += [sent + timeout for _, _, sent in in_flight.values()]
            delay = max(0.0, min(events) - now) if events else None
            if not in_flight:
                # Everything alive is waiting out a backoff window.
                time.sleep(delay)
                continue
            done, _ = wait(
                set(in_flight), timeout=delay, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()
            broken = False
            for future in done:
                state, attempt, sent = in_flight.pop(future)
                seconds = now - sent
                try:
                    outcome = future.result()
                except BrokenProcessPool as exc:
                    if policy is None:
                        raise
                    if state.suspect:
                        # Alone in the pool: the break is this shard's.
                        record_failure(
                            state,
                            "pool-broken",
                            f"{type(exc).__name__}: {exc}",
                            seconds,
                        )
                        restart_pool(())
                    else:
                        state.suspect = True
                        broken = True
                except Exception as exc:
                    if policy is None:
                        raise
                    # Ordinary failure: the pool survived, so the blame
                    # is precise and the shard is no longer a suspect
                    # for *pool* crimes — but it burned an attempt.
                    record_failure(
                        state,
                        "error",
                        f"{type(exc).__name__}: {exc}",
                        seconds,
                    )
                else:
                    record_success(state, attempt, seconds, outcome)
            if broken:
                # The pool is condemned: everyone still in flight is a
                # suspect (uncharged) and will re-run in isolation.
                restart_pool(flying())
                continue
            # Straggler detection: nothing queues, so a shard's deadline
            # counts from its dispatch.
            overdue = [
                (state, now - sent)
                for state, _, sent in in_flight.values()
                if timeout is not None and now - sent >= timeout
            ]
            if overdue:
                for state, seconds in overdue:
                    record_failure(
                        state,
                        "timeout",
                        f"exceeded {timeout}s shard deadline",
                        seconds,
                    )
                # The only way to stop a running future is to kill
                # its pool; innocents re-dispatch uncharged and
                # unsuspected (the cause is known: not them).
                restart_pool(())
    finally:
        kill_pool()
    report.quarantined.sort()


# ----------------------------------------------------------------------
# The coverage campaign.
# ----------------------------------------------------------------------

def run_parallel_checkpointed_campaign(
    builders_provider,
    scenarios,
    models,
    checkpoint_dir: str | Path,
    modules: tuple[str, ...] = ("FWD",),
    *,
    workers: int = 1,
    soc_config=None,
    on_shard=None,
    policy: RetryPolicy | None = None,
    chaos=None,
) -> ParallelCampaignResult:
    """Simulate and grade every scenario, checkpointing each outcome.

    ``builders_provider`` is a zero-argument callable returning the
    core-id -> program-builder dict; it is invoked once per shard,
    inside the worker.  Over a process pool it must be *picklable* (a
    module-level function or :func:`functools.partial` of one); in this
    process any callable will do.  ``models`` maps core id to its
    :class:`~repro.cpu.core.CoreModel` for grading, ``modules`` names
    the fault lists to grade (keys of
    :data:`~repro.faults.campaign.COVERAGE_GRADERS`) and ``soc_config``
    is the simulated SoC (the default configuration when None).  Every
    scenario is its own shard.  Shards are numbered and dispatched
    longest first: three-core scenarios (one more core to simulate and
    grade) before two-core ones, then by label.

    This process owns the campaign's one checkpoint,
    ``<checkpoint_dir>/campaign.json``, and records each outcome as its
    shard completes; workers only compute.  A resume grades only the
    scenarios whose label the checkpoint lacks, with any worker count
    and any scenario set: a label fully determines its scenario, so a
    recorded outcome is reused wherever its label recurs.  Scenario
    outcomes are deterministic (fresh SoC, no cross-scenario state), so
    the result is bit-identical for every worker count and every caller
    order, and comes back in the caller's order.  A directory holding a
    ``manifest.json`` (the retired one-file-per-shard layout) is
    refused.

    Dispatch follows the module's rules: in this process at
    ``workers=1`` without a policy, over a process pool otherwise.
    ``on_shard(index, outcome)`` fires in this process after each
    shard's outcome is recorded (kill-injection hook).

    Without ``policy`` the first shard exception propagates unchanged;
    every outcome recorded before it stays on disk for the resume.  With
    a :class:`RetryPolicy` shard failures are retried with deterministic
    backoff, a broken pool is rebuilt with isolation-mode blame
    attribution, a hung shard is re-dispatched after ``shard_timeout``,
    and persistent failure quarantines the shard.  The
    :class:`OrchestrationReport` is then written to
    ``<checkpoint_dir>/orchestration_report.json``; quarantined shards
    raise :class:`~repro.errors.OrchestrationError` unless
    ``policy.allow_partial``, in which case the result's quarantine
    roster makes the loss explicit.  ``chaos`` (failure injection for
    tests) requires a policy.
    """
    if policy is None and chaos is not None:
        raise CheckpointError(
            "chaos runs require a RetryPolicy (the supervised path); "
            "an unsupervised campaign has no failure handling to exercise"
        )
    scenarios = tuple(scenarios)
    labels = [scenario.label for scenario in scenarios]
    if len(set(labels)) != len(labels):
        raise CheckpointError("duplicate scenario labels in campaign")
    if workers < 1:
        raise CheckpointError(f"workers must be >= 1, got {workers}")
    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    if (directory / "manifest.json").exists():
        raise CheckpointError(
            f"{directory / 'manifest.json'} belongs to the retired "
            "one-file-per-shard layout; grade into a fresh directory"
        )
    checkpoint = CampaignCheckpoint(directory / CHECKPOINT_NAME, modules)
    ordered = sorted(scenarios, key=lambda s: (-len(s.active_cores), s.label))
    scheduled = tuple(
        index
        for index, scenario in enumerate(ordered)
        if not checkpoint.done(scenario.label)
    )
    report = OrchestrationReport(
        num_shards=len(ordered),
        workers=workers,
        policy=asdict(policy) if policy is not None else {},
    )

    def spec_for(index: int, attempt: int, in_process: bool) -> dict:
        """The picklable work order for one shard attempt."""
        return {
            "index": index,
            "attempt": attempt,
            "in_process": in_process,
            "chaos": chaos,
            "provider": builders_provider,
            "scenario": ordered[index],
            "models": models,
            "modules": tuple(modules),
            "soc_config": soc_config,
        }

    def on_complete(index, outcome):
        checkpoint.record(outcome)
        if on_shard is not None:
            on_shard(index, outcome)

    _supervise(
        {index: ordered[index].label for index in scheduled},
        spec_for,
        workers,
        policy,
        report,
        on_complete,
    )

    quarantined_labels = tuple(
        ordered[index].label for index in report.quarantined
    )
    if policy is not None:
        report.save(directory / ORCHESTRATION_REPORT_NAME)
    if report.quarantined and not policy.allow_partial:
        raise OrchestrationError(
            f"campaign quarantined shard(s) {report.quarantined} "
            f"covering scenarios {list(quarantined_labels)}; report at "
            f"{directory / ORCHESTRATION_REPORT_NAME} "
            "(pass allow_partial=True to accept a partial campaign)"
        )
    missing = [
        label
        for label in labels
        if not checkpoint.done(label) and label not in quarantined_labels
    ]
    if missing:
        raise CheckpointError(
            f"campaign finished with unaccounted scenarios {missing[:5]}"
        )
    return ParallelCampaignResult(
        outcomes={
            label: checkpoint.outcomes[label]
            for label in labels
            if checkpoint.done(label)
        },
        report=report,
        scheduled=scheduled,
        quarantined_labels=quarantined_labels,
    )

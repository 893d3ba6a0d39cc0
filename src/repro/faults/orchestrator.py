"""The coverage campaign and its one shard-dispatch loop.

:func:`run_parallel_checkpointed_campaign` is the only way to run a
campaign.  It makes every scenario its own shard, longest first, and
hands the shards to one loop, :func:`_supervise`.  A shard grades its
scenario against the full fault lists with
:func:`~repro.faults.campaign.grade_scenario` and does no I/O: the
calling process records every outcome in the campaign's one checkpoint
file.  The loop's dispatch rule:

* shards run **in the calling process** if and only if ``workers == 1``
  and there is no :class:`RetryPolicy`; otherwise they run through a
  process pool (a single-worker pool at ``workers=1`` with a policy, so
  a crashing or hung shard is recoverable rather than fatal);
* the policy decides what a shard failure does.  Without one, the first
  shard exception propagates unchanged once the pool is torn down.
  With one, the run is supervised:

  - **Bounded, deterministic retry.**  A failed shard is re-dispatched
    up to ``max_retries`` times behind an exponential-backoff delay
    whose jitter is *seeded* (blake2b of ``(seed, shard, failure)``) —
    the schedule is a pure function, and backoff affects only
    wall-clock, never results.
  - **Pool-death recovery with attribution.**  A
    :class:`~concurrent.futures.process.BrokenProcessPool` condemns
    every in-flight future, so the guilty shard is unknowable.  The
    pool is rebuilt and the suspects re-dispatched **in isolation** (one
    at a time): an innocent shard completes uncharged; a shard that
    breaks the pool again while alone is the culprit and its retry
    budget is charged.
  - **Straggler re-dispatch.**  With a ``shard_timeout``, a shard
    running past its deadline is declared hung: the pool is torn down
    (a running future cannot be cancelled), the straggler is charged
    one failure, and every other in-flight shard is re-dispatched
    uncharged.  A shard is one scenario, so the re-run is cheap;
    determinism makes it invisible.
  - **Graceful degradation.**  More than ``max_pool_rebuilds`` rebuilds
    means the host cannot sustain a pool at all — the remaining shards
    run in-process, on the same path an unsupervised ``workers=1`` run
    takes (chaos-style process failures downgrade to exceptions there).
  - **Quarantine, not abort.**  A shard that exhausts its budget is
    quarantined; the run completes with the loss *enumerated* — coverage
    becomes an explicit lower bound — or raises
    :class:`~repro.errors.OrchestrationError` when the caller did not
    opt into partial completion.

Every supervised decision is recorded once, in the structured
:class:`OrchestrationReport` that lands next to the campaign's
checkpoint; it and the :class:`ParallelCampaignResult` are the run's
only record.

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
from dataclasses import dataclass, field
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
    "ORCHESTRATION_REPORT_NAME",
    "OrchestrationReport",
    "ParallelCampaignResult",
    "RetryPolicy",
    "ShardAttempt",
    "ShardTiming",
    "resolve_workers",
    "run_parallel_checkpointed_campaign",
]

#: The campaign's one checkpoint file, inside its checkpoint directory.
CHECKPOINT_NAME = "campaign.json"

#: Report filename, written next to the campaign's checkpoint.
ORCHESTRATION_REPORT_NAME = "orchestration_report.json"


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

@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/deadline budget of one supervised run.

    ``max_retries`` is per shard: a shard may run ``max_retries + 1``
    times before quarantine.  The backoff before failure *k*'s re-run is
    ``min(base * factor**(k-1) * (1 + jitter), backoff_max)`` with
    ``jitter`` in [0, 1) derived from blake2b of ``(seed, shard, k)`` —
    fully deterministic, de-synchronised across shards, and free of
    wall-clock randomness in anything a result depends on.

    ``shard_timeout`` (seconds of *running* time, None = no deadline)
    arms straggler detection; ``max_pool_rebuilds`` bounds pool
    resurrection before degrading to in-process serial execution;
    ``allow_partial`` turns quarantine from an
    :class:`~repro.errors.OrchestrationError` into a
    :class:`ParallelCampaignResult` with an explicit quarantine roster.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    seed: int = 0
    shard_timeout: float | None = None
    poll_interval: float = 0.05
    max_pool_rebuilds: int = 3
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

    def backoff_delay(self, shard_index: int, failure: int) -> float:
        """Deterministic delay before re-running after failure ``failure``."""
        if failure < 1 or self.backoff_base <= 0.0:
            return 0.0
        digest = blake2b(
            f"{self.seed}:{shard_index}:{failure}".encode("utf-8"),
            digest_size=8,
        ).digest()
        jitter = int.from_bytes(digest, "big") / 2**64
        raw = self.backoff_base * self.backoff_factor ** (failure - 1)
        return min(raw * (1.0 + jitter), self.backoff_max)

    def backoff_schedule(self, shard_index: int) -> list[float]:
        """The full per-shard delay schedule (one entry per retry)."""
        return [
            self.backoff_delay(shard_index, failure)
            for failure in range(1, self.max_retries + 1)
        ]

    def to_dict(self) -> dict:
        return {
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max": self.backoff_max,
            "seed": self.seed,
            "shard_timeout": self.shard_timeout,
            "max_pool_rebuilds": self.max_pool_rebuilds,
            "allow_partial": self.allow_partial,
        }


# ----------------------------------------------------------------------
# Reporting: every decision the orchestrator made, machine-readable.
# ----------------------------------------------------------------------

@dataclass
class ShardAttempt:
    """One dispatch of one shard and how it ended."""

    shard: int
    attempt: int
    #: "ok" | "error" | "pool-broken" | "timeout"
    status: str
    error: str | None = None
    seconds: float = 0.0
    #: Backoff scheduled before the *next* attempt (0.0 if none).
    backoff: float = 0.0
    in_process: bool = False

    def to_dict(self) -> dict:
        return {
            "shard": self.shard,
            "attempt": self.attempt,
            "status": self.status,
            "error": self.error,
            "seconds": self.seconds,
            "backoff": self.backoff,
            "in_process": self.in_process,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardAttempt":
        return cls(**data)


@dataclass
class OrchestrationReport:
    """Structured record of a supervised run's control decisions.

    Saved as JSON next to the campaign checkpoint.  ``stable_dict``
    strips the wall-clock fields so chaos tests can assert that the
    *decision sequence* (attempts, statuses, backoff schedule,
    quarantine roster) is deterministic even though timings are not.
    """

    num_shards: int
    workers: int
    attempts: list[ShardAttempt] = field(default_factory=list)
    quarantined: list[int] = field(default_factory=list)
    pool_rebuilds: int = 0
    stragglers: int = 0
    degraded_serial: bool = False
    policy: dict = field(default_factory=dict)
    #: shard index -> the deterministic backoff schedule it drew from.
    backoff: dict[int, list[float]] = field(default_factory=dict)

    @property
    def retried_shards(self) -> list[int]:
        return sorted({a.shard for a in self.attempts if a.status != "ok"})

    def to_dict(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "workers": self.workers,
            "attempts": [a.to_dict() for a in self.attempts],
            "quarantined": list(self.quarantined),
            "pool_rebuilds": self.pool_rebuilds,
            "stragglers": self.stragglers,
            "degraded_serial": self.degraded_serial,
            "policy": dict(self.policy),
            "backoff": {str(k): v for k, v in sorted(self.backoff.items())},
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
            attempts=[ShardAttempt.from_dict(a) for a in data["attempts"]],
            quarantined=list(data["quarantined"]),
            pool_rebuilds=data["pool_rebuilds"],
            stragglers=data["stragglers"],
            degraded_serial=data["degraded_serial"],
            policy=dict(data["policy"]),
            backoff={int(k): list(v) for k, v in data.get("backoff", {}).items()},
        )

    def save(self, path: str | Path) -> None:
        write_json_atomic(Path(path), self.to_dict())


@dataclass(frozen=True)
class ShardTiming:
    """Wall-clock of one completed shard and the scenario it graded."""

    index: int
    label: str
    seconds: float


@dataclass
class ParallelCampaignResult:
    """A campaign's outcomes and shard-level accounting.

    ``outcomes`` covers exactly the scenarios whose shards completed, in
    the caller's scenario order;
    ``quarantined_labels`` enumerates the rest (only a supervised run
    under ``allow_partial`` can have any), so coverage computed from
    this result is an explicit *lower bound* over an explicit
    denominator — never a silently shrunken campaign.  ``report`` is
    the supervised run's :class:`OrchestrationReport` (None without a
    policy).
    """

    outcomes: dict[str, ScenarioOutcome]
    shard_timings: list[ShardTiming] = field(default_factory=list)
    num_shards: int = 1
    #: Shard indices actually executed this run (resume skips the rest).
    scheduled: tuple[int, ...] = ()
    quarantined_shards: tuple[int, ...] = ()
    quarantined_labels: tuple[str, ...] = ()
    report: OrchestrationReport | None = None

    @property
    def complete(self) -> bool:
        return not self.quarantined_shards


# ----------------------------------------------------------------------
# The shard body: what one dispatched shard runs, in a worker or inline.
# ----------------------------------------------------------------------

def _campaign_shard_worker(spec: dict):
    """Grade one shard's scenario: ``(outcome, seconds)``.

    Rebuilds the program builders from the provider, then grades the
    scenario.  It writes nothing: the dispatching process records the
    outcome.
    """
    start = time.perf_counter()
    chaos = spec["chaos"]
    if chaos is not None:
        chaos.fire(spec["index"], spec["attempt"], in_process=spec["in_process"])
    outcome = grade_scenario(
        spec["provider"](),
        spec["scenario"],
        spec["models"],
        spec["modules"],
        soc_config=spec["soc_config"],
    )
    return outcome, time.perf_counter() - start


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
    __slots__ = ("index", "failures", "done", "quarantined", "ready_at", "suspect")

    def __init__(self, index: int):
        self.index = index
        self.failures = 0
        self.done = False
        self.quarantined = False
        #: monotonic() before which this shard must not be dispatched.
        self.ready_at = 0.0
        #: True after an unattributed pool break: run isolated next.
        self.suspect = False


def _supervise(
    indices,
    spec_for,
    workers: int,
    policy: RetryPolicy | None,
    report: OrchestrationReport,
    on_complete,
) -> None:
    """Run every shard in ``indices`` to done (or quarantined).

    ``spec_for(index, attempt, in_process)`` is the picklable work order
    of one shard attempt; this loop runs it through the pool, or in this
    process — the whole run when ``workers == 1`` and ``policy`` is
    None, and the supervised run's degraded endgame.
    ``on_complete(index, outcome, seconds)`` receives each shard's
    result exactly once.  Without a policy the first shard exception
    propagates unchanged (after the pool is torn down).  The caller
    returns outcomes in its own scenario order, so completion order —
    the one thing chaos *does* perturb — never reaches a result.
    """
    states = {index: _ShardState(index) for index in indices}
    if not states:
        return
    pool: ProcessPoolExecutor | None = None
    #: Future -> (state, attempt, submitted_at, isolated)
    in_flight: dict = {}
    #: Future -> monotonic() when first observed running (deadline base).
    running_since: dict = {}
    #: Shards run in this process: the unsupervised workers=1 path from
    #: the start, or a supervised run degraded after too many rebuilds.
    serial = policy is None and workers == 1
    timeout = policy.shard_timeout if policy is not None else None

    def incomplete():
        return [
            s for s in states.values() if not s.done and not s.quarantined
        ]

    def flying():
        return [state for state, _, _, _ in in_flight.values()]

    def new_pool():
        nonlocal pool
        pool = ProcessPoolExecutor(
            max_workers=min(workers, max(1, len(states))),
            mp_context=_pool_context(),
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
        running_since.clear()
        kill_pool()
        report.pool_rebuilds += 1
        if report.pool_rebuilds > policy.max_pool_rebuilds:
            serial = True
            report.degraded_serial = True
        else:
            new_pool()

    def nap(wake, now):
        time.sleep(min(max(0.0, wake - now), max(policy.poll_interval, 0.01)))

    def record_success(state, attempt, seconds, result, in_process=False):
        report.attempts.append(
            ShardAttempt(
                shard=state.index,
                attempt=attempt,
                status="ok",
                seconds=seconds,
                in_process=in_process,
            )
        )
        state.done = True
        state.suspect = False
        on_complete(state.index, *result)

    def record_failure(state, status, error, seconds, in_process=False):
        state.failures += 1
        report.backoff.setdefault(
            state.index, policy.backoff_schedule(state.index)
        )
        attempt = ShardAttempt(
            shard=state.index,
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
        attempt.backoff = policy.backoff_delay(state.index, state.failures)
        state.ready_at = time.monotonic() + attempt.backoff

    def try_submit(state, isolated: bool) -> bool:
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
        in_flight[future] = (state, attempt, time.monotonic(), isolated)
        return True

    def run_serial():
        # In-process: no pool to break, no deadline to enforce (a
        # blocking call cannot be preempted from within); a supervised
        # run keeps its retry/backoff/quarantine semantics and chaos
        # downgrades process misbehaviour to raised exceptions.
        for state in sorted(incomplete(), key=lambda s: s.index):
            while not state.done and not state.quarantined:
                delay = state.ready_at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                attempt = state.failures + 1
                start = time.perf_counter()
                try:
                    result = _campaign_shard_worker(
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
                        state, attempt, time.perf_counter() - start, result,
                        in_process=True,
                    )

    if not serial:
        new_pool()
    try:
        while True:
            remaining = incomplete()
            if not remaining:
                break
            if serial:
                run_serial()
                break
            now = time.monotonic()
            busy = {state.index for state in flying()}
            idle = [s for s in remaining if s.index not in busy]
            if any(s.suspect for s in remaining):
                # Isolation mode: one suspect at a time, nothing else in
                # flight, so the next pool break is attributable.
                if not in_flight:
                    ready = sorted(
                        (s for s in idle if s.suspect and s.ready_at <= now),
                        key=lambda s: s.index,
                    )
                    if ready:
                        if not try_submit(ready[0], isolated=True):
                            continue
                    else:
                        nap(min(s.ready_at for s in idle if s.suspect), now)
                        continue
            else:
                dispatched_ok = True
                for state in sorted(
                    (s for s in idle if s.ready_at <= now),
                    key=lambda s: s.index,
                ):
                    if not try_submit(state, isolated=False):
                        dispatched_ok = False
                        break
                if not dispatched_ok:
                    continue
            if not in_flight:
                # Everything alive is waiting out a backoff window.
                waiting = [s for s in incomplete() if s.ready_at > now]
                if waiting:
                    nap(min(s.ready_at for s in waiting), now)
                continue
            done, _ = wait(
                set(in_flight),
                timeout=policy.poll_interval if policy is not None else None,
                return_when=FIRST_COMPLETED,
            )
            now = time.monotonic()
            broken = False
            for future in done:
                state, attempt, submitted, isolated = in_flight.pop(future)
                seconds = now - running_since.pop(future, submitted)
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    if policy is None:
                        raise
                    if isolated:
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
                    record_success(state, attempt, seconds, result)
            if broken:
                # The pool is condemned: everyone still in flight is a
                # suspect (uncharged) and will re-run in isolation.
                restart_pool(flying())
                continue
            # Straggler detection: deadlines accrue only while the
            # future is actually *running* — a shard queued behind a
            # busy pool is patient, not hung.
            if timeout is not None and in_flight:
                for future in in_flight:
                    if future not in running_since and future.running():
                        running_since[future] = now
                overdue = [
                    (future, state)
                    for future, (state, _, _, _) in in_flight.items()
                    if future in running_since
                    and now - running_since[future] > timeout
                ]
                if overdue:
                    report.stragglers += len(overdue)
                    for future, state in overdue:
                        record_failure(
                            state,
                            "timeout",
                            f"exceeded {timeout}s shard deadline",
                            now - running_since[future],
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

    Dispatch follows the module's rule: in this process at
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
        policy=policy.to_dict() if policy is not None else {},
    )
    timings: list[ShardTiming] = []

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

    def on_complete(index, outcome, seconds):
        checkpoint.record(outcome)
        timings.append(ShardTiming(index, outcome.label, seconds))
        if on_shard is not None:
            on_shard(index, outcome)

    _supervise(scheduled, spec_for, workers, policy, report, on_complete)

    quarantined_shards = tuple(report.quarantined)
    quarantined_labels = tuple(
        ordered[index].label for index in quarantined_shards
    )
    timings.sort(key=lambda t: t.index)
    if policy is not None:
        report.save(directory / ORCHESTRATION_REPORT_NAME)
    if quarantined_shards and not policy.allow_partial:
        raise OrchestrationError(
            f"campaign quarantined shard(s) {list(quarantined_shards)} "
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
        shard_timings=timings,
        num_shards=len(ordered),
        scheduled=scheduled,
        quarantined_shards=quarantined_shards,
        quarantined_labels=quarantined_labels,
        report=report if policy is not None else None,
    )

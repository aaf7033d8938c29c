"""Pre-fork multi-process serving under supervision: crash detection,
warm respawn, and exact work accounting.

The parent builds (and optionally snapshot-warms) the world, then forks
one worker per slot; each inherits the whole warm engine copy-on-write
— plans, check cache, promoted wrappers and all — and runs its
:func:`~repro.concurrency.driver.schedule_slice` of the schedule
against its own engine copy.  Nothing is shared after the fork, so
there is no cross-process locking to validate: what this mode buys is
N cores instead of one, and what a snapshot buys is each worker
skipping the cold-start window.

The parent supervises: it watches the workers, detects crashes and
hangs, respawns replacements forked from its still-warm engine,
reassigns the unfinished remainder of the dead worker's slice, and
gives up only after a bounded retry budget with exponential backoff.
With ``max_retries=0`` this is the fail-fast pre-fork mode:
a dead worker's unfinished slice is abandoned at once, and the death is
also a crash — nothing recovers from it, so the run is void.

**Protocol.**  First attempts wait at a start barrier with the parent,
so the fleet starts serving once every worker is forked and standing at
the line; respawns start at once.  Each worker reports its completed
requests in batches — ``("req", slot, attempt, [(sched_idx, outcome),
...])`` — flushed once ``_REPORT_INTERVAL_S`` has passed since the
last flush (and before every fault hook, so a scripted fault never
loses a report), then a terminal ``("done", slot, attempt,
stats_delta)``.
Batching keeps the supervisor off the workers' CPUs while they serve;
the batches double as heartbeats: a live worker is never silent for
longer than one request or one report interval, so the supervisor
needs no side channel to detect a hang.  A worker that dies
mid-request (``os._exit``, OOM-kill, a poisoned deserializer) just
stops talking; the supervisor notices the dead process, drains whatever
made it through the pipe, and computes the remainder.

**Delivery is at-most-once, and that is sufficient.**  A killed worker
loses the reports it had not flushed yet, so the supervisor may
respawn work that actually completed — the replay re-executes it.
Conversely a message can arrive *after* its worker was declared dead
and its slice reassigned, so the same schedule index can be reported
twice.  Outcomes are deduplicated by schedule index (first
report wins), which is sound because request recipes are deterministic
over disjoint resources: any two executions of the same schedule index
produce the same outcome, and the differential harness asserts exactly
that by replaying every *accepted* outcome against the cache-free
oracle.  If two reports for one index ever disagree, the run records a
crash — that would be a soundness bug, not a delivery artifact.

**Accounting invariant.**  Every scheduled request ends in exactly one
of three buckets::

    scheduled == completed_first + completed_retried + abandoned

``completed_first`` are outcomes accepted from attempt 0,
``completed_retried`` from respawned attempts (these increment the
engine's ``requests_replayed`` counter), and ``abandoned`` is the
remainder left when a slice keeps dying past ``max_retries``.  A
healthy run has ``abandoned == 0`` and the run reports 100% of the
schedule, oracle-identically, even with kill faults injected.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.stats import TRANSITION_FIELDS
from .driver import JOIN_TIMEOUT_S, normalize_outcome, schedule_slice

#: how often the supervisor wakes to check for dead/hung workers when
#: no messages are arriving.
_POLL_INTERVAL_S = 0.05
#: how long a worker may hold completed reports before flushing them.
_REPORT_INTERVAL_S = 0.05
#: how long a worker that reported its own crash may take to exit
#: before it is terminated.
_CRASH_EXIT_GRACE_S = 5.0


def fork_available() -> bool:
    """Whether this platform can pre-fork workers.  The fork backend
    requires the ``fork`` start method: request thunks close over live
    app objects and are deliberately unpicklable, so workers must
    inherit the warm world copy-on-write."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


class _ResultPipe:
    """Worker -> supervisor messages: one pipe, each send made
    synchronously under a cross-process lock.

    A ``multiprocessing.Queue`` sends from a feeder thread that holds
    the queue's cross-process write lock while it writes.  A worker
    killed (``os._exit``, SIGTERM) while that thread writes leaves the
    lock held for good, so every later worker blocks on its first
    report and is declared hung.  Here a send runs in the worker's own
    thread, so an injected kill, which fires between requests, never
    lands inside one."""

    def __init__(self, ctx) -> None:
        self._reader, self._writer = ctx.Pipe(duplex=False)
        self._lock = ctx.Lock()

    def put(self, message) -> None:
        with self._lock:
            self._writer.send(message)

    def get(self, timeout: float):
        """The next message; raises ``queue.Empty`` after ``timeout``
        seconds without one."""
        if not self._reader.poll(timeout):
            raise queue_module.Empty
        return self._reader.recv()


@dataclass
class _WorkerState:
    """Supervisor-side bookkeeping for one worker slot's current
    attempt."""

    slot: int
    attempt: int
    #: schedule indices assigned to this attempt (first attempt: the
    #: full slice; retries: the unfinished remainder).
    indices: List[int]
    process: object
    #: schedule indices this slot has reported (any attempt) — what the
    #: next remainder is computed against.
    received: Set[int] = field(default_factory=set)
    #: last time a message from this slot arrived (heartbeat).
    last_seen: float = 0.0
    finished: bool = False


@dataclass
class SupervisedRun:
    """One supervised execution: accepted outcomes + exact accounting."""

    workers: int
    requests: int
    #: outcomes accepted from first attempts (attempt 0).
    completed_first: int = 0
    #: outcomes accepted from respawned attempts (attempt >= 1) — the
    #: requests that only completed because supervision replayed them.
    completed_retried: int = 0
    #: scheduled requests still unfinished when their slice exhausted
    #: the retry budget (or the run deadline fired).
    abandoned: int = 0
    #: worker respawns performed (mirrors ``stats.workers_restarted``).
    restarts: int = 0
    #: schedule index -> (slot, attempt, outcome tuple), deduplicated
    #: first-report-wins.
    outcomes: Dict[int, Tuple[int, int, tuple]] = field(default_factory=dict)
    #: per slot: TRANSITION_FIELDS deltas summed over that slot's
    #: attempts that sent "done" — how much cold start (checks, misses,
    #: promotions, deopts) each worker actually paid.
    per_worker: List[Dict[str, int]] = field(default_factory=list)
    #: human-readable supervision events (deaths, hangs, respawns,
    #: budget exhaustion) in order.
    restart_log: List[str] = field(default_factory=list)
    abandoned_indices: List[int] = field(default_factory=list)
    #: protocol violations and diagnoses that void the run's guarantees
    #: (garbled messages, outcome-dedup disagreement, deadline hit, and
    #: with ``max_retries=0`` any worker death).
    crashes: List[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.completed_first + self.completed_retried

    def accounting_ok(self) -> bool:
        """The invariant: every scheduled request is in exactly one
        bucket."""
        return (self.requests
                == self.completed_first + self.completed_retried
                + self.abandoned)


class SupervisedDriver:
    """Replay the schedule from ``workers`` forked, supervised processes.

    ``max_retries`` bounds respawns *per slot* (attempt numbers run
    0..max_retries; 0 is the fail-fast mode); ``backoff_base_s`` doubles
    per attempt up to ``backoff_cap_s``; ``hang_timeout_s`` is how long
    a worker may go silent before it is declared hung, terminated, and
    replayed.  ``engine`` (optional) is the engine the thunks run
    against: workers report its TRANSITION_FIELDS deltas, and the
    parent's copy counts restarts and replays.
    """

    def __init__(self, thunks: Sequence[Callable[[], object]], *,
                 workers: int = 4, requests: int = 400,
                 io_wait_s: float = 0.0, engine=None,
                 faults=None,
                 max_retries: int = 2,
                 backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 1.0,
                 hang_timeout_s: float = 5.0) -> None:
        if not thunks:
            raise ValueError("need at least one request thunk")
        if not fork_available():
            raise RuntimeError(
                "the supervised driver requires the 'fork' start method")
        self.thunks = list(thunks)
        self.workers = workers
        self.requests = requests
        self.io_wait_s = io_wait_s
        self.engine = engine
        #: optional :class:`repro.faults.FaultPlan`; in forked workers a
        #: KILL fault calls ``os._exit`` — no cleanup, no flush — so the
        #: parent sees a silent worker with a nonzero exit code.
        self.faults = faults
        self.max_retries = max(0, max_retries)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.hang_timeout_s = hang_timeout_s

    def _stats_probe(self) -> Dict[str, int]:
        if self.engine is None:
            return {}
        stats = self.engine.stats
        return {name: int(getattr(stats, name))
                for name in TRANSITION_FIELDS}

    # -- child ---------------------------------------------------------------

    def _supervised_child(self, slot: int, attempt: int,
                          indices: List[int], result_queue,
                          start_barrier) -> None:
        thunks = self.thunks
        n = len(thunks)
        faults = self.faults
        clock = time.perf_counter
        io_wait = self.io_wait_s
        pending: List[Tuple[int, tuple]] = []
        try:
            before = self._stats_probe()
            if start_barrier is not None:
                start_barrier.wait(JOIN_TIMEOUT_S)
            last_flush = clock()
            for ordinal, sched_idx in enumerate(indices):
                if faults is not None:
                    # KILL faults os._exit here: no cleanup, no flush.
                    # Reporting first keeps a scripted kill's losses
                    # to the request it pre-empts.
                    if pending:
                        result_queue.put(("req", slot, attempt, pending))
                        pending = []
                    faults.on_request(slot, attempt, ordinal,
                                      in_process=True)
                pending.append(
                    (sched_idx, normalize_outcome(thunks[sched_idx % n])))
                if clock() - last_flush >= _REPORT_INTERVAL_S:
                    result_queue.put(("req", slot, attempt, pending))
                    pending = []
                    last_flush = clock()
                if io_wait:
                    time.sleep(io_wait)
            if pending:
                result_queue.put(("req", slot, attempt, pending))
            after = self._stats_probe()
            delta = {name: after[name] - before[name] for name in before}
            result_queue.put(("done", slot, attempt, delta))
        except BaseException:  # noqa: BLE001 - infra failure, not outcome
            # An injected ERROR (or any infrastructure exception) kills
            # this attempt; tell the supervisor rather than making it
            # wait out the hang timeout.  Never an outcome: the request
            # it pre-empted completes on replay.
            try:
                if pending:
                    result_queue.put(("req", slot, attempt, pending))
                result_queue.put(
                    ("crash", slot, attempt, traceback.format_exc()))
            except Exception:  # pragma: no cover - queue already broken
                pass

    # -- parent --------------------------------------------------------------

    def _spawn(self, ctx, result_queue, slot: int, attempt: int,
               indices: List[int], received: Set[int],
               start_barrier=None) -> _WorkerState:
        process = ctx.Process(
            target=self._supervised_child,
            args=(slot, attempt, indices, result_queue, start_barrier),
            daemon=True)
        process.start()
        return _WorkerState(slot=slot, attempt=attempt, indices=indices,
                            process=process, received=received,
                            last_seen=time.perf_counter())

    def _bump_engine(self, name: str, amount: int = 1) -> None:
        if self.engine is not None and amount:
            stats = self.engine.stats
            setattr(stats, name, getattr(stats, name) + amount)

    def run(self) -> SupervisedRun:
        ctx = multiprocessing.get_context("fork")
        result_queue = _ResultPipe(ctx)
        run = SupervisedRun(self.workers, self.requests)
        run.per_worker = [dict.fromkeys(self._stats_probe(), 0)
                          for _ in range(self.workers)]
        # workers + the parent: serving starts when every first
        # attempt is forked, probed, and standing at the line.
        start_barrier = ctx.Barrier(self.workers + 1)
        states: Dict[int, _WorkerState] = {}
        for slot in range(self.workers):
            indices = list(schedule_slice(self.requests, self.workers, slot))
            states[slot] = self._spawn(ctx, result_queue, slot, 0,
                                       indices, set(), start_barrier)
        try:
            start_barrier.wait(JOIN_TIMEOUT_S)
        except threading.BrokenBarrierError:
            # A worker died before the line; the loop below finds it.
            pass
        started = time.perf_counter()
        deadline = started + JOIN_TIMEOUT_S
        for state in states.values():
            state.last_seen = started

        def active() -> List[_WorkerState]:
            return [s for s in states.values() if not s.finished]

        def accept(slot: int, attempt: int, sched_idx: int,
                   outcome: tuple) -> None:
            state = states[slot]
            state.received.add(sched_idx)
            state.last_seen = time.perf_counter()
            prior = run.outcomes.get(sched_idx)
            if prior is not None:
                # Duplicate delivery (late message after reassignment,
                # or a replay of work whose report was lost).  Sound
                # only because outcomes are deterministic — verify.
                if prior[2] != outcome:
                    run.crashes.append(
                        f"outcome disagreement at schedule index "
                        f"{sched_idx}: {prior[2]!r} vs {outcome!r}")
                return
            run.outcomes[sched_idx] = (slot, attempt, outcome)
            if attempt == 0:
                run.completed_first += 1
            else:
                run.completed_retried += 1

        def drain_once(timeout: Optional[float]) -> bool:
            """Process one queue message; False when none arrived."""
            try:
                message = result_queue.get(timeout or 0.0)
            except queue_module.Empty:
                return False
            except Exception as exc:  # noqa: BLE001 - truncated pickle
                # A worker killed mid-put can leave a torn message in
                # the pipe; the request it reported will be replayed.
                run.crashes.append(f"garbled queue message: {exc!r}")
                return True
            kind = message[0]
            if kind == "req":
                _, slot, attempt, batch = message
                for sched_idx, outcome in batch:
                    accept(slot, attempt, sched_idx, outcome)
            elif kind == "done":
                _, slot, attempt, delta = message
                state = states[slot]
                state.last_seen = time.perf_counter()
                totals = run.per_worker[slot]
                for name, value in delta.items():
                    totals[name] += value
                if attempt == state.attempt:
                    state.finished = True
            elif kind == "crash":
                _, slot, attempt, text = message
                state = states[slot]
                state.last_seen = time.perf_counter()
                if attempt == state.attempt and not state.finished:
                    run.restart_log.append(
                        f"slot {slot} attempt {attempt} crashed: "
                        f"{text.strip().splitlines()[-1]}")
                    handle_failure(state, reason="crashed")
            return True

        def handle_failure(state: _WorkerState, *, reason: str) -> None:
            # Retire this attempt immediately: the drain below can
            # surface a "crash" message for this very slot, and the
            # finished flag is what stops it re-entering us.
            state.finished = True
            process = state.process
            if reason == "crashed":
                # It is exiting on its own; a SIGTERM could land before
                # its send released the pipe lock.
                process.join(_CRASH_EXIT_GRACE_S)
            if process.is_alive():
                process.terminate()
            process.join(5.0)
            # Late messages may still be sitting in the pipe; fold them
            # in before computing the remainder so replays are minimal.
            while drain_once(None):
                pass
            remainder = [idx for idx in state.indices
                         if idx not in run.outcomes]
            if not self.max_retries:
                # Fail-fast: nothing recovers a worker, so losing one
                # (even after its last report) voids the run.
                run.crashes.append(
                    f"slot {state.slot} {reason} (exit code "
                    f"{process.exitcode}) before reporting done")
            if not remainder:
                return
            if state.attempt >= self.max_retries:
                run.restart_log.append(
                    f"slot {state.slot} {reason} on attempt "
                    f"{state.attempt} (exit code {process.exitcode}); "
                    f"retry budget exhausted, abandoning "
                    f"{len(remainder)} request(s)")
                run.abandoned += len(remainder)
                run.abandoned_indices.extend(remainder)
                return
            backoff = min(self.backoff_cap_s,
                          self.backoff_base_s * (2 ** state.attempt))
            run.restart_log.append(
                f"slot {state.slot} {reason} on attempt {state.attempt} "
                f"(exit code {process.exitcode}); respawning "
                f"{len(remainder)} request(s) after {backoff:.3f}s")
            if backoff:
                time.sleep(backoff)
            run.restarts += 1
            self._bump_engine("workers_restarted")
            # Forked from the parent's still-warm engine: the respawn
            # starts with every plan/cache/wrapper the parent has.
            states[state.slot] = self._spawn(
                ctx, result_queue, state.slot, state.attempt + 1,
                remainder, state.received)

        while active():
            now = time.perf_counter()
            if now > deadline:
                for state in active():
                    if state.process.is_alive():
                        state.process.terminate()
                        state.process.join(5.0)
                    remainder = [idx for idx in state.indices
                                 if idx not in run.outcomes]
                    run.abandoned += len(remainder)
                    run.abandoned_indices.extend(remainder)
                    state.finished = True
                run.crashes.append(
                    f"supervision deadline ({JOIN_TIMEOUT_S}s) hit")
                break
            if drain_once(_POLL_INTERVAL_S):
                continue
            for state in active():
                if not state.process.is_alive():
                    handle_failure(state, reason="died")
                elif (time.perf_counter() - state.last_seen
                        > self.hang_timeout_s):
                    run.restart_log.append(
                        f"slot {state.slot} attempt {state.attempt} "
                        f"silent for {self.hang_timeout_s}s; declaring "
                        f"hung")
                    handle_failure(state, reason="hung")
        # Stragglers that arrived after their slice finished.
        while drain_once(None):
            pass
        for state in states.values():
            state.process.join(1.0)
        self._bump_engine("requests_replayed", run.completed_retried)
        return run

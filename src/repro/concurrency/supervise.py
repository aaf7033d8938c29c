"""Supervised multi-process serving: crash detection, warm respawn,
and exact work accounting.

:class:`~repro.concurrency.driver.MultiProcessDriver` is the pre-fork
measurement harness — a worker crash simply voids the run.  This module
is the fault-*tolerant* sibling the ROADMAP's production framing calls
for: a parent supervisor that watches forked workers, detects crashes
and hangs, respawns replacements forked from the parent's still-warm
engine (plans, check cache, promoted wrappers — the same copy-on-write
inheritance a snapshot-warmed deploy gets), reassigns the unfinished
remainder of the dead worker's schedule slice, and gives up only after
a bounded retry budget with exponential backoff.

**Protocol.**  Each worker streams one queue message per completed
request — ``("req", slot, attempt, sched_idx, outcome, dt)`` — and a
terminal ``("done", slot, attempt, stats_delta)``.  The per-request
messages double as heartbeats: a live worker is never silent for longer
than one request, so the supervisor needs no side channel to detect a
hang.  A worker that dies mid-request (``os._exit``, OOM-kill, a
poisoned deserializer) just stops talking; the supervisor notices the
dead process, drains whatever made it through the pipe, and computes
the remainder.

**Delivery is at-most-once, and that is sufficient.**  A killed worker
loses the report of the request it was running, so the supervisor may
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
import time
from dataclasses import dataclass, field
from typing import Callable, Counter as CounterType, Dict, List, Optional, Sequence, Set, Tuple
from collections import Counter

from .driver import (
    JOIN_TIMEOUT_S, STATS_DELTA_FIELDS, MultiProcessDriver,
    normalize_outcome,
)

#: how often the supervisor wakes to check for dead/hung workers when
#: no messages are arriving.
_POLL_INTERVAL_S = 0.05
#: how long a worker that reported its own crash may take to exit
#: before it is terminated.
_CRASH_EXIT_GRACE_S = 5.0


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
    elapsed_s: float = 0.0
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
    #: thunk-only latencies of accepted first-attempt outcomes.
    first_samples: List[float] = field(default_factory=list)
    #: thunk-only latencies of accepted replayed outcomes — kept apart
    #: so recovery cost shows up in its own percentile column instead
    #: of silently fattening the steady-state tail.
    replay_samples: List[float] = field(default_factory=list)
    #: STATS_DELTA_FIELDS summed over every attempt that sent "done".
    stats_delta: Dict[str, int] = field(default_factory=dict)
    #: human-readable supervision events (deaths, hangs, respawns,
    #: budget exhaustion) in order.
    restart_log: List[str] = field(default_factory=list)
    abandoned_indices: List[int] = field(default_factory=list)
    #: protocol violations and diagnoses that void the run's guarantees
    #: (garbled messages, outcome-dedup disagreement, deadline hit).
    crashes: List[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.completed_first + self.completed_retried

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.elapsed_s if self.elapsed_s else 0.0

    def accounting_ok(self) -> bool:
        """The invariant: every scheduled request is in exactly one
        bucket."""
        return (self.requests
                == self.completed_first + self.completed_retried
                + self.abandoned)

    def outcome_multiset(self) -> CounterType:
        return Counter(outcome for _, _, outcome in self.outcomes.values())


class SupervisedDriver(MultiProcessDriver):
    """A :class:`MultiProcessDriver` wrapped in a supervision loop.

    The schedule split, fork inheritance, and per-worker stats probes
    are inherited unchanged; what changes is the child protocol (one
    streamed message per request instead of one payload at the end) and
    the parent loop (an event loop that heartbeats workers and respawns
    the dead instead of a drain-then-join).

    ``max_retries`` bounds respawns *per slot* (attempt numbers run
    0..max_retries); ``backoff_base_s`` doubles per attempt up to
    ``backoff_cap_s``; ``hang_timeout_s`` is how long a worker may go
    silent before it is declared hung, terminated, and replayed.
    """

    def __init__(self, thunks: Sequence[Callable[[], object]], *,
                 workers: int = 4, requests: int = 400,
                 io_wait_s: float = 0.0, engine=None,
                 faults=None,
                 max_retries: int = 2,
                 backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 1.0,
                 hang_timeout_s: float = 5.0) -> None:
        super().__init__(thunks, workers=workers, requests=requests,
                         io_wait_s=io_wait_s, engine=engine,
                         faults=faults)
        self.max_retries = max(0, max_retries)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.hang_timeout_s = hang_timeout_s

    # -- child ---------------------------------------------------------------

    def _supervised_child(self, slot: int, attempt: int,
                          indices: List[int], result_queue) -> None:
        thunks = self.thunks
        n = len(thunks)
        faults = self.faults
        clock = time.perf_counter
        io_wait = self.io_wait_s
        try:
            before = self._stats_probe()
            for ordinal, sched_idx in enumerate(indices):
                if faults is not None:
                    # KILL faults os._exit here: no cleanup, no queue
                    # flush — buffered messages are lost, exactly the
                    # at-most-once delivery the supervisor assumes.
                    faults.on_request(slot, attempt, ordinal,
                                      in_process=True)
                started = clock()
                outcome = normalize_outcome(thunks[sched_idx % n])
                dt = clock() - started
                result_queue.put(
                    ("req", slot, attempt, sched_idx, outcome, dt))
                if io_wait:
                    time.sleep(io_wait)
            after = self._stats_probe()
            delta = {name: after[name] - before[name] for name in before}
            result_queue.put(("done", slot, attempt, delta))
        except BaseException:  # noqa: BLE001 - infra failure, not outcome
            # An injected ERROR (or any infrastructure exception) kills
            # this attempt; tell the supervisor rather than making it
            # wait out the hang timeout.  Never an outcome: the request
            # it pre-empted completes on replay.
            import traceback as tb
            try:
                result_queue.put(
                    ("crash", slot, attempt, tb.format_exc()))
            except Exception:  # pragma: no cover - queue already broken
                pass

    # -- parent --------------------------------------------------------------

    def _spawn(self, ctx, result_queue, slot: int, attempt: int,
               indices: List[int], received: Set[int]) -> _WorkerState:
        process = ctx.Process(
            target=self._supervised_child,
            args=(slot, attempt, indices, result_queue), daemon=True)
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
        run.stats_delta = {name: 0 for name in STATS_DELTA_FIELDS}
        states: Dict[int, _WorkerState] = {}
        for slot in range(self.workers):
            states[slot] = self._spawn(ctx, result_queue, slot, 0,
                                       self.schedule_indices(slot), set())
        started = time.perf_counter()
        deadline = started + JOIN_TIMEOUT_S

        def active() -> List[_WorkerState]:
            return [s for s in states.values() if not s.finished]

        def accept(slot: int, attempt: int, sched_idx: int,
                   outcome: tuple, dt: float) -> None:
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
                run.first_samples.append(dt)
            else:
                run.completed_retried += 1
                run.replay_samples.append(dt)

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
                _, slot, attempt, sched_idx, outcome, dt = message
                accept(slot, attempt, sched_idx, outcome, dt)
            elif kind == "done":
                _, slot, attempt, delta = message
                state = states[slot]
                state.last_seen = time.perf_counter()
                for name, value in delta.items():
                    run.stats_delta[name] = (
                        run.stats_delta.get(name, 0) + value)
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
            if not remainder:
                return
            if state.attempt >= self.max_retries:
                run.restart_log.append(
                    f"slot {state.slot} {reason} on attempt "
                    f"{state.attempt}; retry budget exhausted, "
                    f"abandoning {len(remainder)} request(s)")
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
        run.elapsed_s = time.perf_counter() - started
        for state in states.values():
            state.process.join(1.0)
        self._bump_engine("requests_replayed", run.completed_retried)
        return run

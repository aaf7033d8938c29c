"""The multi-threaded request driver.

Models the production shape the ROADMAP aims at: N worker threads pull
requests from a shared schedule and push them through one engine, while
optional *churn* (mutator) threads — one per recipe — perform dev-mode
reload mutations (retype/redefine/reload/typegen) mid-flight.  Workers never take the engine's writer
lock — a request's warm path is lock-free — so aggregate throughput
should scale with threads whenever per-request I/O (database, network,
template writes) dominates, which is exactly the Rails profile the
paper measures.

``io_wait_s`` simulates that per-request I/O with a sleep, which
releases the GIL: it is the stand-in for the time a real request spends
off-CPU.  With it at zero the driver measures pure interpreter
throughput (GIL-bound by construction — useful for overhead and
soundness runs, meaningless for scaling).

Outcomes are recorded per schedule index with :func:`normalize_outcome`
— the same ``("ok", repr) | ("err", type, str)`` shape the differential
cache-soundness harness uses — so a concurrent run can be compared,
index by index, against a cache-free oracle replay of the same schedule
(:func:`repro.serving.run_scenario` does exactly that).  The forked
counterpart is :class:`repro.concurrency.supervise.SupervisedDriver`;
both deal the schedule with :func:`schedule_slice`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple, Union

Churn = Callable[[int], object]

#: a worker either completed every scheduled request or died; joins use
#: a generous timeout so a deadlock fails the run instead of hanging it.
JOIN_TIMEOUT_S = 120.0


def normalize_outcome(thunk: Callable[[], object]) -> tuple:
    """Run ``thunk``; normalize result-or-error exactly like the
    differential harness (the *error identity* is part of the outcome)."""
    try:
        return ("ok", repr(thunk()))
    except Exception as exc:  # noqa: BLE001 - identity is the point
        return ("err", type(exc).__name__, str(exc))


def schedule_slice(requests: int, workers: int, worker: int) -> range:
    """The schedule indices dealt to ``worker`` out of ``requests``
    split over ``workers``: contiguous, sizes differing by at most one,
    every index in exactly one slice.  Both drivers deal this way, so an
    index means the same request (``thunks[index % len(thunks)]``) on
    every backend and in the oracle."""
    per, extra = divmod(requests, workers)
    start = worker * per + min(worker, extra)
    return range(start, start + per + (1 if worker < extra else 0))


@dataclass
class DriverRun:
    """One driver execution: timings, outcomes, and error census."""

    threads: int
    requests: int
    elapsed_s: float
    #: requests that actually completed (== ``requests`` unless a worker
    #: crashed); throughput is computed from this, never the schedule.
    completed: int = 0
    #: scheduled requests a crashed worker never ran: the unfinished
    #: rest of its slice.
    abandoned: int = 0
    #: flat list of (thread index, schedule index, outcome tuple).
    outcomes: List[Tuple[int, int, tuple]] = field(default_factory=list)
    #: how many mutations the churn (mutator) threads applied, summed
    #: across all of them.
    churn_applied: int = 0
    #: exceptions that escaped a *worker loop* (not a request — request
    #: errors are outcomes); always a bug when non-empty.
    crashes: List[str] = field(default_factory=list)


class ConcurrentDriver:
    """Replay ``thunks`` (zero-arg request callables) from worker threads.

    The schedule is round-robin over the thunk list, ``requests`` total,
    dealt to ``threads`` workers; each worker starts at a different
    offset so concurrent traffic mixes request kinds (two threads are
    rarely in the same controller action at once, like real traffic).
    """

    def __init__(self, thunks: Sequence[Callable[[], object]], *,
                 threads: int = 8, requests: int = 400,
                 io_wait_s: float = 0.0,
                 churn: Union[Churn, Sequence[Churn], None] = None,
                 churn_interval_s: float = 0.01,
                 faults=None) -> None:
        if not thunks:
            raise ValueError("need at least one request thunk")
        self.thunks = list(thunks)
        self.threads = threads
        self.requests = requests
        self.io_wait_s = io_wait_s
        #: optional :class:`repro.faults.FaultPlan`; None (production)
        #: keeps every loop on the exact pre-existing code path.  In
        #: threads, a KILL degrades to a raised worker-loop crash (the
        #: process must survive); HANG sleeps; CHURN_DIE kills the
        #: scripted mutator thread mid-wave-sequence.
        self.faults = faults
        # ``churn`` is one mutation recipe or a list of them; each gets a
        # dedicated mutator thread (the serving harness runs dev-mode
        # reloads, schema retypes, and signature churn side by side).
        if churn is None:
            self.churns: List[Churn] = []
        elif callable(churn):
            self.churns = [churn]
        else:
            self.churns = list(churn)
        self.churn_interval_s = churn_interval_s

    def schedule_for(self, worker: int) -> List[Tuple[int, Callable]]:
        """Worker ``worker``'s (schedule index, thunk) list."""
        thunks = self.thunks
        n = len(thunks)
        return [(idx, thunks[idx % n]) for idx in
                schedule_slice(self.requests, self.threads, worker)]

    def run(self) -> DriverRun:
        result = DriverRun(self.threads, self.requests, 0.0)
        outcomes_lock = threading.Lock()
        start_barrier = threading.Barrier(self.threads + 1)
        stop_churn = threading.Event()
        io_wait = self.io_wait_s

        faults = self.faults

        def worker(idx: int) -> None:
            mine: List[Tuple[int, int, tuple]] = []
            done = 0
            schedule = self.schedule_for(idx)
            try:
                start_barrier.wait(timeout=JOIN_TIMEOUT_S)
                for ordinal, (sched_idx, thunk) in enumerate(schedule):
                    if faults is not None:
                        # Fires *before* the request: an injected fault
                        # crashes this worker loop (never becomes an
                        # outcome), so completed counts stay honest.
                        faults.on_request(idx, 0, ordinal,
                                          in_process=False)
                    outcome = normalize_outcome(thunk)
                    done += 1
                    if io_wait:
                        time.sleep(io_wait)
                    mine.append((idx, sched_idx, outcome))
            except Exception as exc:  # noqa: BLE001 - driver-level crash
                result.crashes.append(f"worker {idx}: {exc!r}")
            finally:
                with outcomes_lock:
                    result.completed += done
                    result.abandoned += len(schedule) - done
                    if mine:
                        result.outcomes.extend(mine)

        def churner(churn_idx: int, fn: Churn) -> None:
            step = 0
            try:
                while not stop_churn.is_set():
                    if faults is not None:
                        # Mutator death mid-wave-sequence: requests keep
                        # serving; the engine's writer lock made each
                        # individual wave atomic, so this must be safe.
                        faults.on_churn_step(churn_idx, step)
                    fn(step)
                    step += 1
                    with outcomes_lock:
                        result.churn_applied += 1
                    if stop_churn.wait(self.churn_interval_s):
                        break
            except Exception as exc:  # noqa: BLE001 - driver-level crash
                result.crashes.append(f"churn step {step}: {exc!r}")

        workers = [threading.Thread(target=worker, args=(i,), daemon=True)
                   for i in range(self.threads)]
        churn_threads = [threading.Thread(target=churner, args=(ci, fn),
                                          daemon=True)
                         for ci, fn in enumerate(self.churns)]
        for t in workers:
            t.start()
        for t in churn_threads:
            t.start()
        start_barrier.wait(timeout=JOIN_TIMEOUT_S)
        started = time.perf_counter()
        # One shared deadline across all joins, so a multi-worker
        # deadlock is reported after JOIN_TIMEOUT_S total — not
        # threads * JOIN_TIMEOUT_S, which would outlive CI's
        # faulthandler timeout and lose this curated diagnostic.
        deadline = started + JOIN_TIMEOUT_S
        for t in workers:
            t.join(timeout=max(0.0, deadline - time.perf_counter()))
        result.elapsed_s = time.perf_counter() - started
        stop_churn.set()
        for t in churn_threads:
            t.join(timeout=max(1.0, deadline - time.perf_counter()))
        hung = [i for i, t in enumerate(workers) if t.is_alive()]
        churn_hung = [i for i, t in enumerate(churn_threads)
                      if t.is_alive()]
        if hung or churn_hung:
            raise RuntimeError(
                f"driver deadlock: workers {hung} (churn threads alive: "
                f"{churn_hung}) did not finish within {JOIN_TIMEOUT_S}s")
        result.outcomes.sort(key=lambda o: o[1])
        return result


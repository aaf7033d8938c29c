"""The end-to-end serving harness: one scenario model, one report, and
one runner for every backend.

A :class:`Scenario` names an app and request mix (see ``recipes``), a
backend, a worker count and a schedule length.  :func:`run_scenario`
takes every backend through the same steps:

1. **build** and seed the world, on an engine with the scenario's
   promotion threshold;
2. optionally **load a snapshot** into it (fail-closed: a rejected
   snapshot is a cold start, recorded in ``Report.snapshot``);
3. **warm** it with ``warm_rounds`` sequential passes over the mix.
   Tier promotion is otherwise left to happen *during* the driven run,
   so promotion waves race the request threads;
4. **drive** the round-robin schedule through the backend:

   * ``thread`` — N request threads share the warm engine
     (:class:`~repro.concurrency.driver.ConcurrentDriver`), with one
     mutator thread per churn recipe;
   * ``fork`` — N workers forked from the warm parent, copy-on-write
     (:class:`~repro.concurrency.supervise.SupervisedDriver`).  With
     ``max_retries=0`` a dead worker's unfinished slice is abandoned at
     once (the fail-fast mode); above that, dead or hung
     workers are respawned from the parent and their remainder is
     replayed;

5. **verify** every completed request against a fresh cache-free
   oracle world (``Engine(disable_caches=True)``): the outcome at
   schedule index ``i`` must equal the oracle's outcome for request
   ``i mod n``.

Step 5 is exact because the recipes' disjoint-resource discipline makes
each request's outcome independent of the interleaving and of how often
it ran before (the warm rounds already lean on that), so one oracle
pass over the mix pins every index.  Comparing per index rather than as
a multiset also catches outcomes delivered under the wrong index.

Each step's tier transitions are recorded (``Report.phases``), so a
deopt storm is attributable to the phase it happened in.  The harness
takes no timings: ``perfbench/`` is the performance record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..concurrency import ConcurrentDriver, SupervisedDriver
from ..concurrency.driver import normalize_outcome
from ..core import Engine, EngineConfig
from ..core.stats import TRANSITION_FIELDS
from ..snapshot import load_snapshot
from .churn import churn_suite
from .recipes import build_serving_world, scenario_thunks


@dataclass
class Scenario:
    """One serving configuration, for either backend."""

    name: str
    backend: str = "thread"        # thread | fork
    app: str = "boxroom"
    mix: str = "read"              # read | write | mixed
    #: request threads (thread backend) or forked processes (fork).
    workers: int = 4
    requests: int = 400
    #: simulated off-CPU time per request (a GIL-releasing sleep, so
    #: request threads interleave the way real I/O makes them).
    io_wait_s: float = 0.002
    #: sequential passes over the mix before the driven run — what
    #: the request threads share, or the forked workers inherit.
    warm_rounds: int = 0
    cfg: Optional[dict] = None
    #: a snapshot path or document to warm-start the engine from.
    snapshot: Optional[object] = None
    #: override EngineConfig.specialize_threshold (None = default).
    specialize_threshold: Optional[int] = None
    #: thread backend only: none | retype | full (see churn_suite).
    churn: str = "none"
    churn_interval_s: float = 0.005
    #: fork backend only: respawns per worker slot (0 = fail-fast).
    max_retries: int = 0


@dataclass
class Report:
    """Everything one scenario run counted and verified."""

    scenario: str
    backend: str
    app: str
    mix: str
    workers: int
    requests: int
    completed: int = 0
    #: scheduled requests that never completed: a crashed thread's
    #: unfinished slice, or a fork slot's remainder once its retries ran
    #: out.  ``completed + abandoned == requests`` always holds.
    abandoned: int = 0
    errors: int = 0
    #: failures that void the run's guarantees: a thread's worker loop
    #: raised, a mutator died, or the fork protocol broke.  Worker
    #: deaths the supervisor handled are in ``restart_log`` instead.
    crashes: List[str] = field(default_factory=list)
    restarts: int = 0
    completed_retried: int = 0
    restart_log: List[str] = field(default_factory=list)
    churn_applied: int = 0
    #: "warmup" / "measured" -> TRANSITION_FIELDS deltas.  On the fork
    #: backend "measured" sums the workers' own deltas.
    phases: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: fork backend: each worker slot's measured deltas.
    per_worker: List[Dict[str, int]] = field(default_factory=list)
    #: the SnapshotLoad.as_dict() of the warm-start attempt ({} = none).
    snapshot: Dict[str, object] = field(default_factory=dict)
    #: no crash, and every completed outcome equals the cache-free
    #: oracle's outcome for its schedule index.
    oracle_match: bool = False

    @property
    def transitions(self) -> Dict[str, int]:
        """The measured run's TRANSITION_FIELDS deltas."""
        return self.phases["measured"]


def _transitions(stats) -> Dict[str, int]:
    return {name: int(getattr(stats, name)) for name in TRANSITION_FIELDS}


def _delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before[name] for name in before}


def _drive_threads(scenario: Scenario, world, thunks, faults,
                   report: Report) -> Dict[int, tuple]:
    stats = world.engine.stats
    churns = churn_suite(world, scenario.churn)
    before = _transitions(stats)
    run = ConcurrentDriver(
        thunks, threads=scenario.workers, requests=scenario.requests,
        io_wait_s=scenario.io_wait_s, churn=churns or None,
        churn_interval_s=scenario.churn_interval_s, faults=faults).run()
    report.phases["measured"] = _delta(before, _transitions(stats))
    report.completed = run.completed
    report.abandoned = run.abandoned
    report.crashes = list(run.crashes)
    report.churn_applied = run.churn_applied
    return {idx: outcome for _, idx, outcome in run.outcomes}


def _drive_fork(scenario: Scenario, world, thunks, faults,
                report: Report) -> Dict[int, tuple]:
    run = SupervisedDriver(
        thunks, workers=scenario.workers, requests=scenario.requests,
        io_wait_s=scenario.io_wait_s, engine=world.engine, faults=faults,
        # A short first backoff: a serving slot waits on the respawn.
        max_retries=scenario.max_retries, backoff_base_s=0.01).run()
    report.phases["measured"] = {
        name: sum(worker[name] for worker in run.per_worker)
        for name in TRANSITION_FIELDS}
    report.per_worker = run.per_worker
    report.completed = run.completed
    report.abandoned = run.abandoned
    report.crashes = list(run.crashes)
    report.restarts = run.restarts
    report.completed_retried = run.completed_retried
    report.restart_log = list(run.restart_log)
    return {idx: outcome for idx, (_, _, outcome) in run.outcomes.items()}


#: backend name -> drive step: runs the schedule over the warm world,
#: fills the report's counts, and returns the completed outcomes
#: by schedule index.
_BACKENDS = {
    "thread": _drive_threads,
    "fork": _drive_fork,
}


def _matches_oracle(scenario: Scenario, outcomes: Dict[int, tuple]) -> bool:
    """Whether every outcome equals the cache-free oracle's for its
    schedule index: one pass over the mix on a fresh cache-free world
    gives entry ``i mod n`` as the expected outcome of index ``i``."""
    world = build_serving_world(
        scenario.app, engine=Engine(disable_caches=True), cfg=scenario.cfg)
    oracle = [normalize_outcome(t)
              for t in scenario_thunks(world, scenario.mix)]
    n = len(oracle)
    return all(outcome == oracle[idx % n]
               for idx, outcome in outcomes.items())


def run_scenario(scenario: Scenario, *, faults=None) -> Report:
    """Run one scenario end to end; see the module docstring.

    ``faults`` (a :class:`repro.faults.FaultPlan`) scripts worker and
    mutator failures into the measured run; injected faults surface as
    crashes or supervision events, never as request outcomes."""
    drive = _BACKENDS.get(scenario.backend)
    if drive is None:
        raise ValueError(f"unknown backend {scenario.backend!r}; "
                         f"expected one of {sorted(_BACKENDS)}")
    if scenario.backend == "fork" and scenario.churn != "none":
        raise ValueError("churn runs on mutator threads in the parent, "
                         "which never reach a forked worker; use the "
                         "thread backend")
    engine = None
    if scenario.specialize_threshold is not None:
        engine = Engine(EngineConfig(
            specialize_threshold=scenario.specialize_threshold))
    world = build_serving_world(scenario.app, engine=engine,
                                cfg=scenario.cfg)
    report = Report(
        scenario=scenario.name, backend=scenario.backend,
        app=scenario.app, mix=scenario.mix, workers=scenario.workers,
        requests=scenario.requests)
    if scenario.snapshot is not None:
        report.snapshot = load_snapshot(world.engine,
                                        scenario.snapshot).as_dict()

    thunks = scenario_thunks(world, scenario.mix)
    stats = world.engine.stats
    before = _transitions(stats)
    for _ in range(scenario.warm_rounds):
        for thunk in thunks:
            thunk()
    report.phases["warmup"] = _delta(before, _transitions(stats))

    outcomes = drive(scenario, world, thunks, faults, report)
    if report.completed + report.abandoned != scenario.requests:
        raise RuntimeError(
            f"accounting violated: completed={report.completed} + "
            f"abandoned={report.abandoned} != "
            f"scheduled={scenario.requests}")
    report.errors = sum(1 for o in outcomes.values() if o[0] == "err")
    report.oracle_match = (
        not report.crashes and len(outcomes) == report.completed
        and _matches_oracle(scenario, outcomes))
    return report

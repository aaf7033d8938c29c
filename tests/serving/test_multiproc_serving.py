"""Pre-fork multi-process serving: harness, merge, and soundness tests.

The fork backend forks N workers over one warm parent world (request
thunks are closures over live app objects — deliberately unpicklable,
so ``fork`` inheritance is the transport).  These tests pin down the
fail-fast mode (``max_retries=0``) end to end:

* every worker completes its round-robin schedule slice and streams
  its outcomes and stats delta back;
* every outcome equals the cache-free oracle's outcome for its exact
  schedule index — the differential soundness bar, per request;
* a dead worker's unfinished slice is counted abandoned, never lost;
* a snapshot-warmed fleet pays strictly fewer promotions and static
  checks than a cold fleet on identical traffic.
"""

import pytest

from repro.concurrency import ConcurrentDriver, fork_available, schedule_slice
from repro.core import Engine, EngineConfig
from repro.core.stats import TRANSITION_FIELDS
from repro.serving import (
    Scenario, build_serving_world, run_scenario, scenario_thunks,
)
from repro.snapshot import save_snapshot

pytestmark = pytest.mark.requires_fork

WORKERS = 2
REQUESTS = 56
THRESHOLD = 6


def _small_scenario(**overrides):
    base = dict(name="test_run", backend="fork", app="countries",
                mix="read", workers=WORKERS, requests=REQUESTS,
                io_wait_s=0.0, warm_rounds=1, max_retries=0)
    base.update(overrides)
    return Scenario(**base)


def test_fork_available_matches_marker():
    # the suite only runs where fork exists; the helper must agree
    assert fork_available()


def test_all_workers_complete_and_report():
    report = run_scenario(_small_scenario())
    assert not report.crashes, report.crashes
    assert report.completed == REQUESTS
    assert report.abandoned == 0
    assert report.restart_log == []
    assert report.errors == 0
    assert report.workers == WORKERS
    assert len(report.per_worker) == WORKERS
    assert report.snapshot == {}  # cold run: no snapshot given
    assert set(report.phases) == {"warmup", "measured"}
    assert set(report.phases["measured"]) == set(TRANSITION_FIELDS) == {
        "calls_intercepted", "fast_path_hits", "static_checks",
        "cache_hits", "cache_misses", "promotions", "repromotions",
        "deopts", "elide_promotions", "elide_deopts",
        "plan_invalidations", "invalidations", "annotations_total"}
    assert report.transitions == {
        name: sum(worker[name] for worker in report.per_worker)
        for name in TRANSITION_FIELDS}


def test_crashed_worker_slice_is_counted_lost_not_vanished():
    """Regression: a killed worker's unfinished slice used to vanish
    from the report entirely (completed just came up short, with
    nothing accounting for the difference).  In fail-fast mode the
    dead worker's slice is counted ``abandoned``, the identity
    completed + abandoned == requests survives the crash, and the lost
    worker is a crash that fails the run's oracle verdict."""
    from repro.faults import KILL, Fault, FaultPlan

    plan = FaultPlan([Fault(KILL, 1, 0)])  # worker 1 dies immediately
    report = run_scenario(_small_scenario(), faults=plan)
    assert report.abandoned == len(schedule_slice(REQUESTS, WORKERS, 1))
    assert report.completed + report.abandoned == REQUESTS
    assert report.restarts == 0
    # Exit code 87 (the injected kill) is diagnosed, not swallowed.
    assert len(report.crashes) == 1, report.crashes
    assert report.crashes[0].startswith("slot 1 ")
    assert "exit code 87" in report.crashes[0]
    assert not report.oracle_match


def test_schedule_partition_is_exhaustive_and_disjoint():
    """The round-robin split hands every request index to exactly one
    worker — the property the per-index oracle leans on — and the
    threaded driver deals the same slices."""
    for requests, workers in ((40, 3), (7, 4), (3, 5), (480, 8)):
        slices = [list(schedule_slice(requests, workers, w))
                  for w in range(workers)]
        flat = [i for s in slices for i in s]
        assert flat == list(range(requests))
        assert max(map(len, slices)) - min(map(len, slices)) <= 1
    driver = ConcurrentDriver([lambda: None] * 3, threads=3, requests=40)
    assert [[idx for idx, _ in driver.schedule_for(w)] for w in range(3)] \
        == [list(schedule_slice(40, 3, w)) for w in range(3)]


def test_per_worker_outcomes_match_cache_free_oracle():
    """The acceptance bar: every outcome any forked worker reports
    equals the cache-free oracle's outcome for its schedule index."""
    report = run_scenario(_small_scenario())
    assert not report.crashes, report.crashes
    assert report.completed == REQUESTS
    assert report.oracle_match


def test_write_mix_stays_oracle_identical():
    """Write traffic mutates per-process app state; each fork starts
    from the same COW image, so the oracle replay still matches."""
    report = run_scenario(_small_scenario(
        name="write_run", mix="write", warm_rounds=0))
    assert not report.crashes, report.crashes
    assert report.completed == REQUESTS
    assert report.oracle_match


@pytest.mark.requires_caches
@pytest.mark.requires_specialization
def test_warm_fleet_pays_less_than_cold_fleet(tmp_path):
    """The warm-start claim at test size: a snapshot-warmed fleet pays
    strictly fewer promotions and static checks than a cold fleet on
    the same traffic, and both stay oracle-identical."""
    engine = Engine(EngineConfig(specialize_threshold=THRESHOLD))
    world = build_serving_world("countries", engine=engine)
    thunks = scenario_thunks(world, "read")
    for _ in range(THRESHOLD * 2):
        for thunk in thunks:
            thunk()
    path = tmp_path / "warm.json"
    save_snapshot(engine, str(path))

    def fleet(name, snapshot):
        return run_scenario(_small_scenario(
            name=name, warm_rounds=0, snapshot=snapshot,
            specialize_threshold=THRESHOLD))

    cold = fleet("cold", None)
    warm = fleet("warm", str(path))
    assert not cold.crashes and not warm.crashes
    assert cold.completed == warm.completed == REQUESTS
    assert cold.oracle_match
    assert warm.oracle_match
    assert warm.snapshot.get("loaded") is True

    cold_t, warm_t = cold.transitions, warm.transitions
    assert cold_t["promotions"] > warm_t["promotions"]
    assert cold_t["static_checks"] > warm_t["static_checks"]
    # the snapshot restored every verdict, so warm pays nothing at all
    assert warm_t["promotions"] == 0
    assert warm_t["static_checks"] == 0
    assert warm_t["deopts"] == 0
    assert warm_t["repromotions"] == 0


@pytest.mark.requires_caches
def test_stale_snapshot_falls_back_to_cold_start(tmp_path):
    """A fleet pointed at a stale snapshot must serve correctly anyway:
    the load fails closed, the workers cold-start, outcomes match."""
    engine = Engine(EngineConfig(specialize_threshold=THRESHOLD))
    world = build_serving_world("countries", engine=engine)
    thunks = scenario_thunks(world, "read")
    for thunk in thunks:
        thunk()
    path = tmp_path / "warm.json"
    save_snapshot(engine, str(path))
    blob = path.read_text()
    path.write_text(blob[:len(blob) // 2])  # truncate in transit

    report = run_scenario(_small_scenario(
        name="stale", warm_rounds=0, snapshot=str(path),
        specialize_threshold=THRESHOLD))
    assert not report.crashes, report.crashes
    assert report.completed == REQUESTS
    assert report.snapshot.get("loaded") is False
    assert report.oracle_match

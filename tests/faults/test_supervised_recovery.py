"""Supervised worker recovery under injected faults.

The contract under test (see ``docs/robustness.md``):

* a worker killed / crashed / hung mid-slice is detected, respawned
  from the parent's warm engine, and its unfinished remainder replayed
  — the run still completes **100% of the schedule**;
* every accepted outcome (replays included) equals the cache-free
  oracle's outcome for its exact schedule index;
* the accounting invariant ``scheduled == completed_first +
  completed_retried + abandoned`` holds on every path, including
  retry-budget exhaustion;
* the fault-tolerance counters (``workers_restarted``,
  ``requests_replayed``) are exact.
"""

import pytest

from repro.concurrency import SupervisedDriver
from repro.core import Engine
from repro.faults import (
    ERROR, HANG, KILL, Fault, FaultPlan, generate_fault_plan,
)
from repro.serving import Scenario, run_scenario

pytestmark = pytest.mark.requires_fork

WORKERS = 3
REQUESTS = 60  # 20 per worker


def _thunks(n=7):
    def mk(i):
        return lambda: i * 3
    return [mk(i) for i in range(n)]


def _driver(faults=None, **overrides):
    kw = dict(workers=WORKERS, requests=REQUESTS, faults=faults,
              backoff_base_s=0.01, backoff_cap_s=0.05)
    kw.update(overrides)
    return SupervisedDriver(_thunks(), **kw)


def _assert_full_oracle_identity(run, thunks):
    n = len(thunks)
    assert run.accounting_ok()
    assert run.completed == REQUESTS and run.abandoned == 0
    assert not run.crashes
    assert set(run.outcomes) == set(range(REQUESTS))
    for idx, (_, _, outcome) in run.outcomes.items():
        assert outcome == ("ok", repr(thunks[idx % n]()))


# -- recovery paths ----------------------------------------------------------


def test_fault_free_run_needs_no_supervision():
    run = _driver().run()
    _assert_full_oracle_identity(run, _thunks())
    assert run.restarts == 0 and run.completed_retried == 0
    assert run.completed_first == REQUESTS


def test_killed_worker_is_respawned_and_completes():
    plan = FaultPlan([Fault(KILL, 0, 5)])
    engine = Engine()
    run = _driver(plan, engine=engine).run()
    _assert_full_oracle_identity(run, _thunks())
    assert run.restarts == 1
    assert run.completed_retried >= 1  # the remainder was replayed
    assert any("exit code 87" in line for line in run.restart_log)
    # The parent engine's fault-tolerance counters are exact.
    assert engine.stats.workers_restarted == run.restarts
    assert engine.stats.requests_replayed == run.completed_retried


def test_multiple_kills_across_workers_recover():
    plan = generate_fault_plan(
        1234, workers=WORKERS, requests_per_worker=20, kills=3)
    run = _driver(plan).run()
    _assert_full_oracle_identity(run, _thunks())
    assert run.restarts >= 1


def test_crash_message_recovers_without_hang_timeout():
    plan = FaultPlan([Fault(ERROR, 1, 2)])
    run = _driver(plan).run()
    _assert_full_oracle_identity(run, _thunks())
    assert run.restarts == 1
    assert any("crashed" in line for line in run.restart_log)


def test_hung_worker_is_terminated_and_replayed():
    plan = FaultPlan([Fault(HANG, 2, 4, delay_s=2.0)])
    run = _driver(plan, hang_timeout_s=0.3).run()
    _assert_full_oracle_identity(run, _thunks())
    assert run.restarts == 1
    assert any("hung" in line for line in run.restart_log)


def test_kill_on_retry_attempt_recovers_again():
    plan = FaultPlan([Fault(KILL, 0, 5, attempt=0),
                      Fault(KILL, 0, 0, attempt=1)])
    run = _driver(plan, max_retries=3).run()
    _assert_full_oracle_identity(run, _thunks())
    assert run.restarts == 2


# -- budget exhaustion -------------------------------------------------------


def test_retry_budget_exhaustion_abandons_exactly_the_remainder():
    # Kill attempt 0, 1, and 2 of worker 0 at its very first request:
    # the whole 20-request slice is unrecoverable within max_retries=2.
    plan = FaultPlan([Fault(KILL, 0, 0, attempt=a) for a in range(3)])
    run = _driver(plan, max_retries=2).run()
    assert run.accounting_ok()
    assert run.abandoned == 20
    assert sorted(run.abandoned_indices) == list(range(20))
    assert run.restarts == 2
    assert run.completed == REQUESTS - 20
    assert any("budget exhausted" in line for line in run.restart_log)
    # The other workers' slices are untouched and oracle-identical.
    thunks = _thunks()
    for idx, (_, _, outcome) in run.outcomes.items():
        assert outcome == ("ok", repr(thunks[idx % len(thunks)]()))


def test_accounting_identity_holds_on_every_path():
    for plan in (None,
                 FaultPlan([Fault(KILL, 1, 7)]),
                 FaultPlan([Fault(KILL, 0, 0, attempt=a)
                            for a in range(4)])):
        run = _driver(plan, max_retries=2).run()
        assert run.accounting_ok()
        assert (run.completed_first + run.completed_retried
                + run.abandoned == REQUESTS)
        # The buckets are disjoint by construction (each schedule index
        # is accepted at most once); the multiset check proves no index
        # was double-counted.
        assert len(run.outcomes) == run.completed


# -- harness integration -----------------------------------------------------


def _scenario(**overrides):
    kw = dict(backend="fork", app="boxroom", mix="read", workers=2,
              requests=40, io_wait_s=0.0, warm_rounds=2,
              specialize_threshold=4, max_retries=2)
    kw.update(overrides)
    return Scenario("recovery-test", **kw)


def test_scenario_recovers_and_counts(tmp_path):
    plan = FaultPlan([Fault(KILL, 0, 3), Fault(KILL, 1, 9)])
    report = run_scenario(_scenario(), faults=plan)
    assert report.oracle_match
    assert report.completed == 40 and report.abandoned == 0
    assert report.restarts == 2
    assert report.completed_retried >= 2


def test_scenario_fault_free_reports_no_recovery():
    report = run_scenario(_scenario())
    assert report.oracle_match and report.completed == 40
    assert report.restarts == 0 and report.completed_retried == 0


@pytest.mark.requires_caches
def test_respawn_inherits_warm_state_from_parent():
    """A respawned worker forks from the parent's warm engine: its
    stats delta must not re-pay the parent's static checks (the
    cold-start work the warm rounds already did)."""
    plan = FaultPlan([Fault(KILL, 0, 0)])
    report = run_scenario(
        _scenario(warm_rounds=6, mix="read"), faults=plan)
    assert report.oracle_match and report.completed == 40
    assert report.restarts == 1
    # The warmed parent already derived every check; no worker —
    # original or respawned — should re-derive them.
    assert report.transitions["static_checks"] == 0

"""Differential verification of the serving workloads: every
write-heavy / mixed scenario must produce, at every schedule index, the
outcome a cache-free oracle produces — single-threaded and under
N-thread churn.

The recipes' disjoint-resource discipline is what makes the comparison
exact rather than statistical: each write thunk runs a self-contained
create→read→update→destroy cycle over resources no other thunk can
observe, with autoincrement ids masked, so outcomes are
interleaving-independent by construction.  These tests are the proof
that the discipline actually holds for all three apps."""

from collections import Counter

import pytest

from repro.concurrency import ConcurrentDriver, SupervisedDriver
from repro.core import Engine
from repro.serving import (
    Scenario, build_serving_world, run_scenario, scenario_thunks,
)

APPS = ["boxroom", "countries", "rolify"]
MIXES = ["write", "mixed"]

#: small-world knobs: fast views, no artificial io wait, modest volume.
CFG = {"view_cost": 10}


def _cfg(app):
    """Fast-view knobs where the builder supports them (countries has
    no view layer)."""
    return None if app == "countries" else CFG


def _outcomes(world, mix):
    """One sequential pass over the scenario schedule."""
    from repro.concurrency.driver import normalize_outcome
    results = []
    for thunk in scenario_thunks(world, mix):
        results.append(normalize_outcome(thunk))
    return results


# -- single-threaded: cached engine vs cache-free oracle, exact order --------


@pytest.mark.requires_caches
@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("mix", MIXES)
def test_sequential_outcomes_match_cache_free_oracle(app, mix):
    """With one thread there is no interleaving to hide behind: the
    cached engine must agree with the cache-free oracle outcome-for-
    outcome, in order, over repeated passes (covering cold and warm
    cache states)."""
    cached = build_serving_world(app, cfg=_cfg(app))
    oracle = build_serving_world(
        app, engine=Engine(disable_caches=True), cfg=_cfg(app))
    for _ in range(3):
        assert _outcomes(cached, mix) == _outcomes(oracle, mix)


# -- threaded: per-index identity with the cache-free oracle -----------------


@pytest.mark.requires_threads
@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("mix", MIXES)
def test_threaded_scenario_matches_both_oracles(app, mix):
    report = run_scenario(Scenario(
        name=f"test-{app}-{mix}", app=app, mix=mix, workers=4,
        requests=64, io_wait_s=0.0, warm_rounds=2, cfg=_cfg(app),
    ))
    assert report.crashes == []
    assert report.errors == 0
    assert report.completed == report.requests
    assert report.oracle_match, (
        f"{app}/{mix}: threaded outcomes diverged from the "
        f"cache-free oracle")
    doc = report.as_dict()
    assert doc["oracle_match"] == doc["oracle_match_cache_free"] == 1


def _permute(outcomes):
    """Deliver every outcome under its neighbour's schedule index: the
    multiset is unchanged, the index -> outcome map is not."""
    indices = sorted(outcomes)
    shifted = indices[1:] + indices[:1]
    return {new: outcomes[old] for old, new in zip(indices, shifted)}


def _permuting_thread_run(run):
    def permuted(self):
        result = run(self)
        by_index = _permute({idx: (worker, outcome)
                             for worker, idx, outcome in result.outcomes})
        result.outcomes = [(worker, idx, outcome) for idx, (worker, outcome)
                           in sorted(by_index.items())]
        return result
    return permuted


def _permuting_fork_run(run):
    def permuted(self):
        result = run(self)
        result.outcomes = _permute(result.outcomes)
        return result
    return permuted


@pytest.mark.requires_threads
@pytest.mark.parametrize("backend", [
    "thread", pytest.param("fork", marks=pytest.mark.requires_fork)])
def test_outcomes_under_the_wrong_index_fail_the_oracle(backend,
                                                        monkeypatch):
    """A run whose outcomes are permuted across schedule indices has the
    same outcome multiset as a correct run, so a multiset oracle passes
    it.  The per-index oracle must not."""
    scenario = Scenario(name=f"permuted-{backend}", backend=backend,
                        app="countries", mix="mixed", workers=2,
                        requests=27, io_wait_s=0.0)
    honest = run_scenario(scenario)
    assert honest.oracle_match

    driver, wrap = ((ConcurrentDriver, _permuting_thread_run)
                    if backend == "thread"
                    else (SupervisedDriver, _permuting_fork_run))
    monkeypatch.setattr(driver, "run", wrap(driver.run))
    permuted = run_scenario(scenario)
    assert permuted.completed == scenario.requests
    assert not permuted.crashes
    assert not permuted.oracle_match


def test_fork_backend_rejects_churn():
    """Mutator threads run in the parent and never reach a forked
    worker, so a fork scenario with churn would measure nothing."""
    with pytest.raises(ValueError, match="thread backend"):
        run_scenario(Scenario(name="bad", backend="fork", churn="retype"))
    with pytest.raises(ValueError, match="unknown backend"):
        run_scenario(Scenario(name="bad", backend="asyncio"))


@pytest.mark.requires_threads
@pytest.mark.parametrize("app", ["boxroom", "rolify"])
def test_write_heavy_under_full_churn_is_oracle_identical(app):
    """The headline acceptance criterion: write-heavy traffic from 4
    threads while reloader / typegen / retype mutators run from
    dedicated threads still reproduces the cache-free oracle's multiset
    exactly, with zero request errors."""
    report = run_scenario(Scenario(
        name=f"test-{app}-write-churn", app=app, mix="write", workers=4,
        requests=80, io_wait_s=0.001, churn="full",
        churn_interval_s=0.002, warm_rounds=2, cfg=_cfg(app),
    ))
    assert report.crashes == []
    assert report.errors == 0
    assert report.churn_applied > 0, "mutator threads never ran"
    assert report.oracle_match


@pytest.mark.requires_threads
@pytest.mark.parametrize("mix, churn", [("read", "none"), ("mixed", "full")])
def test_boxroom_past_promotion_matches_oracle(mix, churn):
    """Eight threads over a world warmed past a low promotion threshold,
    so the measured run rides tier-2 wrappers — and under ``full``
    churn has them deopted and re-promoted mid-run — must stay
    oracle-identical with zero request errors."""
    report = run_scenario(Scenario(
        name=f"test-boxroom-{mix}-tier2", app="boxroom", mix=mix,
        workers=8, requests=160, io_wait_s=0.001, churn=churn,
        churn_interval_s=0.002, warm_rounds=6, specialize_threshold=4,
        cfg=CFG,
    ))
    assert report.crashes == []
    assert report.errors == 0
    assert report.completed == report.requests
    if churn != "none":
        assert report.churn_applied > 0, "mutator threads never ran"
    assert report.oracle_match


@pytest.mark.requires_threads
def test_countries_mixed_under_retype_churn():
    report = run_scenario(Scenario(
        name="test-countries-churn", app="countries", mix="mixed",
        workers=4, requests=64, io_wait_s=0.001, churn="retype",
        churn_interval_s=0.002, warm_rounds=2,
    ))
    assert report.crashes == []
    assert report.errors == 0
    assert report.churn_applied > 0
    assert report.oracle_match


# -- exact stats totals ------------------------------------------------------


@pytest.mark.requires_threads
def test_request_accounting_is_exact():
    """Bookkeeping must be exact, not approximate: every scheduled
    request completes exactly once and is timed exactly once."""
    scenario = Scenario(
        name="test-accounting", app="boxroom", mix="mixed", workers=4,
        requests=64, io_wait_s=0.0, warm_rounds=1, cfg=CFG)
    report = run_scenario(scenario)
    assert report.completed == scenario.requests
    assert report.latency.count == scenario.requests
    # With no reservoir overflow the summary is exact and every sample
    # is a real request.
    assert report.latency.exact
    assert report.latency.sampled == scenario.requests
    assert report.latency.max >= report.latency.p999 >= report.latency.p50


@pytest.mark.requires_caches
def test_warm_schedule_is_deterministic_and_cached():
    """Two warm sequential passes over the same mixed schedule produce
    identical outcome multisets, and the warm pass is served with
    strictly fewer fresh typechecks than the cold one (the caches are
    actually carrying the traffic)."""
    world = build_serving_world("boxroom", cfg=CFG)
    stats = world.engine.stats

    def pass_multiset():
        return Counter(_outcomes(world, "mixed"))

    cold_checks = stats.static_checks
    first = pass_multiset()
    cold_delta = stats.static_checks - cold_checks

    warm_checks = stats.static_checks
    second = pass_multiset()
    warm_delta = stats.static_checks - warm_checks

    assert first == second
    assert warm_delta < cold_delta, (
        f"warm pass re-checked {warm_delta} bodies vs {cold_delta} cold "
        f"— caches are not serving the schedule")

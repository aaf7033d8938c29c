"""Concurrency benchmarks: the multi-threaded request workload.

The tentpole claim: the engine's warm path takes no global lock, so N
request threads sharing one engine scale aggregate throughput with N
whenever per-request I/O dominates — and a dev-mode reload churning the
type table mid-flight neither corrupts a cache nor collapses the warm
hit rate.

Two ways to run:

* ``PYTHONPATH=src python -m pytest benchmarks/bench_concurrency.py -q``
  — asserts the >= 3x aggregate-throughput scaling at 8 threads versus
  1 thread on the warm path, per-index identity between the concurrent
  run's outcomes and a cache-free oracle's (with and without churn),
  and a still-warm hit rate under churn;
* ``PYTHONPATH=src python benchmarks/bench_concurrency.py [--smoke]``
  — prints a JSON report (the committed ``BENCH_concurrency.json``
  baseline format) for perf-trajectory tracking across PRs.

``IO_WAIT_S`` models the off-CPU time (database, network, template
writes) a real Rails request spends per hit; ``time.sleep`` releases
the GIL, so it is exactly the window in which other request threads
make progress.  The interpreter-bound portion stays serialized by the
GIL — the point of the measurement is that the *engine* adds no lock
that would serialize the I/O window too.
"""

import json
import os
import sys

from repro.serving import Scenario, run_scenario

#: per-request simulated I/O window; chosen so the pubs request mix is
#: I/O-dominated (CPU per request is ~a third of this on a dev box).
IO_WAIT_S = 0.004
#: total requests per measured configuration.
REQUESTS = 480
#: thread counts compared for the scaling headline.
THREADS_LOW, THREADS_HIGH = 1, 8
#: warm passes before a scaling run: enough for every pubs site (some
#: are hit only every few passes) to reach the default promotion
#: threshold, so the timed run is the warm path, not a promotion wave
#: stalling all eight threads on the GIL.
SCALING_WARM_ROUNDS = 64


def _pubs(threads: int, requests: int, warm_rounds: int = 2, **overrides):
    """The pubs read mix from ``threads`` request threads, after
    ``warm_rounds`` warm passes (annotations executed, bodies checked,
    plans built)."""
    return run_scenario(Scenario(
        name=f"pubs_{threads}t", app="pubs", mix="read", workers=threads,
        requests=requests, warm_rounds=warm_rounds, **overrides))


def _hit_rate(report) -> float:
    """Share of the measured run's intercepted calls served by a plan."""
    measured = report.transitions
    return measured["fast_path_hits"] / max(1, measured["calls_intercepted"])


def measure_scaling(requests: int = REQUESTS,
                    io_wait_s: float = IO_WAIT_S) -> dict:
    """Aggregate warm-path throughput at 1 vs 8 threads, same schedule."""
    runs = {}
    for threads in (THREADS_LOW, THREADS_HIGH):
        report = _pubs(threads, requests, SCALING_WARM_ROUNDS,
                       io_wait_s=io_wait_s)
        # A crashed/hung worker would shrink elapsed time while its
        # requests went unserved — never let that inflate the headline.
        assert not report.crashes, report.crashes
        assert report.completed == requests, (report.completed, requests)
        assert report.oracle_match, report.scenario
        # The timed run is the warm path: no promotion wave inside it.
        assert report.transitions["promotions"] == 0, report.transitions
        runs[threads] = report
    low, high = runs[THREADS_LOW], runs[THREADS_HIGH]
    return {
        "requests": requests,
        "io_wait_ms": round(io_wait_s * 1000, 3),
        "threads_low": THREADS_LOW,
        "threads_high": THREADS_HIGH,
        "rps_1": round(low.rps, 1),
        f"rps_{THREADS_HIGH}": round(high.rps, 1),
        "scaling": round(high.rps / low.rps, 2),
        "warm_hit_rate": round(_hit_rate(high), 4),
    }


def measure_churn(threads: int = THREADS_HIGH,
                  requests: int = REQUESTS,
                  churn_interval_s: float = 0.005) -> dict:
    """8 request threads + a dev-mode reload churn thread retyping a hot
    method every few milliseconds: every outcome must match the
    cache-free oracle (semantics-preserving churn), nothing may crash,
    and most calls must still ride warm plans between invalidation
    waves."""
    report = _pubs(threads, requests, io_wait_s=IO_WAIT_S, churn="retype",
                   churn_interval_s=churn_interval_s)
    return {
        "threads": threads,
        "requests": requests,
        "churn_applied": report.churn_applied,
        "plans_invalidated": report.transitions["plan_invalidations"],
        "errors": report.errors,
        "crashes": list(report.crashes),
        "outcomes_match_oracle": report.oracle_match,
        "warm_hit_rate_under_churn": round(_hit_rate(report), 4),
    }


def measure(requests: int = REQUESTS) -> dict:
    return {
        "scaling": measure_scaling(requests),
        "churn": measure_churn(requests=requests),
    }


# -- pytest entry points -----------------------------------------------------


def test_concurrent_scaling_at_least_3x():
    """Acceptance criterion: >= 3x aggregate throughput at 8 threads vs
    1 thread on the warm path.

    Shared CI runners are noisy and core-starved; CI exports
    CONCURRENCY_MIN_SCALING=2 as its alarm threshold while local runs
    enforce the full 3x.
    """
    floor = float(os.environ.get("CONCURRENCY_MIN_SCALING", "3.0"))
    result = measure_scaling()
    assert result["scaling"] >= floor, result
    assert result["warm_hit_rate"] > 0.9, result


def test_concurrent_outcomes_match_cache_free_oracle():
    """Threaded differential soundness, benchmark-sized: every outcome
    of the concurrent run equals the cache-free oracle's outcome for its
    schedule index."""
    report = _pubs(THREADS_HIGH, 160, io_wait_s=0.0)
    assert not report.crashes, report.crashes
    assert report.completed == 160
    assert report.oracle_match


def test_churn_under_load_is_sound_and_stays_warm():
    """Dev-mode reload churn against live traffic: no crashes, no
    divergent outcomes, and the warm hit rate survives (the whole point
    of per-key invalidation — one retyped method must not cold-start
    the world on every wave)."""
    result = measure_churn(requests=240)
    assert not result["crashes"], result
    assert result["errors"] == 0, result
    assert result["outcomes_match_oracle"], result
    assert result["churn_applied"] > 0, result
    assert result["warm_hit_rate_under_churn"] > 0.5, result


# -- baseline script ---------------------------------------------------------


def main(argv) -> int:
    requests = 160 if "--smoke" in argv else REQUESTS
    result = measure(requests)
    print(json.dumps(result, indent=2))
    scaling = result["scaling"]["scaling"]
    floor = 2.0 if "--smoke" in argv else 3.0
    ok = (scaling >= floor
          and result["churn"]["outcomes_match_oracle"]
          and not result["churn"]["crashes"])
    if not ok:
        print(f"FAIL: scaling {scaling} < {floor}x or churn unsound",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

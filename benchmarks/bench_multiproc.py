"""Multi-process serving benchmarks: pre-fork scaling + warm-start.

ROADMAP item 3's two claims, measured end to end:

* **Horizontal scale** — one CPython process is GIL-bound; forking N
  workers over the same warm world buys N cores.  The headline is
  aggregate rps at 4 workers vs 1 worker on the boxroom read-heavy
  recipe (same schedule, same per-request I/O window), which must
  clear 2x locally (``MULTIPROC_MIN_SCALING``; CI alarms at 1.5x on
  shared two-core runners).
* **Warm start** — a freshly forked (or freshly deployed) worker
  re-pays static checks, profiling, and tier-2/3 promotion from zero
  unless warm state survives.  The warm-start block builds a warmed
  world, saves its ``repro.snapshot`` warm-state file, then compares a
  cold fleet against a snapshot-warmed fleet on identical traffic:
  warm workers must pay *measurably fewer* promotions and static
  checks (zero, in practice) and reach steady state (first full pass
  over the request mix) faster — the cold-start deopt-storm window is
  the tail-latency enemy this kills.

Every fleet runs the fork backend in fail-fast mode (``max_retries=0``)
and is differentially verified per request: every outcome a worker
reports must equal a cache-free oracle world's outcome for its schedule
index.  A report whose oracle bits are not 1 is a soundness bug, not a
slow run.

Two ways to run:

* ``PYTHONPATH=src python -m pytest benchmarks/bench_multiproc.py -q``
  — asserts the scaling floor, the warm-vs-cold deltas, and soundness
  (skips cleanly where the ``fork`` start method is unavailable);
* ``PYTHONPATH=src python benchmarks/bench_multiproc.py [--smoke]`` —
  prints the committed ``BENCH_multiproc.json`` baseline JSON.
"""

import json
import os
import sys
import tempfile

import pytest

from repro.concurrency import fork_available
from repro.core import Engine, EngineConfig
from repro.serving import (
    Scenario, build_serving_world, run_scenario, scenario_thunks,
)
from repro.snapshot import save_snapshot

#: per-request simulated I/O window for the scaling block; same
#: rationale as bench_concurrency — but here the *CPU* side scales too,
#: because workers are processes, not threads.
IO_WAIT_S = 0.004
REQUESTS = 480
WORKERS_LOW, WORKERS_HIGH = 1, 4

#: warm-start block: a low promotion threshold so the warmup traffic
#: promotes every hot site before the snapshot is taken.
WARM_THRESHOLD = 8
WARM_WORKERS = 2
WARM_REQUESTS = 240
#: parent warmup passes before the snapshot: past WARM_THRESHOLD hits
#: per thunk, so promotion (and its elision verdict) has fired.
WARM_ROUNDS = 16


def _fleet(name: str, **overrides):
    """One fail-fast fork-backend run."""
    return run_scenario(Scenario(name=name, backend="fork", max_retries=0,
                                 **overrides))


fork_missing = pytest.mark.skipif(
    not fork_available(),
    reason="multi-process serving requires the 'fork' start method")


def measure_scaling(requests: int = REQUESTS,
                    io_wait_s: float = IO_WAIT_S) -> dict:
    """Aggregate rps at 1 vs 4 workers, same schedule, same recipe as
    the serving suite's read_heavy scenario."""
    runs = {}
    for workers in (WORKERS_LOW, WORKERS_HIGH):
        report = _fleet(
            f"read_heavy_{workers}w", app="boxroom", mix="read",
            workers=workers, requests=requests, io_wait_s=io_wait_s,
            warm_rounds=4, cfg={"view_cost": 40})
        assert not report.crashes, report.crashes
        assert report.completed == requests, (report.completed, requests)
        runs[workers] = report
    low, high = runs[WORKERS_LOW], runs[WORKERS_HIGH]
    return {
        "app": "boxroom",
        "requests": requests,
        "io_wait_ms": round(io_wait_s * 1000, 3),
        "workers_low": WORKERS_LOW,
        "workers_high": WORKERS_HIGH,
        "rps_low": round(low.rps, 1),
        "rps_high": round(high.rps, 1),
        "scaling": round(high.rps / low.rps, 2),
        "p99_ms_high": round(high.latency.p99 * 1000, 3),
        "oracle_match": int(low.oracle_match and high.oracle_match),
        "crashes": len(low.crashes) + len(high.crashes),
    }


def _fleet_view(report) -> dict:
    transitions = report.transitions
    return {
        "rps": round(report.rps, 1),
        "first_pass_ms": round(report.first_pass_s * 1000, 3),
        "static_checks": transitions["static_checks"],
        "cache_misses": transitions["cache_misses"],
        "promotions": transitions["promotions"],
        "deopts": transitions["deopts"],
        "tier_transitions": (transitions["promotions"]
                             + transitions["repromotions"]
                             + transitions["deopts"]),
        "oracle_match": int(report.oracle_match),
    }


def measure_warm_start(requests: int = WARM_REQUESTS) -> dict:
    """Cold fleet vs snapshot-warmed fleet on identical traffic.

    ``io_wait_s`` is zero: the cold-start window is CPU (checks +
    promotion compilation), and simulated I/O would only dilute the
    first-pass comparison with sleeps both fleets share.
    """
    engine = Engine(EngineConfig(specialize_threshold=WARM_THRESHOLD))
    world = build_serving_world("countries", engine=engine)
    thunks = scenario_thunks(world, "read")
    for _ in range(WARM_ROUNDS):
        for thunk in thunks:
            thunk()
    snapshot_path = os.path.join(tempfile.mkdtemp(prefix="warmstate"),
                                 "warm.json")
    save_snapshot(engine, snapshot_path)

    def fleet(name, snapshot):
        return _fleet(
            name, app="countries", mix="read", workers=WARM_WORKERS,
            requests=requests, io_wait_s=0.0, warm_rounds=0,
            specialize_threshold=WARM_THRESHOLD, snapshot=snapshot)

    cold = fleet("cold_start", None)
    warm = fleet("warm_start", snapshot_path)
    for fleet_report in (cold, warm):
        assert not fleet_report.crashes, fleet_report.crashes
        assert fleet_report.completed == requests, fleet_report.restart_log
    cold_view, warm_view = _fleet_view(cold), _fleet_view(warm)
    cold_first = max(cold.first_pass_s, 1e-9)
    warm_first = max(warm.first_pass_s, 1e-9)
    return {
        "app": "countries",
        "workers": WARM_WORKERS,
        "requests": requests,
        "specialize_threshold": WARM_THRESHOLD,
        "cold": cold_view,
        "warm": warm_view,
        "snapshot_loaded": int(bool(warm.snapshot.get("loaded"))),
        "snapshot": dict(warm.snapshot),
        # the headline deltas: what warm-starting saved the fleet.
        "promotions_saved": (cold_view["promotions"]
                             - warm_view["promotions"]),
        "static_checks_saved": (cold_view["static_checks"]
                                - warm_view["static_checks"]),
        "steady_speedup": round(cold_first / warm_first, 2),
        "oracle_match": int(cold.oracle_match and warm.oracle_match),
    }


def measure(requests: int = REQUESTS,
            warm_requests: int = WARM_REQUESTS) -> dict:
    return {
        "scaling": measure_scaling(requests),
        "warm_start": measure_warm_start(warm_requests),
    }


# -- pytest entry points -----------------------------------------------------
# NOTE: these use skipif directly (not the requires_fork marker) because
# benchmarks/ runs under its own conftest, which has no marker hooks.


@fork_missing
def test_multiproc_scaling_at_least_2x():
    """Acceptance criterion: > 2x aggregate rps at 4 workers vs 1 on
    the read-heavy recipe.  Shared CI runners have ~2 cores; CI exports
    MULTIPROC_MIN_SCALING=1.5 while local runs enforce the full 2x."""
    floor = float(os.environ.get("MULTIPROC_MIN_SCALING", "2.0"))
    result = measure_scaling(requests=240)
    assert result["oracle_match"] == 1, result
    assert result["crashes"] == 0, result
    assert result["scaling"] > floor, result


@fork_missing
def test_warm_start_skips_cold_start_work():
    """Acceptance criterion: snapshot-warmed workers reach steady state
    with measurably fewer promotions and static checks than cold ones
    (in practice: zero — the snapshot restored every verdict), and no
    deopt storm replaces the promotion storm."""
    result = measure_warm_start(requests=112)
    assert result["snapshot_loaded"] == 1, result
    assert result["oracle_match"] == 1, result
    assert result["promotions_saved"] >= 1, result
    assert result["static_checks_saved"] >= 1, result
    assert result["warm"]["promotions"] == 0, result
    assert result["warm"]["static_checks"] == 0, result
    assert result["warm"]["deopts"] == 0, result
    floor = float(os.environ.get("MULTIPROC_MIN_WARM_SPEEDUP", "1.0"))
    assert result["steady_speedup"] >= floor, result


@fork_missing
def test_multiproc_outcomes_match_cache_free_oracle():
    """Benchmark-sized differential soundness: every outcome any forked
    worker reports equals the cache-free oracle's outcome for its
    schedule index."""
    report = _fleet(
        "oracle_check", app="boxroom", mix="read", workers=4,
        requests=96, io_wait_s=0.0, warm_rounds=2, cfg={"view_cost": 40})
    assert not report.crashes, report.crashes
    assert report.errors == 0
    assert report.completed == 96
    assert report.oracle_match


# -- baseline script ---------------------------------------------------------


def main(argv) -> int:
    if not fork_available():
        print(json.dumps({"skipped": "fork start method unavailable"}))
        return 0
    smoke = "--smoke" in argv
    result = measure(requests=160 if smoke else REQUESTS,
                     warm_requests=112 if smoke else WARM_REQUESTS)
    print(json.dumps(result, indent=2))
    scaling_floor = 1.5 if smoke else 2.0
    scaling = result["scaling"]["scaling"]
    warm = result["warm_start"]
    ok = (scaling > scaling_floor
          and result["scaling"]["oracle_match"] == 1
          and warm["oracle_match"] == 1
          and warm["snapshot_loaded"] == 1
          and warm["promotions_saved"] >= 1
          and warm["static_checks_saved"] >= 1)
    if not ok:
        print(f"FAIL: scaling {scaling} <= {scaling_floor}x, warm-start "
              f"saved nothing, or a worker diverged from the oracle",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

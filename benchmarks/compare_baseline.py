"""Benchmark-trend gate: compare fresh results against committed baselines.

CI runs ``bench_hotpath.py``, ``bench_concurrency.py``,
``bench_serving.py``, ``bench_multiproc.py``, and ``bench_chaos.py``,
writes their JSON reports to an artifacts
directory, and then runs this script to
compare each report against the committed ``BENCH_*.json`` baseline
with the repo's *alarm-threshold* convention: shared runners are noisy,
so CI alarms only when a metric falls below a conservative fraction of
the committed number (or an absolute floor, whichever the metric spec
says) — the full-strength numbers are enforced by local runs and by the
committed baselines themselves.

Usage::

    python benchmarks/compare_baseline.py \
        --baseline BENCH_hotpath.json --current out/hotpath.json \
        --suite hotpath
    python benchmarks/compare_baseline.py \
        --baseline BENCH_concurrency.json --current out/concurrency.json \
        --suite concurrency

Exit code 0 = within thresholds, 1 = regression alarm, 2 = bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, List, Tuple

Metric = Tuple[str, Callable[[dict], float], Callable[[float, float], bool],
               str]


def _get(path: str):
    def getter(report: dict) -> float:
        node = report
        for part in path.split("."):
            node = node[part]
        return float(node)
    return getter


def _absolute_floor(floor: float):
    """Alarm when current < floor, whatever the baseline says."""
    return lambda current, baseline: current >= floor


def _floor_and_fraction(floor: float, fraction: float):
    """The trend gate for dimensionless metrics (speedups, scalings,
    hit rates port across machines): alarm when current drops below the
    absolute floor *or* below ``fraction`` of the committed baseline —
    the latter catches a slow slide that stays above the floor."""
    return lambda current, baseline: (current >= floor
                                      and current >= baseline * fraction)


def _absolute_ceiling(cap: float):
    """Alarm when current > cap — for counts that must stay bounded
    (deopt storms) regardless of the committed baseline."""
    return lambda current, baseline: current <= cap


def _ceiling_and_headroom(cap: float, headroom: float):
    """The trend gate for latency metrics: alarm when current exceeds
    the absolute ceiling *or* ``headroom`` times the committed baseline
    — the latter catches a tail that doubles while staying under a
    loose cap sized for shared runners."""
    return lambda current, baseline: (current <= cap
                                      and current <= baseline * headroom)


#: suite name -> [(metric path, getter, ok(current, baseline), description)]
SUITES = {
    "hotpath": [
        ("speedup", _get("speedup"), _floor_and_fraction(2.0, 0.5),
         "steady-state speedup vs legacy engine (alarm floor 2x, and "
         "no sliding below half the committed baseline)"),
        ("fast_path_hit_ratio",
         lambda r: float(r["fast_path_hits"]) / float(r["calls"]),
         _absolute_floor(1.0),
         "every warm call must ride a plan (hits/calls, size-independent)"),
        ("tier2.speedup_vs_tier1", _get("tier2.speedup_vs_tier1"),
         _floor_and_fraction(1.2, 0.6),
         "specialized wrappers must beat the generic plan path (alarm "
         "floor 1.2x on shared runners; local acceptance is 1.5x)"),
        ("tier2.specialized_hit_ratio",
         _get("tier2.specialized_hit_ratio"), _absolute_floor(0.99),
         "the warm loop must actually ride tier 2 (promotion fired and "
         "stuck)"),
        ("tier3.speedup_vs_tier2", _get("tier3.speedup_vs_tier2"),
         _floor_and_fraction(1.02, 0.6),
         "check elimination must beat the elide-off tier-2 wrapper on "
         "the same loop (alarm floor 1.02x on shared runners; the "
         "committed baseline records the full local gain)"),
        ("tier3.checks_elided", _get("tier3.checks_elided"),
         _absolute_floor(1.0),
         "the warm loop must actually run with statically discharged "
         "checks (the counter only moves inside stripped wrappers)"),
        ("tier3.elide_promotions", _get("tier3.elide_promotions"),
         _absolute_floor(1.0),
         "promotion must have carried an elision verdict for the hot "
         "leaf"),
        ("reload.warm_hit_rate", _get("reload.warm_hit_rate"),
         _absolute_floor(0.9),
         "dev-mode reload keeps >=90% of calls on warm plans"),
    ] + [
        (f"serving_elision.{name}.rate",
         _get(f"serving_elision.{name}.rate"),
         _floor_and_fraction(floor, 0.9),
         f"provable check-elimination rate on the warm {name} serving "
         "mix (deterministic audit, not a timing — 0.9 of baseline "
         "tolerates only workload-shape drift).  rolify's floor gates "
         "the >=1.5x-over-pre-PR criterion: its pre-name-level-"
         "contract-gate rate was 0.0")
        for name, floor in (("boxroom_read", 0.55),
                            ("boxroom_mixed", 0.55),
                            ("countries_read", 0.55),
                            ("countries_mixed", 0.55),
                            ("rolify_read", 0.4),
                            ("rolify_mixed", 0.4))
    ],
    "overhead": [
        ("overhead_reduction", _get("overhead_reduction"),
         _floor_and_fraction(1.3, 0.5),
         "tier 2 must remove a large fraction of the per-call "
         "interception tax vs the generic wrapper (alarm floor 1.3x; "
         "the committed baseline records the full local reduction)"),
        ("promotions", _get("promotions"), _absolute_floor(1.0),
         "the measured site must actually have been promoted"),
    ],
    "concurrency": [
        ("scaling.scaling", _get("scaling.scaling"),
         _floor_and_fraction(2.0, 0.5),
         "8-thread vs 1-thread aggregate throughput (alarm floor 2x, "
         "no sliding below half the committed baseline; local "
         "acceptance is 3x)"),
        ("scaling.warm_hit_rate", _get("scaling.warm_hit_rate"),
         _absolute_floor(0.9),
         "warm traffic must be served from call plans"),
        ("churn.warm_hit_rate_under_churn",
         _get("churn.warm_hit_rate_under_churn"), _absolute_floor(0.5),
         "reload churn under load must not cold-start the world"),
        ("churn.errors", lambda r: -float(r["churn"]["errors"]),
         _absolute_floor(0.0), "no request errors under churn"),
    ],
    "serving": [
        ("read_heavy.rps", _get("scenarios.read_heavy.rps"),
         _floor_and_fraction(500.0, 0.25),
         "steady-state read throughput at 8 threads (loose floor for "
         "shared runners; no sliding below a quarter of the committed "
         "baseline)"),
        ("read_heavy.p99_ms", _get("scenarios.read_heavy.p99_ms"),
         _ceiling_and_headroom(50.0, 5.0),
         "steady-state read tail: p99 under an absolute 50ms cap and "
         "within 5x of the committed baseline"),
        ("read_heavy.p999_ms", _get("scenarios.read_heavy.p999_ms"),
         _ceiling_and_headroom(100.0, 5.0),
         "steady-state read extreme tail (p999) stays bounded"),
        ("mixed_churn.p99_ms", _get("scenarios.mixed_churn.p99_ms"),
         _ceiling_and_headroom(50.0, 5.0),
         "tail under reload/typegen churn: invalidation waves may cost "
         "a recheck, not a cold start"),
        ("mixed_churn.p999_ms", _get("scenarios.mixed_churn.p999_ms"),
         _ceiling_and_headroom(100.0, 5.0),
         "extreme tail under churn stays bounded (a deopt storm that "
         "stalls requests lands here first)"),
        ("mixed_churn.deopt_storms",
         _get("scenarios.mixed_churn.deopt_storms"),
         _absolute_ceiling(120.0),
         "churn steps that displaced live specialized wrappers must "
         "stay bounded (a storm per step means re-specialization is "
         "thrashing)"),
        ("mixed_churn.churn_applied",
         _get("scenarios.mixed_churn.churn_applied"),
         _absolute_floor(1.0),
         "the mutator threads must actually have run — a churnless "
         "'churn' scenario gates nothing"),
        ("mixed_churn.errors",
         lambda r: -float(r["scenarios"]["mixed_churn"]["errors"]),
         _absolute_floor(0.0), "no request errors under serving churn"),
    ] + [
        (f"{scenario}.{bit}", _get(f"scenarios.{scenario}.{bit}"),
         _absolute_floor(1.0),
         f"{scenario} outcome multiset must equal the "
         f"{'cache-free ' if 'free' in bit else 'warm-engine '}oracle "
         f"replay")
        for scenario in ("read_heavy", "write_heavy", "mixed_churn")
        for bit in ("oracle_match", "oracle_match_cache_free")
    ],
    "multiproc": [
        ("scaling.scaling", _get("scaling.scaling"),
         _floor_and_fraction(1.5, 0.5),
         "4-worker vs 1-worker aggregate rps (alarm floor 1.5x on "
         "~2-core shared runners; local acceptance is the >2x "
         "criterion, recorded in the committed baseline)"),
        ("scaling.rps_high", _get("scaling.rps_high"),
         _floor_and_fraction(150.0, 0.25),
         "aggregate 4-worker throughput floor (loose for shared "
         "runners; no sliding below a quarter of the committed "
         "baseline)"),
        ("scaling.oracle_match", _get("scaling.oracle_match"),
         _absolute_floor(1.0),
         "every worker's outcome multiset must equal the cache-free "
         "oracle replay of its schedule slice"),
        ("warm_start.snapshot_loaded", _get("warm_start.snapshot_loaded"),
         _absolute_floor(1.0),
         "the warm fleet must actually have warm-started (a rejected "
         "snapshot silently measures cold vs cold)"),
        ("warm_start.promotions_saved",
         _get("warm_start.promotions_saved"), _absolute_floor(1.0),
         "warm-started workers must re-pay measurably fewer tier-2 "
         "promotions than cold ones"),
        ("warm_start.static_checks_saved",
         _get("warm_start.static_checks_saved"), _absolute_floor(1.0),
         "warm-started workers must re-pay measurably fewer static "
         "checks than cold ones"),
        ("warm_start.steady_speedup", _get("warm_start.steady_speedup"),
         _floor_and_fraction(1.0, 0.2),
         "warm-start-faster-than-cold: the warm fleet's first full "
         "pass must not be slower than the cold fleet's (the committed "
         "baseline records a much larger local gap; 0.2 tolerates "
         "shared-runner noise on a millisecond-scale window)"),
        ("warm_start.warm.tier_transitions",
         _get("warm_start.warm.tier_transitions"), _absolute_ceiling(8.0),
         "the warm fleet's promotion/deopt churn must stay near zero — "
         "a warm start that re-promotes everything is a cold start "
         "with extra steps"),
        ("warm_start.oracle_match", _get("warm_start.oracle_match"),
         _absolute_floor(1.0),
         "cold and warm fleets must both be oracle-identical (a warm "
         "start may never trade soundness for startup time)"),
    ],
    "chaos": [
        ("recovery.completion_rate", _get("recovery.completion_rate"),
         _absolute_floor(1.0),
         "scripted worker kills cost restarts and replays, never "
         "requests: the supervised fleet completes 100% of the "
         "schedule"),
        ("recovery.accounting_ok", _get("recovery.accounting_ok"),
         _absolute_floor(1.0),
         "scheduled == completed_first + completed_retried + abandoned "
         "must hold on the faulted run"),
        ("recovery.oracle_match", _get("recovery.oracle_match"),
         _absolute_floor(1.0),
         "every accepted outcome (replays included) must equal the "
         "cache-free oracle for its schedule index"),
        ("recovery.restarts", _get("recovery.restarts"),
         _absolute_floor(1.0),
         "the kill script must actually have exercised the supervisor "
         "(a restartless chaos run gates nothing)"),
        ("recovery.requests_replayed", _get("recovery.requests_replayed"),
         _absolute_floor(1.0),
         "respawned workers must actually have replayed remainders"),
        ("recovery.recovery_overhead", _get("recovery.recovery_overhead"),
         _ceiling_and_headroom(10.0, 4.0),
         "the recovery detour (detect + respawn + replay + backoff) "
         "stays a bounded multiple of the fault-free run — a timeout-"
         "shaped cliff lands here"),
        ("recovery.abandonment.accounting_ok",
         _get("recovery.abandonment.accounting_ok"), _absolute_floor(1.0),
         "accounting must survive retry-budget exhaustion too"),
        ("recovery.abandonment.isolated",
         _get("recovery.abandonment.isolated"), _absolute_floor(1.0),
         "an unrecoverable worker abandons exactly its own slice; "
         "every other slice completes oracle-identically"),
        ("breaker.trips", _get("breaker.trips"), _absolute_floor(1.0),
         "the flap storm must trip the deopt-storm breaker"),
        ("breaker.wasted_promotions_avoided",
         _get("breaker.wasted_promotions_avoided"), _absolute_floor(1.0),
         "the armed breaker must avoid the re-promotions the unarmed "
         "engine burns on a site that never stays warm"),
        ("breaker.steady_p999_ratio", _get("breaker.steady_p999_ratio"),
         _ceiling_and_headroom(0.9, 4.0),
         "post-trip steady tail: the armed p999 stays well under the "
         "keep-promoting p999 (ratio < 1; loose cap for shared-runner "
         "noise on microsecond calls)"),
        ("breaker.soundness", _get("breaker.soundness"),
         _absolute_floor(1.0),
         "armed and unarmed storms must produce identical outcomes — "
         "the breaker is a governor, not a soundness mechanism"),
    ],
}


def compare(suite: str, baseline: dict, current: dict) -> List[str]:
    failures = []
    for name, getter, ok, description in SUITES[suite]:
        try:
            cur = getter(current)
            base = getter(baseline)
        except (KeyError, TypeError) as exc:
            failures.append(f"{name}: missing from report ({exc!r})")
            continue
        verdict = "ok" if ok(cur, base) else "ALARM"
        print(f"[{suite}] {name}: current={cur} baseline={base} "
              f"-> {verdict}  ({description})")
        if verdict != "ok":
            failures.append(f"{name}: current={cur} baseline={base}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", required=True, choices=sorted(SUITES))
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    args = parser.parse_args(argv)
    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        with open(args.current) as handle:
            current = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot load reports: {exc}", file=sys.stderr)
        return 2
    failures = compare(args.suite, baseline, current)
    if failures:
        print("REGRESSION ALARM:\n  " + "\n  ".join(failures),
              file=sys.stderr)
        return 1
    print(f"[{args.suite}] all metrics within thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())

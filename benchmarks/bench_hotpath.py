"""Hot-path microbenchmarks: the steady-state intercepted-call fast path.

The tentpole claim: once a call site is warm, the JIT protocol collapses to
a guard + dict hit (call plan) instead of signature resolution + jit_check
+ mode dispatch, and the supporting caches (interned types, memoized
subtyping, class-name memo) keep the remaining dynamic work flat.  PR 4
adds tier 2 on top: hot plans compile into per-site specialized wrappers
(``repro.core.specialize``), so the default-engine ``fast_*`` figures now
measure the tiered engine and the ``tier2`` block isolates specialization
against a plans-only (``specialize=False``) engine.  The ``tier3`` block
isolates signature-fact elision (the wrapper omits the check-cache
probe of a checked plan, and the argument test where the parameter
types are vacuous) against an otherwise-identical ``elide=False``
engine, and the ``serving_elision`` block reports the deterministic
provability-audit rate on warm serving apps.

Two ways to run:

* ``PYTHONPATH=src python -m pytest benchmarks/bench_hotpath.py -q`` —
  asserts the >= 3x steady-state speedup versus the legacy (pre-plan)
  call path and that warm app workloads actually take the fast path;
* ``PYTHONPATH=src python benchmarks/bench_hotpath.py [--smoke]`` —
  prints a JSON report (the committed ``BENCH_hotpath.json`` baseline
  format) for perf-trajectory tracking across PRs.

The "legacy" engine below reproduces the pre-plan hot path faithfully:
call plans off *and* the per-hierarchy subtype memo off, so every call
re-resolves and every dynamic check re-walks the subtype relation.
"""

import json
import os
import sys
import time

from repro import Engine, EngineConfig
from repro.apps import all_builders
from repro.evalharness.table1 import engine_for

#: calls per timed loop (pytest asserts use the full size; --smoke shrinks).
CALLS = 100_000


def fast_engine() -> Engine:
    """The default engine: tier-1 call plans + tier-2 specialization."""
    return Engine()


def tier1_engine() -> Engine:
    """Call plans only — the pre-specialization (PR 1-3) fast path."""
    return Engine(EngineConfig(specialize=False))


def tier2_engine() -> Engine:
    """Specialized wrappers with elision off: every check op emitted."""
    return Engine(EngineConfig(elide=False))


def legacy_engine() -> Engine:
    engine = Engine(EngineConfig(call_plans=False, specialize=False))
    engine.hier.subtype_cache.enabled = False
    return engine


def _build_hot_class(engine):
    hb = engine.api()

    class HotCounter:
        @hb.typed("(Integer) -> Integer")
        def bump(self, n):
            return n + 1

    return HotCounter()


def steady_state_seconds(engine, calls: int = CALLS) -> float:
    """Time ``calls`` warm intercepted calls on one typed method."""
    counter = _build_hot_class(engine)
    counter.bump(0)  # warm: static check runs, plan (if any) is built
    for i in range(120):
        counter.bump(i)  # cross the tier-2 promotion threshold first
    start = time.perf_counter()
    for i in range(calls):
        counter.bump(i)
    return time.perf_counter() - start


def measure_tier3(calls: int = CALLS) -> dict:
    """The same hot leaf, default engine versus an ``elide=False`` twin.

    Both sides promote to a tier-2 wrapper; the only difference is the
    elided check ops (for this ``(Integer) -> Integer`` leaf, the
    check-cache membership probe), so the ratio isolates what elision
    alone buys.  The delta is one dict probe per call — real but small
    — so this measurement is hardened against scheduler noise: the loop never shrinks below 50k calls (even in --smoke) and
    each side reports its best of three runs, each on a fresh engine (a
    re-built hot class on a warm engine shares the first build's site
    and would sample a fallback path instead of the elided wrapper)."""
    calls = max(calls, 50_000)
    fast = fast_engine()
    fast_s = min(steady_state_seconds(fast_engine() if i else fast, calls)
                 for i in range(3))
    tier2_s = min(steady_state_seconds(tier2_engine(), calls)
                  for _ in range(3))
    stats = fast.stats
    return {
        "calls": calls,
        "fast_s": round(fast_s, 4),
        "tier2_s": round(tier2_s, 4),
        "calls_per_sec": round(calls / fast_s),
        "speedup_vs_tier2": round(tier2_s / fast_s, 2),
        "checks_elided": stats.checks_elided,
        "elide_promotions": stats.elide_promotions,
    }


# -- app-workload elision rate (provability audit) ---------------------------

#: serving app/mix pairs whose warm-site elision rate the baseline tracks.
ELISION_MIXES = (
    ("boxroom", "read"),
    ("boxroom", "mixed"),
    ("countries", "read"),
    ("countries", "mixed"),
    ("rolify", "read"),
    ("rolify", "mixed"),
)


def measure_serving_elision() -> dict:
    """Provable check-elimination rate on warm serving apps.

    For each app/mix pair, warm an engine by replaying the serving
    scenario and run the provability audit (``repro.ril.audit``): the
    rate is check ops proved redundant over check ops that actually run
    at warm sites.  Unlike the timing loops this is deterministic — it
    measures what the signature facts *prove*, not scheduler noise.
    """
    from repro.ril.audit import audit_engine, warm_serving_engine

    out = {}
    for app, mix in ELISION_MIXES:
        engine = warm_serving_engine(app, mix)
        summary = audit_engine(engine)["summary"]
        out[f"{app}_{mix}"] = {
            "rate": summary["elision_rate"],
            "proved": summary["proved"],
            "applicable": summary["applicable"],
            "sites": summary["sites"],
        }
    return out


def measure(calls: int = CALLS) -> dict:
    """The committed-baseline measurement: tiered vs tier-1 vs legacy.

    ``fast_*`` is the *default* engine — tier-2 specialization included
    — so the headline ``fast_calls_per_sec`` tracks what a real
    deployment gets.  The ``tier2`` block isolates the specializer's
    contribution against a plans-only engine.
    """
    fast = fast_engine()
    fast_s = steady_state_seconds(fast, calls)
    tier1 = tier1_engine()
    tier1_s = steady_state_seconds(tier1, calls)
    legacy_s = steady_state_seconds(legacy_engine(), calls)
    fast_stats = fast.stats
    return {
        "calls": calls,
        "fast_s": round(fast_s, 4),
        "tier1_s": round(tier1_s, 4),
        "legacy_s": round(legacy_s, 4),
        "fast_calls_per_sec": round(calls / fast_s),
        "tier1_calls_per_sec": round(calls / tier1_s),
        "legacy_calls_per_sec": round(calls / legacy_s),
        "speedup": round(legacy_s / fast_s, 2),
        "fast_path_hits": fast_stats.fast_path_hits,
        "tier2": {
            "speedup_vs_tier1": round(tier1_s / fast_s, 2),
            "promotions": fast_stats.promotions,
            "deopts": fast_stats.deopts,
            "specialized_hits": fast_stats.specialized_hits,
            "specialized_hit_ratio": round(
                fast_stats.specialized_hits / fast_stats.fast_path_hits, 4),
        },
        "tier3": measure_tier3(calls),
        "reload": measure_reload(),
        "serving_elision": measure_serving_elision(),
    }


# -- dev-mode reload scenario -------------------------------------------------

#: warm methods in the simulated dev-mode app and calls per method in the
#: post-churn measurement sweep.
RELOAD_METHODS = 24
RELOAD_CALLS_PER_METHOD = 5


def _build_reload_world(engine, methods: int = RELOAD_METHODS):
    """A class with ``methods`` statically-checked typed methods, defined
    the dev-mode way (run-time define_method with IR sources)."""
    cls = type("DevReload", (object,), {})
    engine.register_class(cls)
    for i in range(methods):
        name = f"m{i}"
        source = f"def {name}(self, n):\n    return n + {i}\n"
        namespace = {}
        exec(source, namespace)  # noqa: S102 - benchmark-local template
        fn = namespace[name]
        fn.__hb_source__ = source
        engine.define_method(cls, name, fn, sig="(Integer) -> Integer",
                             check=True, source=source)
    return cls()


def measure_reload(methods: int = RELOAD_METHODS,
                   calls_per_method: int = RELOAD_CALLS_PER_METHOD) -> dict:
    """Dev-mode reload churn: retype ONE method (plus the other noise a
    file reload makes — a fresh class registration and a re-executed
    field_type), then measure how much of the next request is still
    served by warm call plans.

    Under the old coarse version guards the retype alone killed every
    plan (warm hit rate 0 on the next sweep); with dependency-tracked
    invalidation only the churned method rebuilds.
    """
    engine = fast_engine()
    obj = _build_reload_world(engine, methods)
    for _ in range(2):  # warm every call site
        for i in range(methods):
            getattr(obj, f"m{i}")(1)
    stats = engine.stats
    invalidations_before = stats.plan_invalidations
    # the "reload": re-execute one method's (changed) annotation, define a
    # new class, and re-run an identical field_type
    engine.types.replace("DevReload", "m0", "(Integer) -> Integer",
                         check=True)
    engine.register_class(type("ReloadFreshClass", (object,), {}))
    engine.field_type("DevReload", "scratch", "Integer")
    engine.field_type("DevReload", "scratch", "Integer")  # identical re-add
    hits0, calls0 = stats.fast_path_hits, stats.calls_intercepted
    for _ in range(calls_per_method):
        for i in range(methods):
            getattr(obj, f"m{i}")(1)
    calls = stats.calls_intercepted - calls0
    rate = (stats.fast_path_hits - hits0) / calls
    return {
        "methods": methods,
        "calls_after_churn": calls,
        "plans_invalidated_by_churn":
            stats.plan_invalidations - invalidations_before,
        "warm_hit_rate": round(rate, 4),
    }


# -- pytest entry points -----------------------------------------------------

#: measure() is three 100k-call timing loops plus the reload sweep; the
#: pytest assertions below all judge one measurement, so share it.
_MEASURED = None


def _measured() -> dict:
    global _MEASURED
    if _MEASURED is None:
        _MEASURED = measure()
    return _MEASURED


def test_steady_state_speedup_at_least_3x():
    """Acceptance criterion: >= 3x on the warm intercepted-call loop.

    Shared CI runners are noisy; CI exports HOTPATH_MIN_SPEEDUP=2 as its
    alarm threshold while local runs enforce the full 3x.
    """
    floor = float(os.environ.get("HOTPATH_MIN_SPEEDUP", "3.0"))
    result = _measured()
    assert result["fast_path_hits"] >= result["calls"]
    assert result["speedup"] >= floor, result


def test_tier2_beats_tier1():
    """PR 4 acceptance: the specialized wrapper beats the generic plan
    path on the same loop (locally >= 1.5x; CI alarms at 1.2x via
    HOTPATH_MIN_TIER2 because shared runners are noisy), and promotion
    actually happened with the steady state riding specialized code.
    """
    floor = float(os.environ.get("HOTPATH_MIN_TIER2", "1.5"))
    result = _measured()
    tier2 = result["tier2"]
    assert tier2["promotions"] >= 1, result
    assert tier2["specialized_hit_ratio"] > 0.99, result
    assert tier2["speedup_vs_tier1"] >= floor, result


def test_tier3_elision_beats_tier2():
    """Elision proves the hot leaf's cache probe redundant (promotion
    carries an elision, checks actually elide at run time) and the
    stripped wrapper beats an elide-off engine on the same loop.  The speedup gate is strictly > 1.0 — elision must never
    cost — with CI able to relax via HOTPATH_MIN_TIER3 if shared-runner
    noise ever flakes it."""
    floor = float(os.environ.get("HOTPATH_MIN_TIER3", "1.0"))
    tier3 = _measured()["tier3"]
    assert tier3["elide_promotions"] >= 1, tier3
    assert tier3["checks_elided"] > 0, tier3
    assert tier3["speedup_vs_tier2"] > floor, tier3


def test_app_workload_elision_rates():
    """The provability audit's elision rate on warm serving apps.
    Deterministic (no timing), so the floors are tight: rolify must stay
    solidly above 0.0 (the rate with no name-level contract gate), and
    the read-heavy app mixes must hold at least 0.55."""
    elision = _measured()["serving_elision"]
    assert elision["rolify_read"]["rate"] >= 0.4, elision
    assert elision["rolify_mixed"]["rate"] >= 0.4, elision
    for name in ("boxroom_read", "boxroom_mixed",
                 "countries_read", "countries_mixed"):
        assert elision[name]["rate"] >= 0.55, (name, elision)
        assert elision[name]["applicable"] > 0, (name, elision)


def test_warm_workloads_take_the_fast_path():
    """A warm pubs/cct workload is served almost entirely by call plans."""
    cfg = {"pubs": {"publications": 40}, "cct": {"repeats": 10}}
    for app in ("pubs", "cct"):
        world = all_builders()[app](engine_for("hum"), **cfg[app])
        world.seed()
        world.workload()  # load phase: annotations execute, checks cache
        world.seed()
        world.workload()  # steady state
        stats = world.engine.stats
        assert stats.fast_path_hits > 0
        assert stats.fast_path_hits > stats.calls_intercepted * 0.9, app


def test_reload_churn_keeps_plans_warm():
    """Acceptance criterion: after redefining an unrelated method, the
    warm call-plan hit rate stays above 90% (dependency-tracked
    invalidation; the old per-version flush dropped to 0%)."""
    result = _measured()["reload"]
    assert result["warm_hit_rate"] > 0.9, result
    # only the churned method's site rebuilt
    assert result["plans_invalidated_by_churn"] == 1, result


def test_profile_cache_never_skips_a_failing_check():
    """Inline-cache soundness: a warm site still rejects bad argument
    classes (the profile only memoizes *passing* class tuples)."""
    import pytest

    from repro import ArgumentTypeError

    counter = _build_hot_class(fast_engine())
    for i in range(50):
        counter.bump(i)
    with pytest.raises(ArgumentTypeError):
        counter.bump("not an integer")


def test_benchmark_fast_steady_state(benchmark):
    counter = _build_hot_class(fast_engine())
    counter.bump(0)
    benchmark(counter.bump, 1)


def test_benchmark_legacy_steady_state(benchmark):
    counter = _build_hot_class(legacy_engine())
    counter.bump(0)
    benchmark(counter.bump, 1)


# -- baseline script ---------------------------------------------------------


def main(argv) -> int:
    calls = 10_000 if "--smoke" in argv else CALLS
    result = measure(calls)
    print(json.dumps(result, indent=2))
    if "--smoke" in argv and result["speedup"] < 2.0:
        # Smoke runs on shared CI runners are noisy; 2x is the alarm
        # threshold there, while the pytest assertion enforces 3x locally.
        print("FAIL: smoke speedup below 2x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

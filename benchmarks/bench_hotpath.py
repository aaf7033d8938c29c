"""Hot-path microbenchmark: what one warm intercepted call costs, per tier.

The end-to-end record of checking overhead is ``perfbench`` (see
``BENCHMARK.json``): Hum ÷ Orig per workload, with per-tier request
times.  This file is the one microbenchmark under it.  It times a
trivial ``(Integer) -> Integer`` method in tight loops and makes three
timing assertions:

* **speedup** — the default (tiered) engine against the legacy call
  path, which has call plans off, so every call re-resolves its method
  in ``Engine.invoke``: >= 3x;
* **tier 2** — specialized wrappers against a plans-only
  (``specialize=False``) engine: >= 1.5x;
* **overhead** — the interception tax (wrapper ns minus the unwrapped
  method's ns) of the specialized wrapper is at most 0.4 of the
  generic wrapper's.

Run it with::

    PYTHONPATH=src python -m pytest benchmarks/bench_hotpath.py -q -s --benchmark-disable

``-s`` prints each measurement, ``specialized_overhead_ns`` included.
Shared CI runners are noisy, so each floor can be relaxed through its
environment variable: ``HOTPATH_MIN_SPEEDUP``, ``HOTPATH_MIN_TIER2``
and ``OVERHEAD_MAX_FRACTION``.
"""

import os
import time

from repro import Engine, EngineConfig

#: calls per timed loop.
CALLS = 100_000
OVERHEAD_CALLS = 200_000


def fast_engine() -> Engine:
    """The default engine: tier-1 call plans + tier-2 specialization."""
    return Engine()


def tier1_engine() -> Engine:
    """Call plans only — the generic wrapper into ``Engine.invoke``."""
    return Engine(EngineConfig(specialize=False))


def legacy_engine() -> Engine:
    return Engine(EngineConfig(call_plans=False, specialize=False))


class _Plain:
    """The unwrapped control: same body, no engine anywhere near it."""

    def bump(self, n):
        return n + 1


def _typed_counter(engine):
    hb = engine.api()

    class HotCounter:
        @hb.typed("(Integer) -> Integer")
        def bump(self, n):
            return n + 1

    return HotCounter()


def _warm(obj) -> None:
    """Static check, plan build, and past the tier-2 promotion
    threshold (50 calls by default)."""
    for i in range(150):
        obj.bump(i)


def steady_state_seconds(engine, calls: int = CALLS) -> float:
    """Time ``calls`` warm intercepted calls on one typed method."""
    counter = _typed_counter(engine)
    _warm(counter)
    start = time.perf_counter()
    for i in range(calls):
        counter.bump(i)
    return time.perf_counter() - start


def measure(calls: int = CALLS) -> dict:
    """The default engine against tier 1 and the legacy call path."""
    fast = fast_engine()
    fast_s = steady_state_seconds(fast, calls)
    tier1_s = steady_state_seconds(tier1_engine(), calls)
    legacy_s = steady_state_seconds(legacy_engine(), calls)
    stats = fast.stats
    return {
        "calls": calls,
        "fast_calls_per_sec": round(calls / fast_s),
        "tier1_calls_per_sec": round(calls / tier1_s),
        "legacy_calls_per_sec": round(calls / legacy_s),
        "speedup": round(legacy_s / fast_s, 2),
        "fast_path_hits": stats.fast_path_hits,
        "tier2_speedup_vs_tier1": round(tier1_s / fast_s, 2),
        "promotions": stats.promotions,
        "specialized_hit_ratio": round(
            stats.specialized_hits / stats.fast_path_hits, 4),
    }


def _ns_per_call(obj, calls: int) -> float:
    _warm(obj)
    # Bind *after* warming: tier-2 promotion rebinds the class
    # attribute, and a bound method hoisted before promotion would keep
    # dispatching through the displaced generic wrapper.
    bump = obj.bump
    start = time.perf_counter()
    for i in range(calls):
        bump(i)
    return (time.perf_counter() - start) / calls * 1e9


def measure_overhead(calls: int = OVERHEAD_CALLS) -> dict:
    """Per-call interception tax: unwrapped vs generic vs specialized."""
    unwrapped_ns = _ns_per_call(_Plain(), calls)
    generic_ns = _ns_per_call(_typed_counter(tier1_engine()), calls)
    spec_engine = fast_engine()
    specialized_ns = _ns_per_call(_typed_counter(spec_engine), calls)
    return {
        "calls": calls,
        "unwrapped_ns": round(unwrapped_ns, 1),
        "generic_ns": round(generic_ns, 1),
        "specialized_ns": round(specialized_ns, 1),
        "generic_overhead_ns": round(generic_ns - unwrapped_ns, 1),
        "specialized_overhead_ns": round(specialized_ns - unwrapped_ns, 1),
        "promotions": spec_engine.stats.promotions,
    }


# -- timing assertions --------------------------------------------------------

#: measure() is three timing loops; two tests judge the same run.
_MEASURED = None


def _measured() -> dict:
    global _MEASURED
    if _MEASURED is None:
        _MEASURED = measure()
        print("\nhotpath:", _MEASURED)
    return _MEASURED


def test_steady_state_speedup_at_least_3x():
    """>= 3x on the warm intercepted-call loop, every call on a plan."""
    floor = float(os.environ.get("HOTPATH_MIN_SPEEDUP", "3.0"))
    result = _measured()
    assert result["fast_path_hits"] >= result["calls"], result
    assert result["speedup"] >= floor, result


def test_tier2_beats_tier1():
    """The specialized wrapper beats the generic plan path on the same
    loop, and the steady state actually rides specialized code."""
    floor = float(os.environ.get("HOTPATH_MIN_TIER2", "1.5"))
    result = _measured()
    assert result["promotions"] >= 1, result
    assert result["specialized_hit_ratio"] > 0.99, result
    assert result["tier2_speedup_vs_tier1"] >= floor, result


def test_specialized_wrapper_cuts_interception_overhead():
    """Tier 2 removes a large constant fraction of the per-call
    interception tax: the specialized overhead is at most
    OVERHEAD_MAX_FRACTION (0.4) of the generic overhead."""
    fraction = float(os.environ.get("OVERHEAD_MAX_FRACTION", "0.4"))
    result = measure_overhead()
    print("\noverhead:", result)
    assert result["promotions"] >= 1, result
    assert result["specialized_ns"] < result["generic_ns"], result
    assert (result["specialized_overhead_ns"]
            <= fraction * result["generic_overhead_ns"]), result

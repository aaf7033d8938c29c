"""What JIT static checking costs one request: a closed-loop, CPU-bound,
oracle-checked benchmark over the paper's apps.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady_read --seed 1 --seconds 20 --trace 0

One client in one process sends each request after the previous one
returned -- callers of this in-process library wait for every result.
Hum (a default ``Engine()``) and Orig (``EngineConfig(intercept=False)``)
run the same seeded schedule in alternating blocks, so machine drift
cancels out of their ratio.  After the measured phase one period of the
schedule is replayed on cache-free oracle worlds
(``Engine(disable_caches=True)``) and every measured outcome is compared
with the oracle's outcome for its slot.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: counters, a tier decomposition (Orig, tier 1,
tier 2, tier 3 on the same schedule) and span self times from a separate
traced run.  See ``perfbench/README.md`` for what each metric should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any outcome differs from the oracle or the program under
test cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path
from typing import List, Optional, Tuple

from calibrate import Calibration

ROOT = Path(__file__).resolve().parent.parent
#: Hum set-ups per timed run; setup_s is their median.
SETUP_REPEATS = 7
#: share of a traced run's seconds given to the tier decomposition; the
#: rest goes to the traced run.
TIER_SHARE = 0.6
SPAN_DIR = Path(".perfbench")
#: requests per statistics window: enough for ten samples beyond p99.
WINDOW = 1000


class Side:
    """One stage's record in a measured phase: per-request times, block
    times and one outcome hash per measured slot."""

    def __init__(self, name: str, stage, tracer=None) -> None:
        self.name = name
        self.stage = stage
        self.tracer = tracer
        self.times: List[int] = []
        self.block_ns: List[int] = []
        self.block_wall_ns: List[int] = []
        self.outcomes = array("q")

    def run_block(self, start: int, count: int) -> None:
        from workloads import Raised, outcome_hash
        call = self.stage.call
        tracer = self.tracer
        clock = time.perf_counter_ns
        times = self.times
        results = []
        block_start = clock()
        for j in range(start, start + count):
            if tracer is not None:
                tracer.request = j
            t0 = clock()
            try:
                result = call(j)
            except Exception as exc:  # noqa: BLE001 - the error is the outcome
                result = Raised(exc)
            times.append(clock() - t0)
            results.append(result)
        self.block_wall_ns.append(clock() - block_start)
        self.block_ns.append(sum(times[-count:]))
        self.outcomes.extend(outcome_hash(r) for r in results)

    def windows(self, size: int) -> List[Tuple[List[int], int]]:
        """(sorted request times, wall ns) per window of ``size`` requests,
        a whole number of blocks.  A trailing partial window is dropped
        unless it is the only one."""
        block = len(self.times) // len(self.block_ns)
        out = [(sorted(self.times[i:i + size]),
                sum(self.block_wall_ns[i // block:(i + size) // block]))
               for i in range(0, len(self.times), size)]
        if len(out) > 1 and len(out[-1][0]) < size:
            out.pop()
        return out

    @property
    def mean_us(self) -> float:
        return sum(self.times) / len(self.times) / 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(sides: List[Side], block: int, seconds: float, rss_after: int,
            calibration: Calibration) -> Tuple[int, float]:
    """Alternate blocks of the same schedule slots over ``sides`` until
    ``seconds`` pass; the side order reverses every round.  Returns the
    requests each side ran and the peak RSS once ``rss_after`` requests
    per side are done (or at the end, if the run is shorter).

    Between blocks, outside the timed region, the collector runs and
    the survivors are frozen.  Otherwise a full collection over a
    growing heap (cold_start's leaked Hum engines) lands in a random
    request and sets p99 by chance.  The leak itself still shows in the
    RSS figure.  The calibration kernel is sampled once a round."""
    deadline = time.perf_counter() + seconds
    start = 0
    rss: Optional[float] = None
    while True:
        order = sides if (start // block) % 2 == 0 else sides[::-1]
        for side in order:
            side.run_block(start, block)
            gc.collect()
            gc.freeze()
        calibration.sample()
        start += block
        if rss is None and start >= rss_after:
            rss = peak_rss_mb()
        if time.perf_counter() >= deadline:
            return start, rss if rss is not None else peak_rss_mb()


def set_up(workload, config: str, seed: int, calibration: Calibration):
    """Build, seed and warm one stage.  Returns it with its set-up time,
    raw and at reference speed (from a kernel sample taken right after)."""
    from workloads import engine_factory
    t0 = time.perf_counter()
    stage = workload.stage(engine_factory(config), seed)
    workload.warm(stage)
    took = time.perf_counter() - t0
    return stage, took, took * calibration.sample()


def oracle_failures(workload, seed: int, sides: List[Side]) -> int:
    """Replay one period on cache-free worlds and count measured
    outcomes (any side, any slot) that differ from the oracle's."""
    from workloads import engine_factory
    stage = workload.stage(engine_factory("oracle"), seed)
    oracle = Side("oracle", stage)
    oracle.run_block(0, len(stage.schedule))
    expected = oracle.outcomes
    period = len(expected)
    return sum(1 for side in sides
               for j, got in enumerate(side.outcomes)
               if got != expected[j % period])


def percentile(sorted_values: List[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def timed_run(workload, seed: int, seconds: float):
    calibration = Calibration()
    setups, scaled_setups = [], []
    for _ in range(SETUP_REPEATS):
        hum_stage = None  # drop the previous set-up's worlds first
        hum_stage, took, scaled = set_up(workload, "hum", seed, calibration)
        setups.append(took)
        scaled_setups.append(scaled)
    orig_stage = set_up(workload, "orig", seed, calibration)[0]
    gc.collect()
    hum, orig = Side("hum", hum_stage), Side("orig", orig_stage)
    requests, rss = measure([hum, orig], workload.block, seconds,
                            workload.rss_after, calibration)
    failed = oracle_failures(workload, seed, [hum, orig])

    n = len(hum.times)
    windows = hum.windows(-(-WINDOW // workload.block) * workload.block)
    raw = {
        "req_us_p50": statistics.median(
            percentile(t, 50) for t, _ in windows) / 1e3,
        "req_us_p99": statistics.median(
            percentile(t, 99) for t, _ in windows) / 1e3,
        "req_per_s": statistics.median(
            len(t) / (wall / 1e9) for t, wall in windows),
        "setup_s": statistics.median(setups),
    }
    scale = calibration.scale
    metrics = {
        "req_us_p50": metric(raw["req_us_p50"] * scale, "us", n),
        "req_us_p99": metric(raw["req_us_p99"] * scale, "us", n),
        "req_per_s": metric(raw["req_per_s"] / scale, "1/s", n),
        "hum_over_orig": metric(sum(hum.block_ns) / sum(orig.block_ns),
                                "ratio", len(hum.block_ns)),
        "setup_s": metric(statistics.median(scaled_setups), "s",
                          len(setups)),
        "peak_rss_mb": metric(rss, "MB", 1),
    }
    attempted = 2 * requests
    size = len(windows[0][0])
    info = {"windows": len(windows), "window_requests": size,
            "samples_beyond_p99": size - -(-size * 99 // 100),
            "kernel_us": calibration.kernel_us,
            "kernel_samples": len(calibration.samples),
            "uncalibrated": raw,
            "failed_frac": failed / attempted}
    return metrics, attempted, failed, info


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(workload, seed: int, seconds: float):
    from spans import COUNT_ONLY, TARGETS, Tracer, instrument
    from workloads import CHURN_KINDS

    # Tier decomposition: the same slots, untraced, under each config.
    calibration = Calibration()
    sides = [Side(config, set_up(workload, config, seed, calibration)[0])
             for config in ("orig", "t1", "t2", "hum")]
    hum = sides[-1]
    before = hum.stage.counts()
    gc.collect()
    requests, _ = measure(sides, workload.block, seconds * TIER_SHARE,
                          workload.rss_after, calibration)
    after = hum.stage.counts()
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}

    # The traced run: a fresh Hum stage built with every layer wrapped.
    tracer = Tracer()
    with instrument(tracer):
        stage = set_up(workload, "hum", seed, calibration)[0]
        stage.churns = [tracer.wrap(f"churn.{kind}", step)
                        for kind, step in zip(CHURN_KINDS, stage.churns)]
        traced = Side("traced", stage, tracer)
        gc.collect()
        tracer.active = True
        traced_requests, _ = measure([traced], workload.block,
                                     seconds * (1 - TIER_SHARE),
                                     workload.rss_after, calibration)
        tracer.active = False
    failed = oracle_failures(workload, seed, sides + [traced])
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(SPAN_DIR / f"spans-{workload.name}-seed{seed}.csv")

    # Counters: exact deltas of the untraced tier-3 (Hum) side.
    n = requests
    calls = delta.get("calls_intercepted", 0)

    def d(name: str) -> int:
        return delta.get(name, 0)

    metrics = {
        "engine.calls_per_req": metric(calls / n, "count/req", n),
        "plans.hit_ratio": metric(_ratio(d("fast_path_hits"), calls),
                                  "ratio", n),
        "specialize.hit_ratio": metric(_ratio(d("specialized_hits"), calls),
                                       "ratio", n),
        "specialize.promotions_per_kreq": metric(
            1e3 * d("promotions") / n, "count/kreq", n),
        "specialize.deopts_per_kreq": metric(1e3 * d("deopts") / n,
                                             "count/kreq", n),
        "elide.checks_elided_per_call": metric(
            _ratio(d("checks_elided"), calls), "ratio", n),
        "cache.hit_ratio": metric(_ratio(
            d("cache_hits"), d("cache_hits") + d("cache_misses")), "ratio", n),
        "checker.checks_per_kreq": metric(1e3 * d("static_checks") / n,
                                          "count/kreq", n),
        "deps.invalidations_per_kreq": metric(1e3 * d("invalidations") / n,
                                              "count/kreq", n),
        "subtype.memo_hit_ratio": metric(_ratio(
            d("subtype_cache_hits"),
            d("subtype_cache_hits") + d("subtype_cache_misses")), "ratio", n),
    }
    # Tier decomposition: mean request time per configuration.  Times
    # are at reference speed, like the end-to-end ones.
    scale = calibration.scale
    tiers = {side.name: side.mean_us * scale for side in sides}
    for config, label in (("orig", "orig"), ("t1", "t1"), ("t2", "t2"),
                          ("hum", "t3")):
        metrics[f"tier.{label}_us"] = metric(tiers[config], "us", n)
    metrics["wrap.ns_per_call"] = metric(
        _ratio((tiers["hum"] - tiers["orig"]) * 1e3, calls / n), "ns/call",
        n)
    # Spans: self time and calls per request of the traced run.
    t = traced_requests
    for name in sorted({target[3] for target in TARGETS}):
        metrics[f"{name}.calls_per_req"] = metric(tracer.calls[name] / t,
                                                  "count/req", t)
        if name not in COUNT_ONLY:
            metrics[f"{name}.self_us_per_req"] = metric(
                tracer.self_ns[name] * scale / 1e3 / t, "us/req", t)
    for kind in CHURN_KINDS:
        name = f"churn.{kind}"
        metrics[f"{name}.step_us"] = metric(
            _ratio(tracer.total_ns[name] * scale / 1e3, tracer.calls[name]),
            "us",
            tracer.calls[name])
    metrics["trace.overhead_frac"] = metric(
        traced.mean_us / hum.mean_us - 1, "ratio", t)

    attempted = requests * len(sides) + traced_requests
    return metrics, attempted, failed, {
        "spans": sum(tracer.calls.values()), "spans_kept": len(tracer.spans),
        "kernel_us": calibration.kernel_us}


def run_metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program under test is missing "
              f"({src / 'repro'} not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; pick one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    run = traced_run if args.trace else timed_run
    metrics, attempted, failed, info = run(workload, args.seed, args.seconds)
    meta = run_metadata(args)
    meta.update(info)
    print(json.dumps({"meta": meta}))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']:6s} "
              f"(n={m['samples']})")
    print(f"{'failed_frac':40s} {failed / attempted:>14.6g} share  "
          f"(n={attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

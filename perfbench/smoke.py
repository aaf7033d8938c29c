"""Smoke and steadiness checks for the benchmark itself.

    python3 perfbench/smoke.py             # ~30 s: every workload, short runs
    python3 perfbench/smoke.py --spread 10 # 10 seeds per workload, full length

The smoke run checks, for a short traced run of every workload, that no
outcome differs from the oracle and that the layers the workload exists
to exercise did work (and that steady_read's measured phase did *no*
static checking or lowering).  It also checks that the emitted metric
names are exactly those ``BENCHMARK.json`` declares, and that the
benchmark refuses to report anything in a directory without ``src/``.

``--spread N`` runs every workload on N seeds at ``run_seconds`` and
prints each end-to-end metric's quartile spread as a share of its
median, against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: per workload: (metric, predicate, what it means) on a traced run.
EXPECT = {
    "steady_read": [
        ("checker.checks_per_kreq", lambda v: v == 0, "no static checks"),
        ("ril.register_function.calls_per_req", lambda v: v == 0,
         "no lowering"),
        ("specialize.hit_ratio", lambda v: v > 0.9, "sites on tier 2/3"),
        ("elide.checks_elided_per_call", lambda v: v > 0, "checks elided"),
        ("sqldb.read.calls_per_req", lambda v: v > 0, "sqldb reads"),
    ],
    "write_cycles": [
        ("sqldb.write.calls_per_req", lambda v: v > 0, "sqldb writes"),
        ("engine.cast.calls_per_req", lambda v: v > 1, "casts"),
        ("engine.validate_untrusted_hash.calls_per_req", lambda v: v > 0,
         "untrusted params validated"),
        ("specialize.hit_ratio", lambda v: v > 0.5, "warm wrappers"),
    ],
    "metaprog_churn": [
        ("ril.register_function.calls_per_req", lambda v: v > 0,
         "lowering"),
        ("engine.annotate.calls_per_req", lambda v: v > 0, "re-annotation"),
        ("deps.invalidations_per_kreq", lambda v: v > 0, "invalidation"),
        ("specialize.discard_slot.calls_per_req", lambda v: v > 0,
         "slot discards"),
        ("churn.retype.step_us", lambda v: v > 0, "retype steps"),
        ("churn.reload.step_us", lambda v: v > 0, "reload steps"),
        ("churn.typegen.step_us", lambda v: v > 0, "typegen steps"),
    ],
    "cold_start": [
        ("engine.jit_check.calls_per_req", lambda v: v > 0, "JIT checks"),
        ("checker.check_method.calls_per_req", lambda v: v > 0,
         "method checks"),
        ("checker.checks_per_kreq", lambda v: v > 0, "static checks"),
        ("ril.register_function.calls_per_req", lambda v: v > 0,
         "first lowering"),
    ],
}


def run(workload: str, seed: int, seconds: float, trace: int,
        cwd: Path = ROOT) -> tuple:
    """Run the benchmark once; returns (exit code, last JSON line or None)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is not None and "metrics" not in result:
        result = None
    return proc.returncode, result


def smoke() -> int:
    problems = []
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    for workload in EXPECT:
        code, result = run(workload, seed=7, seconds=1.5, trace=1)
        if code != 0 or result is None or result["failed"]:
            problems.append(f"{workload}: exit {code}, result {result}")
            continue
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if set(metrics) != layer_names:
            problems.append(f"{workload}: per-layer names differ from "
                            f"BENCHMARK.json: "
                            f"{sorted(set(metrics) ^ layer_names)}")
        for name, ok, meaning in EXPECT[workload]:
            if not ok(metrics[name]):
                problems.append(f"{workload}: {meaning}: {name} = "
                                f"{metrics[name]}")
        print(f"{workload}: traced run ok ({result['attempted']} requests)")

    code, result = run("write_cycles", seed=8, seconds=1.5, trace=0)
    e2e_names = {m["name"] for m in SPEC["end_to_end"]}
    if code != 0 or result is None or set(result["metrics"]) != e2e_names:
        problems.append(f"timed run: exit {code}, result {result}")
    else:
        print("write_cycles: timed run ok")

    # Without the program under test the benchmark must fail, silently.
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = run("steady_read", seed=1, seconds=1, trace=0, cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        problems.append(f"bare directory: exit {code}, result {result}")
    else:
        print(f"bare directory: refused (exit {code})")

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


def spread(seeds: int) -> int:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    worst = 0.0
    for workload in (w["name"] for w in SPEC["workloads"]):
        values: dict = {}
        for seed in range(1, seeds + 1):
            code, result = run(workload, seed, SPEC["run_seconds"], 0)
            if code != 0 or result is None:
                print(f"FAIL {workload} seed {seed}: exit {code}")
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({seeds} seeds)")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / statistics.median(vals)
            if name != "setup_s":
                worst = max(worst, share / bounds[name])
            print(f"  {name:14s} median {statistics.median(vals):12.6g}  "
                  f"spread {share:.4f}  bound {bounds[name]}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    return 0 if worst <= 1 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spread", type=int, default=0, metavar="SEEDS")
    args = parser.parse_args()
    return spread(args.spread) if args.spread else smoke()


if __name__ == "__main__":
    sys.exit(main())

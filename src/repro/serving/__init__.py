"""``repro.serving`` — the end-to-end load harness.

The concurrency layer drives requests; this package turns them into
*production-shaped* traffic and verifies it: read, write-heavy and
mixed request mixes over all six subject apps (the ``sqldb``
create/update/destroy paths on boxroom / countries / rolify), dev-mode
reload and schema-retype churn running from dedicated mutator threads
while N request threads are in flight, pre-fork fleets (fail-fast or
supervised) forked from a warm or snapshot-restored parent, and
per-request latency percentiles (p50/p95/p99/p999) so promotion and
deopt waves surface as tail latency instead of averaging away.

* :mod:`~repro.serving.latency` — per-thread reservoir latency
  recorder, nearest-rank percentiles, exact merge;
* :mod:`~repro.serving.recipes` — the request catalog, built on a
  disjoint-resource discipline that keeps every outcome
  interleaving-independent (so the differential oracle bar stays
  absolute even for writes);
* :mod:`~repro.serving.churn` — reloader/typegen/retype mutator
  recipes;
* :mod:`~repro.serving.harness` — one :class:`Scenario`, one
  :func:`run_scenario` for the thread and fork backends, one
  :class:`Report` (rps, percentiles, per-phase tier transitions,
  recovery accounting, the per-index cache-free oracle verdict).

The end-to-end benchmark (``perfbench/``) builds its workloads from the
recipes and churn steps; ``tests/serving/`` holds the differential and
stress suites that drive whole scenarios.
"""

from .churn import churn_suite, reload_churn, retype_churn, typegen_churn
from .harness import Report, Scenario, run_scenario
from .latency import (
    DEFAULT_CAPACITY, LatencyRecorder, LatencySummary, Reservoir, nearest_rank,
    summarize_samples,
)
from .recipes import (
    build_serving_world, mask_ids, mixed_thunks, read_thunks, scenario_thunks,
    write_heavy_thunks, write_thunks,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "LatencyRecorder",
    "LatencySummary",
    "Report",
    "Reservoir",
    "Scenario",
    "build_serving_world",
    "churn_suite",
    "mask_ids",
    "mixed_thunks",
    "nearest_rank",
    "read_thunks",
    "reload_churn",
    "retype_churn",
    "run_scenario",
    "scenario_thunks",
    "summarize_samples",
    "typegen_churn",
    "write_heavy_thunks",
    "write_thunks",
]

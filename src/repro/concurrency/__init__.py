"""``repro.concurrency`` — the request drivers under the serving harness.

The ROADMAP north star is a production-scale system serving heavy
traffic, which means many request threads hitting the same engine — the
same call plans, check cache, and subtype memo — concurrently.  The
engine's locking discipline (lock-free warm reads, one writer lock,
epoch-guarded memo stores; see ``docs/performance.md`` "Concurrency")
makes that safe; this package makes it *drivable and checkable*:

* :class:`~repro.concurrency.driver.ConcurrentDriver` — replays a
  request schedule through an app from N worker threads, optionally
  with dev-mode churn threads retyping/redefining methods mid-flight,
  recording each request's outcome by schedule index;
* :class:`~repro.concurrency.supervise.SupervisedDriver` — the pre-fork
  mode: forks N workers that inherit the parent's (optionally
  snapshot-warmed) engine copy-on-write, reports each request's outcome
  back in batches, and respawns dead or hung workers from the warm
  parent (``max_retries=0`` is the fail-fast mode).

Both deal the schedule with :func:`~repro.concurrency.driver.schedule_slice`.
The request mixes live in :mod:`repro.serving.recipes`, and
:func:`repro.serving.run_scenario` drives either backend and verifies
every outcome against a cache-free oracle.
"""

from .driver import (
    ConcurrentDriver, DriverRun, normalize_outcome, schedule_slice,
)
from .supervise import SupervisedDriver, SupervisedRun, fork_available

__all__ = [
    "ConcurrentDriver",
    "DriverRun",
    "SupervisedDriver",
    "SupervisedRun",
    "fork_available",
    "normalize_outcome",
    "schedule_slice",
]

"""Shared test plumbing: the cache-disabled differential mode.

The ``REPRO_DISABLE_CACHES=1`` environment switch turns every engine into
a cache-free oracle (no call plans, no check memoization, no subtype or
linearization memos).  CI runs the whole tier-1 suite in that mode to
prove cached and uncached engines produce identical judgments.

Tests that assert *memoization-specific* observables — hit counters,
"checked exactly once", entry-present-in-cache — are meaningless for the
oracle and carry ``@pytest.mark.requires_caches``; every behavioral
assertion (which errors are raised, what calls return) runs in both
modes.

The analogous ``REPRO_DISABLE_THREADS=1`` switch skips tests carrying
``@pytest.mark.requires_threads`` — the multi-threaded soundness and
stress suites — for single-threaded debugging runs (e.g. bisecting a
failure that threads would only make noisier).  CI runs the threaded
suite in a dedicated job with ``faulthandler`` timeouts so a deadlock
dumps every thread's stack and fails fast instead of hanging the
runner.
"""

import multiprocessing
import os

import pytest

from repro.core import (
    caches_disabled_by_env, elide_disabled_by_env,
    specialize_disabled_by_env,
)

CACHES_DISABLED = caches_disabled_by_env()

THREADS_DISABLED = os.environ.get("REPRO_DISABLE_THREADS", "") not in (
    "", "0", "false", "no")

#: tier-2 specialization rides the call-plan machinery, so both the
#: explicit nospec switch and the cache-free oracle turn it off.
SPECIALIZE_DISABLED = specialize_disabled_by_env() or CACHES_DISABLED

#: signature-fact elision rides tier-2 promotion, so any switch that
#: disables specialization disables it too.
ELIDE_DISABLED = elide_disabled_by_env() or SPECIALIZE_DISABLED


def _fork_disabled() -> bool:
    """The pre-fork serving mode needs the ``fork`` start method
    (request thunks are deliberately unpicklable closures over live app
    objects); platforms without it — and debugging runs that export
    REPRO_DISABLE_FORK=1 — skip the multi-process suites."""
    if os.environ.get("REPRO_DISABLE_FORK", "") not in ("", "0", "false",
                                                        "no"):
        return True
    try:
        return "fork" not in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return True


FORK_DISABLED = _fork_disabled()


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "requires_caches: asserts memoization-specific counters/state; "
        "skipped when REPRO_DISABLE_CACHES=1 builds cache-free oracles")
    config.addinivalue_line(
        "markers",
        "requires_threads: spawns worker threads; skipped when "
        "REPRO_DISABLE_THREADS=1 forces a single-threaded run")
    config.addinivalue_line(
        "markers",
        "requires_specialization: asserts tier-2 promotion/deopt "
        "observables; skipped when REPRO_DISABLE_SPECIALIZE=1 (the "
        "tier1-nospec job) or REPRO_DISABLE_CACHES=1 pins sites to "
        "the generic path")
    config.addinivalue_line(
        "markers",
        "requires_elision: asserts that promoted wrappers omit the "
        "argument test the plan's signature makes redundant; "
        "skipped when REPRO_DISABLE_ELIDE=1 (the tier1-noelide job) or "
        "any switch that already disables tier-2 specialization")
    config.addinivalue_line(
        "markers",
        "requires_fork: forks worker processes; skipped where the "
        "'fork' start method is unavailable or REPRO_DISABLE_FORK=1")


def pytest_runtest_setup(item):
    if CACHES_DISABLED and item.get_closest_marker("requires_caches"):
        pytest.skip("memoization observables absent under "
                    "REPRO_DISABLE_CACHES=1")
    if THREADS_DISABLED and item.get_closest_marker("requires_threads"):
        pytest.skip("threaded suites disabled under "
                    "REPRO_DISABLE_THREADS=1")
    if SPECIALIZE_DISABLED and item.get_closest_marker(
            "requires_specialization"):
        pytest.skip("tier-2 specialization observables absent under "
                    "REPRO_DISABLE_SPECIALIZE=1 / REPRO_DISABLE_CACHES=1")
    if ELIDE_DISABLED and item.get_closest_marker("requires_elision"):
        pytest.skip("elision observables absent under "
                    "REPRO_DISABLE_ELIDE=1 (or with specialization off)")
    if FORK_DISABLED and item.get_closest_marker("requires_fork"):
        pytest.skip("'fork' start method unavailable (or "
                    "REPRO_DISABLE_FORK=1)")

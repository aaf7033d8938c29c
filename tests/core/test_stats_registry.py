"""The counter registry: every engine counter is one row of
``repro.core.stats.COUNTERS``, and the shards, the snapshot and the
serving field list are derived from it."""

import ast
import pathlib

import repro
from repro import Engine
from repro.core.stats import (
    COUNTERS, HOT_COUNTER_FIELDS, SHARDED, TRANSITION_FIELDS, HotCounters,
    Stats,
)

NAMES = [name for name, _, _, _ in COUNTERS]

#: the counters perfbench's per-layer metrics read off the snapshot.
PERFBENCH_COUNTERS = (
    "calls_intercepted", "fast_path_hits", "specialized_hits",
    "promotions", "deopts", "checks_elided", "cache_hits", "cache_misses",
    "static_checks", "invalidations", "casts",
)


def test_rows_are_unique_and_documented():
    assert len(NAMES) == len(set(NAMES))
    for name, kind, per_phase, doc in COUNTERS:
        assert kind in ("sharded", "locked") and isinstance(per_phase, bool)
        assert doc, name


def test_every_row_is_a_snapshot_key():
    # Engine.stats_snapshot() is test_engine_basic's side of this.
    assert set(NAMES) <= set(Stats().snapshot())


def test_shards_hold_exactly_the_sharded_rows():
    sharded = tuple(name for name, kind, _, _ in COUNTERS if kind == SHARDED)
    assert HotCounters.__slots__ == HOT_COUNTER_FIELDS == sharded


def test_transition_fields_are_the_phase_rows():
    assert TRANSITION_FIELDS == tuple(
        name for name, _, per_phase, _ in COUNTERS if per_phase)
    assert set(Stats().transitions()) == set(TRANSITION_FIELDS)


def test_perfbench_counters_are_rows():
    assert set(PERFBENCH_COUNTERS) <= set(NAMES)


def test_snapshot_casts_is_the_per_call_counter():
    engine = Engine()
    engine.cast("x", "String")
    engine.cast("y", "String")
    snap = engine.stats_snapshot()
    assert snap["casts"] == engine.stats.casts == 2
    assert snap["cast_sites"] == engine.stats.cast_site_count()


def test_subtype_memo_counters_read_live():
    engine = Engine()
    memo = engine.hier.subtype_cache
    snap = engine.stats_snapshot()
    assert snap["subtype_cache_hits"] == memo.hits
    assert snap["subtype_cache_misses"] == memo.misses
    assert snap["subtype_lru_evictions"] == memo.evictions


def test_counter_names_are_declared_only_in_the_registry():
    # A string constant equal to a counter name outside core/stats.py
    # would be a second declaration (getattr by name, a hand-written
    # snapshot key).  Attribute bumps such as ``stats.deopts += 1`` and
    # the generated wrapper's ``c.<name> += 1`` source lines are not.
    root = pathlib.Path(repro.__file__).parent
    names = set(NAMES)
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "core" / "stats.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in names:
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []

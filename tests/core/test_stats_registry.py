"""The counter registry: every engine counter is one row of
``repro.core.stats.COUNTERS``, and the shards, the snapshot and the
serving field list are derived from it."""

import ast
import pathlib

import repro
from repro import Engine
from repro.core.stats import (
    ARG_BRANCHES, COUNTERS, HOT_COUNTER_FIELDS, SHAPE_SLOTS, SHAPES, SHARDED,
    TRANSITION_FIELDS, HotCounters, Stats, shape_slot,
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
    # A shard holds the sharded rows, one slot per tier-2 call shape and
    # the thread's checked-frame slot — nothing else.
    sharded = tuple(name for name, kind, _, _ in COUNTERS if kind == SHARDED)
    shapes = tuple(shape_slot(checked, branch, elided)
                   for checked in (False, True) for branch in ARG_BRANCHES
                   for elided in range(3))
    assert HOT_COUNTER_FIELDS == sharded
    assert SHAPE_SLOTS == shapes
    assert HotCounters.__slots__ == sharded + shapes + ("top",)


def test_shape_vectors_name_only_sharded_rows():
    for slot, vector in SHAPES:
        assert set(vector) <= set(HOT_COUNTER_FIELDS), slot
        assert vector["calls_intercepted"] == vector["specialized_hits"] == 1


def test_shape_slots_aggregate_by_their_vectors():
    stats = Stats()
    shard = stats.local()
    for slot, _ in SHAPES:
        setattr(shard, slot, 3)
    for field in HOT_COUNTER_FIELDS:
        expected = sum(3 * vector.get(field, 0) for _, vector in SHAPES)
        assert getattr(stats, field) == expected, field


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


def test_engine_snapshot_keys_are_the_registry_keys():
    # Nothing outside the registry adds a key: the engine's snapshot is
    # exactly Table 1's views plus one key per COUNTERS row.
    assert set(Engine().stats_snapshot()) == set(Stats().snapshot())


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

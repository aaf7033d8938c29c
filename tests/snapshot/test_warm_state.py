"""Warm-state snapshot tests: round-trip fidelity and fail-closed loads.

The contract under test (see ``repro.snapshot.warmstate``):

* save→load on an identical world restores the check verdicts, call
  plans (profiles, hit counts), and promotion
  decisions the warm engine had — and a warm-started engine serves
  traffic without re-paying static checks, while staying
  outcome-identical to a cache-free oracle;
* any mismatch — corrupt JSON, wrong version, a world whose registry /
  hierarchy / config drifted since the save — is rejected *wholesale*
  with the engine untouched, because a cold start is always sound and
  a partially-trusted snapshot is not.
"""

import json

import pytest

from repro.core import Engine, EngineConfig
from repro.serving import build_serving_world, scenario_thunks
from repro.snapshot import (
    SNAPSHOT_VERSION, load_snapshot, save_snapshot, world_fingerprint,
)

pytestmark = pytest.mark.requires_caches

#: low threshold so warmup traffic promotes (when specialization is on).
THRESHOLD = 4
WARM_PASSES = 10


def _warm_world(app="countries", passes=WARM_PASSES):
    engine = Engine(EngineConfig(specialize_threshold=THRESHOLD))
    world = build_serving_world(app, engine=engine)
    thunks = scenario_thunks(world, "read")
    for _ in range(passes):
        for thunk in thunks:
            thunk()
    return engine, world, thunks


def _fresh_world(app="countries"):
    engine = Engine(EngineConfig(specialize_threshold=THRESHOLD))
    world = build_serving_world(app, engine=engine)
    return engine, world


def _outcomes(thunks, passes=3):
    from repro.concurrency import normalize_outcome
    return [normalize_outcome(thunk)
            for _ in range(passes) for thunk in thunks]


# -- round trip --------------------------------------------------------------


def test_roundtrip_restores_checks_and_plans():
    engine, _, _ = _warm_world()
    doc = save_snapshot(engine)
    assert doc["checks"] and doc["plans"]

    engine2, world2 = _fresh_world()
    report = load_snapshot(engine2, doc)
    assert report.loaded, report
    assert report.checks_restored == len(doc["checks"])
    assert report.checks_skipped == 0
    assert report.plans_restored == len(doc["plans"])
    assert report.plans_skipped == 0
    assert not report.errors

    # identical verdicts: every saved entry is present again.
    assert engine2.cache.keys() >= {
        tuple(rec["key"]) for rec in doc["checks"]}

    # identical plans: shape bits and learned state survive.
    warm_plans = dict(engine._plans.items())
    restored_plans = dict(engine2._plans.items())
    for key, plan in warm_plans.items():
        other = restored_plans.get(key)
        assert other is not None, key
        assert other.checked == plan.checked, key
        assert other.sig_owner == plan.sig_owner, key
        assert other.hits == plan.hits, key
        names = lambda profiles: {  # noqa: E731 - local shorthand
            tuple(cls.__name__ for cls in p) for p in profiles}
        assert names(other.profiles) == names(plan.profiles), key

    # traffic on the restored engine pays zero further static checks.
    thunks2 = scenario_thunks(world2, "read")
    before = engine2.stats_snapshot()["static_checks"]
    _outcomes(thunks2)
    assert engine2.stats_snapshot()["static_checks"] == before


@pytest.mark.requires_specialization
def test_roundtrip_restores_promotions_eagerly():
    """A promoted site must come back promoted *before* any traffic —
    the whole point of warm-starting is skipping the promotion storm —
    with the elision verdict recomputed from the restored plan equal to
    the one the warm engine compiled."""
    engine, _, _ = _warm_world()
    promoted = [plan.key for plan in engine._specializer.promoted_sites()]
    assert promoted, "warmup never promoted; threshold regression?"

    doc = save_snapshot(engine)
    engine2, world2 = _fresh_world()
    report = load_snapshot(engine2, doc)
    assert report.loaded and report.promotions > 0, report
    for key in promoted:
        assert engine2._plans.get(key).installed is not None, key

    def verdicts(eng):
        return {plan.key: plan.elision
                for plan in eng._specializer.promoted_sites()}

    warm = verdicts(engine)
    restored = verdicts(engine2)
    assert {key: restored[key] for key in promoted} == warm

    # and the promoted world still answers traffic with zero new
    # promotions (stats prove the wrappers are the restored ones).
    before = engine2.stats_snapshot()["promotions"]
    _outcomes(scenario_thunks(world2, "read"))
    assert engine2.stats_snapshot()["promotions"] == before


def test_warm_started_engine_is_oracle_identical():
    """The differential acceptance bar, warm-start edition: traffic on
    a snapshot-warmed engine equals a fresh cache-free oracle world."""
    engine, _, _ = _warm_world()
    doc = save_snapshot(engine)

    engine2, world2 = _fresh_world()
    assert load_snapshot(engine2, doc).loaded
    warm_outcomes = _outcomes(scenario_thunks(world2, "read"))

    oracle_world = build_serving_world(
        "countries", engine=Engine(disable_caches=True))
    oracle_outcomes = _outcomes(scenario_thunks(oracle_world, "read"))
    assert warm_outcomes == oracle_outcomes


def test_snapshot_file_roundtrip(tmp_path):
    engine, _, _ = _warm_world()
    path = tmp_path / "warm.json"
    save_snapshot(engine, str(path))

    engine2, _ = _fresh_world()
    report = load_snapshot(engine2, str(path))
    assert report.loaded, report
    assert report.checks_restored > 0 and report.plans_restored > 0


# -- fail-closed loads -------------------------------------------------------


def test_stale_fingerprint_rejected_with_cold_start():
    """A world that drifted since the save (here: one extra field type,
    which real deploys produce constantly) must reject the snapshot
    wholesale and leave the engine ready for a clean cold start."""
    engine, _, _ = _warm_world()
    doc = save_snapshot(engine)

    engine2, world2 = _fresh_world()
    engine2.types.add_field("Country", "motto", "String")
    plans_before = len(engine2._plans)
    report = load_snapshot(engine2, doc)
    assert not report.loaded
    assert "fingerprint" in report.reason
    assert report.checks_restored == 0 and report.plans_restored == 0
    assert len(engine2._plans) == plans_before

    # the cold start it fell back to still works and matches the oracle
    cold = _outcomes(scenario_thunks(world2, "read"), passes=1)
    oracle_world = build_serving_world(
        "countries", engine=Engine(disable_caches=True))
    oracle = _outcomes(scenario_thunks(oracle_world, "read"), passes=1)
    assert cold == oracle


def test_fingerprint_tracks_hierarchy_and_config():
    engine, _, _ = _warm_world()
    with engine.write_lock:
        fp = world_fingerprint(engine)

    # same build recipe -> same fingerprint (or snapshots never load)
    engine2, _ = _fresh_world()
    with engine2.write_lock:
        assert world_fingerprint(engine2) == fp

    # a semantics-affecting config difference must change it
    engine3 = Engine(EngineConfig(specialize_threshold=THRESHOLD,
                                  caching=False))
    build_serving_world("countries", engine=engine3)
    with engine3.write_lock:
        assert world_fingerprint(engine3) != fp


def test_truncated_snapshot_rejected(tmp_path):
    engine, _, _ = _warm_world()
    path = tmp_path / "warm.json"
    save_snapshot(engine, str(path))
    blob = path.read_text()
    path.write_text(blob[:len(blob) // 2])

    engine2, _ = _fresh_world()
    report = load_snapshot(engine2, str(path))
    assert not report.loaded
    assert "unreadable" in report.reason


def test_corrupt_and_malformed_documents_rejected(tmp_path):
    engine, _, _ = _warm_world()
    doc = save_snapshot(engine)
    engine2, _ = _fresh_world()

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json at all")
    assert not load_snapshot(engine2, str(garbage)).loaded

    missing = tmp_path / "does-not-exist.json"
    assert not load_snapshot(engine2, str(missing)).loaded

    wrong_format = dict(doc, format="something-else")
    assert not load_snapshot(engine2, wrong_format).loaded

    future = dict(doc, version=SNAPSHOT_VERSION + 1)
    report = load_snapshot(engine2, future)
    assert not report.loaded and "version" in report.reason

    not_lists = dict(doc, plans={"oops": 1})
    assert not load_snapshot(engine2, not_lists).loaded

    # after all those rejections the engine is still load-capable
    assert load_snapshot(engine2, doc).loaded


def test_load_into_cache_free_oracle_is_refused():
    """The oracle's value is recomputing everything; warm-starting it
    would be self-defeating.  The load must refuse, not half-apply."""
    engine, _, _ = _warm_world()
    doc = save_snapshot(engine)
    oracle = Engine(disable_caches=True)
    build_serving_world("countries", engine=oracle)
    report = load_snapshot(oracle, doc)
    assert not report.loaded
    assert "cache-free" in report.reason


def test_old_version_snapshot_rejected_with_cold_start():
    """Format-version evolution is fail-closed in *both* directions:
    version-4 snapshots (stored elision verdicts), version-3 snapshots
    (plans with return-class profiles, verdicts with a return-check
    flag), version-2 snapshots (plans with ``kw_layouts``, verdicts with
    ``chain_conforms``) and version-1 snapshots (single
    ``guard_profile`` tuples, no callee re-validation) are rejected
    wholesale — never half-decoded under version-5 rules — and the
    engine cold-starts cleanly, oracle-identical."""
    assert SNAPSHOT_VERSION == 5
    engine, _, _ = _warm_world()
    doc = save_snapshot(engine)
    assert set(doc) == {"format", "version", "fingerprint", "checks",
                        "plans"}
    assert "elisions" not in doc
    assert doc["plans"] and all(
        set(rec) == {"key", "hits", "checked", "profiles", "profile_hits",
                     "promoted"}
        for rec in doc["plans"])

    engine2, world2 = _fresh_world()
    plans_before = len(engine2._plans)
    for version in (4, 3, 2, 1):
        old = dict(doc, version=version)
        report = load_snapshot(engine2, old)
        assert not report.loaded and "version" in report.reason
        assert report.checks_restored == 0 and report.plans_restored == 0
        assert report.promotions == 0
        assert len(engine2._plans) == plans_before

    cold = _outcomes(scenario_thunks(world2, "read"), passes=1)
    oracle_world = build_serving_world(
        "countries", engine=Engine(disable_caches=True))
    oracle = _outcomes(scenario_thunks(oracle_world, "read"), passes=1)
    assert cold == oracle


def test_body_drift_skips_only_the_stale_entry():
    """Per-entity soundness: if one method body changed since the save
    (same signatures, so the world fingerprint still matches), only
    that entry is skipped — the rest of the snapshot still warms."""
    engine, _, _ = _warm_world()
    doc = save_snapshot(engine)
    doc = json.loads(json.dumps(doc))  # deep copy

    engine2, _ = _fresh_world()
    # pick a victim the fresh world has not already checked during its
    # own build/seed traffic, then sabotage its body fingerprint
    pre = engine2.cache.keys()
    victim = next(rec for rec in doc["checks"]
                  if tuple(rec["key"]) not in pre)
    victim["body_fp"] = "0" * 64

    report = load_snapshot(engine2, doc)
    assert report.loaded
    assert report.checks_skipped == 1
    assert report.checks_restored == len(doc["checks"]) - 1
    assert tuple(victim["key"]) not in engine2.cache.keys()

"""Section 5's headline claims, per app.

* All six apps type check with zero static errors under their workloads.
* Dynamically generated types are essential for every app except
  Countries.
* Rolify is the only multi-phase app.
* Caching collapses re-checks (each method checked once).
* A finished app releases its engine: nothing process-wide pins it.
"""

import gc
import weakref

import pytest

from repro import Engine, EngineConfig, StaticTypeError
from repro.apps import all_builders

APP_NAMES = list(all_builders())


@pytest.fixture(scope="module")
def worlds():
    """Each app built and driven once under a full engine."""
    out = {}
    for name, build in all_builders().items():
        world = build()
        world.seed()
        world.responses = world.workload()
        out[name] = world
    return out


@pytest.mark.parametrize("name", APP_NAMES)
def test_app_typechecks_with_no_errors(worlds, name):
    world = worlds[name]
    assert world.responses  # workload actually ran
    assert world.engine.stats.static_checks > 0


@pytest.mark.requires_caches
@pytest.mark.parametrize("name", APP_NAMES)
def test_each_method_checked_once_with_caching(worlds, name):
    stats = worlds[name].engine.stats
    assert stats.max_rechecks() == 1
    assert stats.cache_hits > 0


@pytest.mark.parametrize("name", APP_NAMES)
def test_generated_types_match_paper_profile(worlds, name):
    stats = worlds[name].engine.stats
    if name == "countries":
        # The no-metaprogramming baseline: zero dynamic types.
        assert stats.generated_count() == 0
        assert stats.used_generated_count() == 0
    else:
        # Gen'd > Used: generation is deliberately general (section 5).
        assert stats.generated_count() > 0
        assert 0 < stats.used_generated_count() <= stats.generated_count()


def test_rolify_is_the_only_multiphase_app(worlds):
    phases = {name: w.engine.stats.phases() for name, w in worlds.items()}
    assert phases["rolify"] > 1
    for name in APP_NAMES:
        if name != "rolify":
            assert phases[name] == 1, (name, phases[name])


def test_countries_uses_casts(worlds):
    # The Marshal.load downcast and the generics casts (section 4).
    assert worlds["countries"].engine.stats.cast_site_count() >= 5


def test_no_cache_mode_rechecks_hot_methods():
    """The Pubs claim: without caching, hot methods are re-checked once
    per call — thousands of times on the large-array workload."""
    world = all_builders()["pubs"](Engine(EngineConfig(caching=False)))
    world.seed()
    world.workload()
    stats = world.engine.stats
    assert stats.max_rechecks() > 100
    assert stats.static_checks > 500


def test_talks_requires_generated_types():
    """Disable dynamic type generation and Talks stops type checking —
    'dynamically generated types are essential' (section 5)."""
    from repro.rails import typegen

    originals = (typegen.generate_belongs_to_types,
                 typegen.generate_attribute_types,
                 typegen.generate_finder_types,
                 typegen.generate_has_many_types)
    noop = lambda *a, **k: None  # noqa: E731
    typegen.generate_belongs_to_types = noop
    typegen.generate_attribute_types = noop
    typegen.generate_finder_types = noop
    typegen.generate_has_many_types = noop
    try:
        world = all_builders()["talks"]()
        world.seed()
        with pytest.raises(StaticTypeError):
            world.workload()
    finally:
        (typegen.generate_belongs_to_types,
         typegen.generate_attribute_types,
         typegen.generate_finder_types,
         typegen.generate_has_many_types) = originals


@pytest.mark.parametrize("name", APP_NAMES)
def test_orig_mode_runs_unchecked(name):
    """The 'Orig' measurement mode: no interception, same outputs."""
    world = all_builders()[name](Engine(EngineConfig(intercept=False)))
    world.seed()
    responses = world.workload()
    assert responses
    assert world.engine.stats.static_checks == 0
    assert world.engine.stats.calls_intercepted == 0


@pytest.mark.parametrize("name", APP_NAMES)
def test_finished_engine_is_released(name):
    """Once an app's world is dropped, its engine must be collectable:
    a process that brings up app after app (a test run, a benchmark, a
    reloading server) must not keep every engine it ever built."""
    world = all_builders()[name](Engine())
    world.seed()
    assert world.workload()
    engine_ref = weakref.ref(world.engine)
    del world
    gc.collect()
    assert engine_ref() is None

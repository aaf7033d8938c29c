"""Deopt-storm circuit breakers: trip, cooldown, re-arm, and flap storms.

The breaker is a *performance governor*, never a soundness mechanism:
every test here asserts both the gating behavior (a chronic flapper
stops being re-promoted; a wave storm pauses all promotion) and that
outcomes stay exactly correct while the breaker is engaged — a demoted
site serves from tier 1, which is the always-sound path.

Timing is driven through a fake monotonic clock injected into the
specializer, so trips, cooldowns, and re-arms are deterministic against
the breaker's real limits.
"""

import pytest

from repro import Engine, EngineConfig, StaticTypeError
from repro.core.specialize import (
    BREAKER_COOLDOWN_S, BREAKER_FLAP_LIMIT, BREAKER_WAVE_LIMIT,
    BREAKER_WINDOW_S,
)

THRESHOLD = 3
#: clock advance between flaps: the whole flap sequence of a test stays
#: inside one breaker window.
STEP_S = BREAKER_WINDOW_S / (2 * BREAKER_WAVE_LIMIT)


class FakeClock:
    """A controllable stand-in for time.monotonic."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def breaker_engine():
    engine = Engine(EngineConfig(specialize_threshold=THRESHOLD))
    clock = FakeClock()
    spec = engine._specializer
    if spec is not None:
        spec._clock = clock
    return engine, clock


_BUMP = "def bump(self, n):\n    return n + 1\n"


def _define(engine, cls, name, body, sig):
    namespace = {}
    exec(body, namespace)  # noqa: S102 - fixed test template
    engine.define_method(cls, name, namespace[name], sig=sig, check=True,
                         source=body)


def _hot_world(engine, cls_name="BreakerHot"):
    cls = type(cls_name, (object,), {})
    _define(engine, cls, "bump", _BUMP, "(Integer) -> Integer")
    return cls


def _warm(obj, calls=THRESHOLD + 5):
    for i in range(calls):
        assert obj.bump(i) == i + 1


def _flap(engine, cls_name="BreakerHot"):
    """One flap cycle half: a same-signature reload that deopts the
    promoted site (reload churn, the classic flap source)."""
    engine.types.replace(cls_name, "bump", "(Integer) -> Integer",
                         check=True)


def _trip(engine, clock, obj):
    """Promote and deopt the site until its flap count trips it."""
    for _ in range(BREAKER_FLAP_LIMIT):
        _warm(obj)
        _flap(engine)
        clock.advance(STEP_S)
    assert engine.stats.breaker_trips == 1


def _plan_key(engine, name="bump"):
    keys = [key for key, _ in engine._plans.items() if key[2] == name]
    assert keys, f"no plan for {name}"
    return keys[0]


# -- per-site breaker --------------------------------------------------------


@pytest.mark.requires_specialization
def test_flap_storm_trips_per_site_breaker():
    engine, clock = breaker_engine()
    obj = _hot_world(engine)()
    for _ in range(BREAKER_FLAP_LIMIT - 1):
        _warm(obj)
        _flap(engine)
        clock.advance(STEP_S)
    assert engine.stats.breaker_trips == 0  # one flap short
    _warm(obj)
    _flap(engine)
    stats = engine.stats
    assert stats.breaker_trips == 1
    assert stats.breaker_demotions == 1
    # Cooling: the site stays tier-1 no matter how hot it runs...
    promotions = stats.promotions
    _warm(obj, calls=50)
    assert stats.promotions == promotions
    # ...and it still serves exactly correct results from tier 1.
    assert obj.bump(7) == 8


@pytest.mark.requires_specialization
def test_flaps_outside_the_window_never_trip():
    engine, clock = breaker_engine()
    obj = _hot_world(engine)()
    for _ in range(2 * BREAKER_FLAP_LIMIT):
        _warm(obj)
        _flap(engine)
        clock.advance(BREAKER_WINDOW_S / 4)  # at most 4 flaps per window
    assert engine.stats.breaker_trips == 0
    assert engine.stats.promotions == 2 * BREAKER_FLAP_LIMIT


@pytest.mark.requires_specialization
def test_tripped_site_loses_rewarm_discount():
    engine, clock = breaker_engine()
    spec = engine._specializer
    obj = _hot_world(engine)()
    _warm(obj)
    _flap(engine)
    clock.advance(STEP_S)
    # After one benign deopt the site holds the re-warm discount.
    _warm(obj)  # rebuilds the plan and re-promotes at the discount
    key = _plan_key(engine)
    assert spec.promote_threshold(key) < THRESHOLD
    for _ in range(BREAKER_FLAP_LIMIT - 1):  # push it over the limit
        _flap(engine)
        clock.advance(STEP_S)
        _warm(obj)
    assert engine.stats.breaker_trips == 1
    # Revoked: the chronic flapper re-earns promotion at full price.
    assert spec.promote_threshold(key) == THRESHOLD


@pytest.mark.requires_specialization
def test_breaker_rearms_after_cooldown():
    engine, clock = breaker_engine()
    obj = _hot_world(engine)()
    _trip(engine, clock, obj)
    promotions = engine.stats.promotions
    clock.advance(BREAKER_COOLDOWN_S + STEP_S)  # quiet time served
    _warm(obj, calls=THRESHOLD + 10)
    assert engine.stats.promotions == promotions + 1
    assert engine.stats.breaker_trips == 1  # re-arm is not a trip


@pytest.mark.requires_specialization
def test_flap_during_cooldown_restarts_quiet_timer():
    engine, clock = breaker_engine()
    spec = engine._specializer
    obj = _hot_world(engine)()
    _trip(engine, clock, obj)
    obj.bump(0)  # rebuild the dropped plan (tier 1; promotion is gated)
    key = _plan_key(engine)
    clock.advance(BREAKER_COOLDOWN_S - 2 * STEP_S)  # almost served...
    # ...when another deopt of the site lands (a promotion that raced
    # the trip being displaced): the quiet timer must restart.  A
    # cooling site cannot re-promote organically, so drive the
    # specializer's flap note directly.
    with spec._lock:
        spec._note_flap_locked(key)
    clock.advance(3 * STEP_S)  # past the original deadline
    assert spec.breaker_blocked(key)
    clock.advance(BREAKER_COOLDOWN_S)  # past the restarted deadline
    assert not spec.breaker_blocked(key)


# -- engine-wide breaker -----------------------------------------------------


@pytest.mark.requires_specialization
def test_wave_storm_pauses_all_promotion():
    """``BREAKER_WAVE_LIMIT`` displacing waves inside the window pause
    promotion everywhere.  Each wave deopts a different site once, so no
    per-site breaker trips first."""
    engine, clock = breaker_engine()
    spec = engine._specializer
    for i in range(BREAKER_WAVE_LIMIT):
        name = f"BreakerWave{i}"
        _warm(_hot_world(engine, cls_name=name)())
        _flap(engine, cls_name=name)
        clock.advance(STEP_S)
    assert spec.breaker_paused()
    assert engine.stats.breaker_trips == 1
    assert engine.stats.breaker_demotions == 0
    # The pause is engine-wide: an unrelated, perfectly stable site
    # cannot promote while the storm cooldown runs.
    cold = _hot_world(engine, cls_name="BreakerCold")()
    promotions = engine.stats.promotions
    _warm(cold, calls=THRESHOLD + 10)
    assert engine.stats.promotions == promotions
    clock.advance(BREAKER_COOLDOWN_S)
    assert not spec.breaker_paused()
    _warm(cold, calls=THRESHOLD + 10)
    assert engine.stats.promotions == promotions + 1


def _storm(engine, clock, cycles, calls_per_cycle=8):
    """A reload flap storm: each cycle warms the site past the promotion
    threshold (when promotion is allowed), then a same-signature reload
    deopts it."""
    obj = _hot_world(engine)()
    outcomes = []
    for _ in range(cycles):
        outcomes.extend(obj.bump(i) for i in range(calls_per_cycle))
        _flap(engine)
        clock.advance(STEP_S)
    return outcomes


@pytest.mark.requires_specialization
def test_armed_breaker_stops_flap_storm_promotions():
    """Without the breaker every cycle of the storm would pay one
    promotion.  The breaker trips once the site has flapped
    ``BREAKER_FLAP_LIMIT`` times and refuses every promotion after that
    within the cooldown.  Outcomes equal the cache-free oracle's."""
    cycles = 5 * BREAKER_FLAP_LIMIT
    engine, clock = breaker_engine()
    outcomes = _storm(engine, clock, cycles)
    assert cycles * STEP_S < BREAKER_COOLDOWN_S
    stats = engine.stats
    assert stats.breaker_trips == 1
    assert stats.breaker_demotions == 1
    assert stats.promotions == BREAKER_FLAP_LIMIT < cycles
    oracle = Engine(disable_caches=True)
    assert outcomes == _storm(oracle, FakeClock(), cycles)


# -- correctness under the breaker -------------------------------------------


@pytest.mark.requires_specialization
def test_tripped_site_still_enforces_types():
    """Graceful degradation must not relax checking: a demoted site
    raises exactly what the generic tier raises."""
    engine, clock = breaker_engine()
    obj = _hot_world(engine)()
    _trip(engine, clock, obj)
    with pytest.raises((StaticTypeError, Exception)) as excinfo:
        obj.bump("nope")
    assert excinfo.type is not AssertionError


@pytest.mark.requires_specialization
def test_breaker_counters_in_snapshot():
    engine, clock = breaker_engine()
    obj = _hot_world(engine)()
    _trip(engine, clock, obj)
    snap = engine.stats_snapshot()
    assert snap["breaker_trips"] == 1
    assert snap["breaker_demotions"] == 1

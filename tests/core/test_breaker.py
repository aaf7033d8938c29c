"""Deopt-storm circuit breakers: trip, cooldown, re-arm, and ablation.

The breaker is a *performance governor*, never a soundness mechanism:
every test here asserts both the gating behavior (a chronic flapper
stops being re-promoted; a wave storm pauses all promotion) and that
outcomes stay exactly correct while the breaker is engaged — a demoted
site serves from tier 1, which is the always-sound path.

Timing is driven through a fake monotonic clock injected into the
specializer, so trips, cooldowns, and re-arms are deterministic.
"""

import pytest

from repro import Engine, EngineConfig, StaticTypeError

THRESHOLD = 3


class FakeClock:
    """A controllable stand-in for time.monotonic."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def breaker_engine(**overrides):
    cfg = dict(specialize_threshold=THRESHOLD, breaker_flap_limit=3,
               breaker_window_s=60.0, breaker_cooldown_s=100.0,
               breaker_wave_limit=1000)
    cfg.update(overrides)
    engine = Engine(EngineConfig(**cfg))
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


def _plan_key(engine, name="bump"):
    keys = [key for key, _ in engine._plans.items() if key[2] == name]
    assert keys, f"no plan for {name}"
    return keys[0]


# -- per-site breaker --------------------------------------------------------


@pytest.mark.requires_specialization
def test_flap_storm_trips_per_site_breaker():
    engine, clock = breaker_engine()
    cls = _hot_world(engine)
    obj = cls()
    for _ in range(3):  # promote -> deopt, three flaps inside the window
        _warm(obj)
        _flap(engine)
        clock.advance(0.1)
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
def test_tripped_site_loses_rewarm_discount():
    engine, clock = breaker_engine()
    spec = engine._specializer
    cls = _hot_world(engine)
    obj = cls()
    _warm(obj)
    _flap(engine)
    # After one benign deopt the site holds the re-warm discount.
    _warm(obj)  # rebuilds the plan and re-promotes at the discount
    key = _plan_key(engine)
    assert spec.promote_threshold(key) < THRESHOLD
    for _ in range(2):  # push it over the flap limit
        _flap(engine)
        clock.advance(0.1)
        _warm(obj)
    assert engine.stats.breaker_trips == 1
    # Revoked: the chronic flapper re-earns promotion at full price.
    assert spec.promote_threshold(key) == THRESHOLD


@pytest.mark.requires_specialization
def test_breaker_rearms_after_cooldown():
    engine, clock = breaker_engine()
    cls = _hot_world(engine)
    obj = cls()
    for _ in range(3):
        _warm(obj)
        _flap(engine)
        clock.advance(0.1)
    assert engine.stats.breaker_trips == 1
    promotions = engine.stats.promotions
    clock.advance(100.5)  # past the cooldown: quiet time served
    _warm(obj, calls=THRESHOLD + 10)
    assert engine.stats.promotions == promotions + 1
    assert engine.stats.breaker_trips == 1  # re-arm is not a trip


@pytest.mark.requires_specialization
def test_flap_during_cooldown_restarts_quiet_timer():
    engine, clock = breaker_engine()
    spec = engine._specializer
    cls = _hot_world(engine)
    obj = cls()
    for _ in range(3):
        _warm(obj)
        _flap(engine)
        clock.advance(0.1)
    assert engine.stats.breaker_trips == 1
    obj.bump(0)  # rebuild the dropped plan (tier 1; promotion is gated)
    key = _plan_key(engine)
    clock.advance(99.0)  # almost served the cooldown...
    # ...when another deopt of the site lands (a promotion that raced
    # the trip being displaced): the quiet timer must restart.  A
    # cooling site cannot re-promote organically, so drive the
    # specializer's flap note directly.
    with spec._lock:
        spec._note_flap_locked(key)
    clock.advance(2.0)   # past the original deadline
    assert spec.breaker_blocked(key)
    clock.advance(100.0)  # past the restarted deadline
    assert not spec.breaker_blocked(key)


# -- engine-wide breaker -----------------------------------------------------


@pytest.mark.requires_specialization
def test_wave_storm_pauses_all_promotion():
    engine, clock = breaker_engine(breaker_wave_limit=3,
                                   breaker_flap_limit=1000)
    spec = engine._specializer
    cls = _hot_world(engine)
    obj = cls()
    for _ in range(3):  # three displacing waves inside the window
        _warm(obj)
        _flap(engine)
        clock.advance(0.1)
    assert spec.breaker_paused()
    assert engine.stats.breaker_trips == 1
    # The pause is engine-wide: an unrelated, perfectly stable site
    # cannot promote while the storm cooldown runs.
    other = _hot_world(engine, cls_name="BreakerCold")
    cold = other()
    promotions = engine.stats.promotions
    for i in range(THRESHOLD + 10):
        assert cold.bump(i) == i + 1
    assert engine.stats.promotions == promotions
    clock.advance(100.5)
    assert not spec.breaker_paused()
    for i in range(THRESHOLD + 10):
        assert cold.bump(i) == i + 1
    assert engine.stats.promotions == promotions + 1


def _storm(breaker: bool, cycles: int = 40, calls_per_cycle: int = 8):
    """A reload flap storm: each cycle warms the site past the promotion
    threshold (when promotion is allowed), then a same-signature reload
    deopts it."""
    engine, _ = breaker_engine(breaker=breaker, breaker_flap_limit=4,
                               breaker_window_s=600.0,
                               breaker_cooldown_s=600.0,
                               breaker_wave_limit=10 ** 9)
    obj = _hot_world(engine)()
    outcomes = []
    for _ in range(cycles):
        outcomes.extend(obj.bump(i) for i in range(calls_per_cycle))
        _flap(engine)
    return engine.stats, outcomes


@pytest.mark.requires_specialization
def test_armed_breaker_stops_flap_storm_promotions():
    """Against the same storm, the armed engine trips, demotes the
    flapper and stops re-promoting it; the unarmed engine never trips
    and keeps paying a promotion per cycle.  Outcomes are identical."""
    armed, armed_out = _storm(breaker=True)
    unarmed, unarmed_out = _storm(breaker=False)
    assert armed.breaker_trips >= 1
    assert armed.breaker_demotions >= 1
    assert armed.promotions < unarmed.promotions
    assert unarmed.breaker_trips == 0
    assert armed_out == unarmed_out


# -- correctness under the breaker -------------------------------------------


@pytest.mark.requires_specialization
def test_tripped_site_still_enforces_types():
    """Graceful degradation must not relax checking: a demoted site
    raises exactly what the generic tier raises."""
    engine, clock = breaker_engine()
    cls = _hot_world(engine)
    obj = cls()
    for _ in range(3):
        _warm(obj)
        _flap(engine)
        clock.advance(0.1)
    assert engine.stats.breaker_trips == 1
    with pytest.raises((StaticTypeError, Exception)) as excinfo:
        obj.bump("nope")
    assert excinfo.type is not AssertionError


# -- ablations ---------------------------------------------------------------


@pytest.mark.requires_specialization
def test_breaker_disabled_by_config():
    engine, clock = breaker_engine(breaker=False)
    cls = _hot_world(engine)
    obj = cls()
    for _ in range(6):
        _warm(obj)
        _flap(engine)
        clock.advance(0.1)
    assert engine.stats.breaker_trips == 0
    promotions = engine.stats.promotions
    _warm(obj)
    assert engine.stats.promotions == promotions + 1  # still promoting


@pytest.mark.requires_specialization
def test_breaker_counters_in_snapshot():
    engine, clock = breaker_engine()
    cls = _hot_world(engine)
    obj = cls()
    for _ in range(3):
        _warm(obj)
        _flap(engine)
        clock.advance(0.1)
    snap = engine.stats_snapshot()
    assert snap["breaker_trips"] == 1
    assert snap["breaker_demotions"] == 1
    assert "requests_replayed" in snap and "workers_restarted" in snap

"""Tier-2 specialization: promotion, guard fallbacks, and deopt soundness.

The contract under test (see ``docs/performance.md`` "Tiered execution"):

* a stable warm call plan is promoted to an exec-generated per-site
  wrapper after ``specialize_threshold`` hits, and the wrapper's
  outcomes — return values, raised errors, stats invariants — are
  indistinguishable from the generic tier's;
* every guard failure (wrong receiver class, kwargs, unseen argument
  classes, a dropped plan) **falls back** into the generic
  ``Engine.invoke``, never raises through the fast path, and never
  skips a failing dynamic check;
* every invalidation wave that drops the underlying plan — retype,
  redefinition, hierarchy mutation, field retype, plan-cache clear —
  **deoptimizes**: the generic wrapper is back on the class before the
  wave returns, so the next call re-resolves against the mutated world
  (the error-flipping retype is the stale-specialization smoking gun);
* deopt is not a one-way door: a re-warmed site re-promotes.

The hypothesis stress at the bottom replays random
promote/deopt/re-promote interleavings differentially against the
cache-free oracle with a tiny threshold, so every script crosses the
promotion boundary many times.
"""

import traceback

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import (
    ArgumentTypeError, Engine, EngineConfig, StaticTypeError,
)
from repro.core import specialize
from repro.core.stats import (
    ARG_BRANCHES, HOT_COUNTER_FIELDS, SHAPE_SLOTS, SHAPES, shape_slot,
)
from repro.rdl.registry import CLASS
from repro.rdl.wrap import add_pre, is_wrapped, unwrap_method, wrap_method

THRESHOLD = 5  # tiny, so tests cross the promotion boundary quickly


def spec_engine(**overrides) -> Engine:
    return Engine(EngineConfig(specialize_threshold=THRESHOLD, **overrides))


_BUMP = "def bump(self, n):\n    return n + 1\n"
_BASE = "def base(self, n):\n    return n\n"
_DOUBLE = "def double(self, n):\n    return self.base(n) + n\n"


def _define(engine, cls, name, body, sig, check=True):
    namespace = {}
    exec(body, namespace)  # noqa: S102 - fixed test templates
    engine.define_method(cls, name, namespace[name], sig=sig, check=check,
                         source=body)


def _hot_world(engine, sig="(Integer) -> Integer"):
    cls = type("SpecHot", (object,), {})
    _define(engine, cls, "bump", _BUMP, sig)
    return cls


#: a vacuous parameter: the promoted wrapper elides its argument test.
_ANY_SIG = "(%any) -> Integer"


def _warm(obj, name="bump", calls=THRESHOLD + 5):
    for i in range(calls):
        getattr(obj, name)(i)


def _slot_is_specialized(cls, name) -> bool:
    raw = cls.__dict__.get(name)
    fn = raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(fn, "__hb_specialized__", False)


# -- promotion ---------------------------------------------------------------


@pytest.mark.requires_specialization
def test_promotion_after_threshold():
    engine = spec_engine()
    cls = _hot_world(engine)
    obj = cls()
    for i in range(THRESHOLD + 10):
        assert obj.bump(i) == i + 1
    stats = engine.stats
    assert stats.promotions == 1
    assert stats.specialized_hits > 0
    assert _slot_is_specialized(cls, "bump")
    assert is_wrapped(cls, "bump")  # still reads as an intercepted method


@pytest.mark.requires_specialization
def test_specialized_stats_stay_exact():
    """Counter-for-counter parity with the generic tier: the warm-call
    invariants that the stats suite asserts must survive promotion."""
    engine = spec_engine()
    obj = _hot_world(engine)()
    calls = THRESHOLD + 40
    _warm(obj, calls=calls)
    stats = engine.stats
    assert stats.calls_intercepted == calls
    assert stats.fast_path_hits == calls - 1  # first call is the cold build
    assert (stats.dynamic_arg_checks + stats.dynamic_arg_checks_skipped
            == stats.calls_intercepted)
    assert stats.specialized_hits == stats.fast_path_hits - THRESHOLD


@pytest.mark.requires_specialization
def test_no_promotion_when_disabled_by_config():
    engine = Engine(EngineConfig(specialize=False, specialize_threshold=2))
    obj = _hot_world(engine)()
    _warm(obj, calls=50)
    assert engine.stats.promotions == 0
    assert engine.stats.specialized_hits == 0


@pytest.mark.requires_caches
def test_no_promotion_when_disabled_by_env(monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_SPECIALIZE", "1")
    engine = spec_engine()
    obj = _hot_world(engine)()
    _warm(obj, calls=50)
    assert engine.stats.promotions == 0


@pytest.mark.requires_specialization
def test_classmethod_site_promotes():
    """CLASS-kind sites specialize too: the guard is identity on the
    receiver class object, and the classmethod binding is preserved."""
    engine = spec_engine()
    hb = engine.api()

    class SpecClassKind:
        @hb.typed("(Integer) -> Integer")
        @classmethod
        def tally(cls, n):
            return n + 2

    for i in range(THRESHOLD + 10):
        assert SpecClassKind.tally(i) == i + 2
    stats = engine.stats
    assert stats.promotions == 1
    assert stats.specialized_hits > 0
    raw = SpecClassKind.__dict__["tally"]
    assert isinstance(raw, classmethod)
    assert getattr(raw.__func__, "__hb_specialized__", False)
    with pytest.raises(ArgumentTypeError):
        SpecClassKind.tally("nope")


# -- guard failures fall back, never raise -----------------------------------


@pytest.mark.requires_specialization
def test_wrong_receiver_class_falls_back_to_generic():
    """The monomorphic guard: a subclass receiver takes the generic path
    (and gets its own receiver-keyed check) while the promoted class
    keeps its fast path."""
    engine = spec_engine()
    cls = _hot_world(engine)
    obj = cls()
    _warm(obj)
    assert _slot_is_specialized(cls, "bump")
    sub = type("SpecHotSub", (cls,), {})
    engine.register_class(sub)
    sub_obj = sub()
    assert sub_obj.bump(3) == 4  # falls back, no error
    assert obj.bump(3) == 4


@pytest.mark.requires_specialization
def test_specialized_site_still_rejects_bad_arguments():
    """Inline-cache soundness survives tier 2: the profile guard only
    accepts classes that passed; anything else re-runs the real check."""
    engine = spec_engine()
    obj = _hot_world(engine)()
    _warm(obj)
    with pytest.raises(ArgumentTypeError):
        obj.bump("not an integer")
    assert obj.bump(7) == 8  # site still healthy afterwards


@pytest.mark.requires_specialization
def test_kwargs_calls_fall_back():
    engine = spec_engine()
    obj = _hot_world(engine)()
    _warm(obj)
    assert obj.bump(n=3) == 4


@pytest.mark.requires_specialization
def test_new_argument_classes_learned_after_promotion():
    """Post-promotion learning: the generic fallback COW-publishes new
    passing profiles that the compiled wrapper then reads per call."""
    engine = spec_engine()
    cls = type("SpecNum", (object,), {})
    _define(engine, cls, "same", "def same(self, n):\n    return n\n",
            "(Numeric) -> Numeric")
    obj = cls()
    for i in range(THRESHOLD + 5):
        obj.same(i)  # promote with an int-only profile
    assert engine.stats.promotions == 1
    assert obj.same(1.5) == 1.5  # float: profile miss -> fallback -> learn
    plan = engine._plans.get(("SpecNum", "SpecNum", "same", "instance"))
    assert (float,) in plan.profiles
    before = engine.stats.specialized_hits
    assert obj.same(2.5) == 2.5  # now a specialized hit via the COW set
    assert engine.stats.specialized_hits == before + 1


# -- deoptimization ----------------------------------------------------------


@pytest.mark.requires_specialization
def test_error_flipping_retype_deoptimizes():
    """The smoking gun: retyping the callee's return makes the promoted
    caller's derivation ill-typed; a stale specialized wrapper would
    keep returning successes."""
    engine = spec_engine()
    cls = type("SpecPair", (object,), {})
    _define(engine, cls, "base", _BASE, "(Integer) -> Integer")
    _define(engine, cls, "double", _DOUBLE, "(Integer) -> Integer")
    obj = cls()
    for i in range(THRESHOLD + 5):
        assert obj.double(i) == 2 * i
    assert engine.stats.promotions >= 1
    engine.types.replace("SpecPair", "base", "(Integer) -> String",
                         check=True)
    assert engine.stats.deopts >= 1
    assert not _slot_is_specialized(cls, "double")
    with pytest.raises(StaticTypeError):
        obj.double(3)


@pytest.mark.requires_specialization
def test_redefinition_deoptimizes_and_new_body_runs():
    engine = spec_engine()
    cls = _hot_world(engine)
    obj = cls()
    _warm(obj)
    assert _slot_is_specialized(cls, "bump")
    _define(engine, cls, "bump", "def bump(self, n):\n    return n + 10\n",
            "(Integer) -> Integer")
    assert obj.bump(1) == 11  # the *new* body, not the compiled-in old fn
    assert engine.stats.deopts >= 1


def _adder(x):
    """A closure whose lowering is shared by every call, so only the
    type of the captured ``x`` tells two of them apart."""
    def add(self, n):
        return x + n
    return add


def _bad(self, n):
    return n + "s"


def _sourceless_bad():
    namespace = {}
    exec("def m(self, n):\n    return n + 's'\n", namespace)  # noqa: S102
    return namespace["m"]


def _relower(engine, case, warm):
    """Warm a checked ``(Integer) -> Integer`` method, give it an
    ill-typed lowering under the same signature by ``case``, then call
    it."""
    sig = "(Integer) -> Integer"
    cls = type("Relowered", (object,), {})
    engine.define_method(cls, "m", _adder(1), sig=sig, check=True)
    obj = cls()
    for i in range(warm):
        obj.m(i)
    if case == "assign_then_annotate":
        cls.m = _bad
        engine.api().annotate(cls, "m", sig, check=True)
    elif case == "annotate_fn":
        engine.annotate(cls, "m", sig, check=True, fn=_bad)
    elif case == "annotate_unlowerable":
        engine.annotate(cls, "m", sig, check=True, fn=_sourceless_bad())
    else:  # same code object, a String capture where an Integer was
        engine.define_method(cls, "m", _adder("s"), sig=sig, check=True)
    return _stress_outcome(lambda: obj.m(1))


@pytest.mark.parametrize("warm", [1, 200])
@pytest.mark.parametrize("case, error", [
    ("assign_then_annotate", "StaticTypeError"),
    ("annotate_fn", "StaticTypeError"),
    ("define_closure", "StaticTypeError"),
    ("annotate_unlowerable", "NoMethodBodyError"),
])
def test_changed_lowering_under_the_same_signature_rechecks(case, error,
                                                            warm):
    """A new lowering of a checked method (a new body, the same code
    capturing a value of another type, or a body with no source to
    lower) drops the cached verdict and the old IR on every tier, so
    the next call re-checks and raises what the cache-free oracle
    raises, instead of running the new body unchecked."""
    oracle = _relower(Engine(disable_caches=True), case, warm)
    assert oracle[:2] == ("err", error)
    for engine in (spec_engine(), Engine(EngineConfig(specialize=False)),
                   Engine(EngineConfig(call_plans=False))):
        assert _relower(engine, case, warm) == oracle


@pytest.mark.requires_specialization
def test_hierarchy_mutation_deoptimizes_dependent_sites():
    """A structural mutation of the receiver's linearization drops the
    plans that resolved through it — and must deopt their wrappers."""
    engine = spec_engine()
    cls = _hot_world(engine)
    obj = cls()
    _warm(obj)
    assert _slot_is_specialized(cls, "bump")
    module = type("SpecMixin", (object,), {"__hb_module__": True})
    engine.register_class(module)
    engine.hier.include_module("SpecHot", "SpecMixin")
    assert not _slot_is_specialized(cls, "bump")
    assert obj.bump(2) == 3  # re-resolves and still works


@pytest.mark.requires_specialization
def test_field_retype_deoptimizes_field_reading_site():
    engine = spec_engine()
    cls = type("SpecField", (object,), {"__init__":
               lambda self: setattr(self, "value", 1)})
    engine.register_class(cls)
    engine.field_type(cls, "value", "Integer")
    _define(engine, cls, "read",
            "def read(self, n):\n    return self.value + n\n",
            "(Integer) -> Integer")
    obj = cls()
    _warm(obj, name="read")
    assert _slot_is_specialized(cls, "read")
    engine.field_type(cls, "value", "String")  # derivation now ill-typed
    assert not _slot_is_specialized(cls, "read")
    with pytest.raises(StaticTypeError):
        obj.read(1)


@pytest.mark.requires_specialization
def test_plan_cache_clear_deoptimizes_everything():
    engine = spec_engine()
    cls = _hot_world(engine)
    obj = cls()
    _warm(obj)
    assert _slot_is_specialized(cls, "bump")
    engine._plans.clear()
    assert not _slot_is_specialized(cls, "bump")
    assert obj.bump(4) == 5


@pytest.mark.requires_specialization
def test_repromotion_after_deopt():
    engine = spec_engine()
    cls = _hot_world(engine)
    obj = cls()
    _warm(obj)
    assert engine.stats.promotions == 1
    engine.types.replace("SpecHot", "bump", "(Integer) -> Integer",
                         check=True)  # same-signature reload churn
    assert engine.stats.deopts >= 1
    _warm(obj)
    assert engine.stats.promotions == 2
    assert _slot_is_specialized(cls, "bump")


STORM_CYCLES = 40


def _reload(engine, cls_name="SpecHot"):
    """Same-signature reload churn: deopts a promoted ``bump``."""
    engine.types.replace(cls_name, "bump", "(Integer) -> Integer",
                         check=True)


def _storm(engine, on_cycle=lambda cycle, cls, obj: None):
    """A reload storm: each cycle warms ``bump`` past its promotion
    threshold, calls ``on_cycle`` while the site is hot, then reloads
    it.  Returns every call's result."""
    cls = _hot_world(engine)
    obj = cls()
    outcomes = []
    for cycle in range(STORM_CYCLES):
        outcomes.extend(obj.bump(i) for i in range(THRESHOLD + 5))
        on_cycle(cycle, cls, obj)
        _reload(engine)
    return outcomes


@pytest.mark.requires_specialization
def test_reload_storm_repromotes_every_cycle_and_matches_oracle():
    """Nothing rations re-promotion: every lap of the storm promotes
    once, and outcomes equal the cache-free oracle's."""
    engine = spec_engine()
    outcomes = _storm(engine)
    assert outcomes == _storm(Engine(disable_caches=True))
    assert engine.stats.promotions == STORM_CYCLES
    assert engine.stats.deopts == STORM_CYCLES


@pytest.mark.requires_specialization
def test_reload_storm_bad_argument_raises_what_the_oracle_raises():
    """Churn never relaxes checking: a bad argument in the middle of the
    storm reaches a promoted wrapper and raises what the oracle raises."""
    def bad_call(log):
        def on_cycle(cycle, cls, obj):
            if cycle == STORM_CYCLES // 2:
                log.append((_slot_is_specialized(cls, "bump"),
                            _outcome(lambda: obj.bump("nope"))))
        return on_cycle

    engine = spec_engine()
    seen, expected = [], []
    outcomes = _storm(engine, bad_call(seen))
    assert outcomes == _storm(Engine(disable_caches=True),
                              bad_call(expected))
    assert engine.stats.promotions == STORM_CYCLES
    (promoted, error), = seen
    assert promoted  # the bad call reached a compiled wrapper
    assert error[0] == ArgumentTypeError.__name__
    assert error == expected[0][1]


@pytest.mark.requires_specialization
def test_reload_storm_compiles_each_wrapper_text_once(monkeypatch):
    """A re-promotion execs memoized code: over the whole storm,
    ``compile()`` runs once per distinct wrapper text, not per cycle."""
    monkeypatch.setattr(specialize, "_CODE_MEMO", {})
    compiled = []
    real_compile = compile

    def counting_compile(source, *args, **kwargs):
        compiled.append(source)
        return real_compile(source, *args, **kwargs)

    monkeypatch.setattr(specialize, "compile", counting_compile,
                        raising=False)
    sources = []
    _storm(spec_engine(), lambda cycle, cls, obj: sources.append(
        _slot(cls, "bump").__hb_source__))
    assert len(sources) == STORM_CYCLES
    assert sorted(compiled) == sorted(set(sources))
    assert len(compiled) < STORM_CYCLES


@pytest.mark.requires_specialization
def test_rewarm_registry_evicts_the_least_recently_deopted(monkeypatch):
    bound = 3
    monkeypatch.setattr(specialize, "_REWARM_MAX", bound)
    engine = spec_engine()
    spec = engine._specializer
    classes = {}

    def deopt(name):
        """Promote ``name#bump`` (defining it first time round) and
        reload it; returns its plan key."""
        if name not in classes:
            cls = classes[name] = type(name, (object,), {})
            _define(engine, cls, "bump", _BUMP, "(Integer) -> Integer")
        _warm(classes[name]())
        (key,) = [k for k in engine._plans._plans if k[0] == name]
        assert engine._plans.get(key).installed is not None
        _reload(engine, name)
        assert len(spec._rewarm) <= bound
        return key

    first, second, third = (deopt(f"Rewarm{i}") for i in range(bound))
    assert list(spec._rewarm) == [first, second, third]
    assert deopt("Rewarm0") == first  # a second deopt refreshes recency
    assert list(spec._rewarm) == [second, third, first]
    latest = deopt("Rewarm3")  # over the bound: ``second`` goes, not ``first``
    assert list(spec._rewarm) == [third, first, latest]
    assert spec.promote_threshold(second) == THRESHOLD
    assert spec.promote_threshold(latest) == max(
        1, THRESHOLD // specialize.REWARM_DIVISOR) < THRESHOLD


@pytest.mark.requires_specialization
def test_unwrap_restores_the_original_function():
    engine = spec_engine()
    cls = _hot_world(engine)
    obj = cls()
    _warm(obj)
    assert _slot_is_specialized(cls, "bump")
    unwrap_method(cls, "bump")
    assert not is_wrapped(cls, "bump")
    calls_before = engine.stats.calls_intercepted
    assert obj.bump(1) == 2      # plain python call
    assert engine.stats.calls_intercepted == calls_before


@pytest.mark.requires_specialization
def test_contract_registration_deoptimizes_and_contracts_run():
    engine = spec_engine()
    cls = _hot_world(engine)
    obj = cls()
    _warm(obj)
    assert _slot_is_specialized(cls, "bump")
    seen = []
    add_pre(engine, cls, "bump", lambda recv, *a, **k: seen.append(a) or True)
    assert not _slot_is_specialized(cls, "bump")
    assert obj.bump(1) == 2
    assert seen == [(1,)]  # the hook actually ran
    _warm(obj, calls=THRESHOLD * 4)
    assert not _slot_is_specialized(cls, "bump")  # no re-promotion


@pytest.mark.requires_specialization
def test_hoisted_bound_method_cannot_outlive_its_plan():
    """A bound method hoisted while the site was specialized bypasses
    deopt-by-rebinding; the per-call liveness guard must make it fall
    back once the plan is dropped — even after the site re-warms under
    a new signature whose checks the old plan would have skipped."""
    engine = spec_engine()
    cls = _hot_world(engine)
    obj = cls()
    _warm(obj)
    assert _slot_is_specialized(cls, "bump")
    hoisted = obj.bump  # captures the specialized wrapper
    # Outlaw Integer arguments; the old plan's profile admitted them.
    engine.types.replace("SpecHot", "bump", "(String) -> Integer",
                         check=True)
    with pytest.raises(Exception):  # noqa: B017 - ill-typed body OR bad arg
        hoisted(1)
    # And through a full re-derivation cycle back to the original
    # signature the hoisted reference still re-validates per call: the
    # rebuilt plan is a *different object*, so the old wrapper's
    # liveness guard keeps bailing to the generic path.
    engine.types.replace("SpecHot", "bump", "(Integer) -> Integer",
                         check=True)
    assert obj.bump(2) == 3  # rebuilt plan, maybe re-promoted
    assert hoisted(3) == 4   # old wrapper: liveness guard -> generic path
    before = engine.stats.calls_intercepted
    hoisted(4)
    assert engine.stats.calls_intercepted == before + 1


# -- one shape per site: other receivers stay generic -------------------------


def _poly_world(engine):
    """A checked method on a base class, hot under two subclasses —
    the mixin-method-under-two-includers shape."""
    base = type("PolyBase", (object,), {})
    _define(engine, base, "bump", _BUMP, "(Integer) -> Integer")
    sub_a = type("PolyA", (base,), {})
    sub_b = type("PolyB", (base,), {})
    engine.register_class(sub_a)
    engine.register_class(sub_b)
    return base, sub_a(), sub_b()


def _site_key(engine, cls, name):
    """The plan key of the site promoted into ``cls.name``, or None."""
    plan = engine._specializer._sites.get((cls, name))
    return plan.key if plan is not None else None


@pytest.mark.requires_specialization
def test_second_receiver_and_keyword_calls_take_the_generic_tier():
    """A promoted site compiles one shape — its first hot receiver
    class, positional calls.  A second hot subclass receiver and keyword
    calls on the promoted receiver both bail to the generic tier: they
    return the oracle's results and never count as specialized hits."""
    engine = spec_engine()
    base, a, b = _poly_world(engine)
    _warm(a)
    _warm(b, calls=THRESHOLD * 3)
    assert engine.stats.promotions == 1
    assert _site_key(engine, base, "bump") == (
        "PolyBase", "PolyA", "bump", "instance")

    _, oracle_a, oracle_b = _poly_world(Engine(disable_caches=True))
    spec0 = engine.stats.specialized_hits
    calls0 = engine.stats.calls_intercepted
    for i in range(4):
        assert b.bump(i) == oracle_b.bump(i)
        assert a.bump(n=i) == oracle_a.bump(n=i)
        assert b.bump(n=i) == oracle_b.bump(n=i)
    assert engine.stats.specialized_hits == spec0
    assert engine.stats.calls_intercepted == calls0 + 12
    assert a.bump(1) == 2  # the compiled shape itself
    assert engine.stats.specialized_hits == spec0 + 1


@pytest.mark.requires_specialization
def test_poly_entries_still_reject_bad_arguments():
    """Both the promoted receiver and the generic second receiver of a
    shared slot still reject bad arguments."""
    engine = spec_engine()
    base, a, b = _poly_world(engine)
    _warm(a)
    _warm(b)
    assert _site_key(engine, base, "bump") is not None
    with pytest.raises(ArgumentTypeError):
        a.bump("nope")
    with pytest.raises(ArgumentTypeError):
        b.bump("nope")
    assert a.bump(1) == 2 and b.bump(1) == 2  # site healthy afterwards


@pytest.mark.requires_specialization
def test_dropping_both_plans_restores_the_generic_wrapper():
    engine = spec_engine()
    base, a, b = _poly_world(engine)
    _warm(a)
    _warm(b)
    _define(engine, base, "bump", "def bump(self, n):\n    return n + 10\n",
            "(Integer) -> Integer")
    assert not _slot_is_specialized(base, "bump")
    assert a.bump(1) == 11 and b.bump(1) == 11  # the new body everywhere


# -- keyword calls at promoted sites ------------------------------------------

_COMBINE = "def combine(self, x, y):\n    return x + y\n"


def _kwargs_world(engine):
    cls = type("SpecKw", (object,), {})
    _define(engine, cls, "combine", _COMBINE, "(Integer, Integer) -> Integer")
    return cls


@pytest.mark.requires_specialization
def test_kwargs_calls_at_promoted_site_still_reject_bad_arguments():
    """A site promoted under keyword traffic compiles no keyword path:
    the full dynamic check of the generic tier rejects the bad slot."""
    engine = spec_engine()
    obj = _kwargs_world(engine)()
    for i in range(THRESHOLD + 5):
        obj.combine(i, y=2)
    assert engine.stats.promotions == 1
    with pytest.raises(ArgumentTypeError):
        obj.combine(1, y="nope")
    assert obj.combine(1, y=2) == 3  # site healthy afterwards


@pytest.mark.requires_specialization
def test_unseen_kwargs_shapes_fall_back_to_generic():
    """Keyword shapes — different names, a permuted all-keyword call —
    bail and produce exactly the generic tier's outcome."""
    engine = spec_engine()
    obj = _kwargs_world(engine)()
    for i in range(THRESHOLD + 5):
        obj.combine(i, y=2)
    assert engine.stats.promotions == 1
    assert obj.combine(y=2, x=1) == 3   # all-keyword: different shape
    assert obj.combine(x=5, y=6) == 11
    with pytest.raises(TypeError):
        obj.combine(1, z=2)             # unknown name, as ever


@pytest.mark.requires_specialization
def test_unstable_kwargs_shapes_promote_without_a_layout():
    """Two distinct keyword shapes pre-promotion: the compiled wrapper
    bails every keyword call, and both shapes keep working
    generically."""
    engine = spec_engine()
    obj = _kwargs_world(engine)()
    for i in range(THRESHOLD + 5):
        assert obj.combine(i, y=2) == i + 2
        assert obj.combine(x=i, y=3) == i + 3
    assert engine.stats.promotions == 1
    assert obj.combine(1, y=2) == 3
    assert obj.combine(x=1, y=2) == 3


# -- dominant-profile selection (regression) ----------------------------------


@pytest.mark.requires_specialization
def test_dominant_profile_guard_targets_the_hottest_shape():
    """Regression: the compiled identity guard must front the profile
    with the most pre-promotion hits.  The pre-fix code took
    ``next(iter(plan.profiles))`` — arbitrary frozenset order — so this
    test learns both profiles, finds which one iteration happens to
    yield first, and then makes the *other* one hot: the old code
    deterministically guarded the cold shape."""
    engine = spec_engine()
    cls = type("SpecDom", (object,), {})
    _define(engine, cls, "same", "def same(self, n):\n    return n\n",
            "(Numeric) -> Numeric")
    obj = cls()
    obj.same(1)       # cold build
    obj.same(1)       # learn (int,)
    obj.same(1.5)     # learn (float,)
    plan = engine._plans.get(("SpecDom", "SpecDom", "same", "instance"))
    assert plan.profiles == {(int,), (float,)}
    cold = next(iter(plan.profiles))
    hot_cls = float if cold == (int,) else int
    hot_val = 2.5 if hot_cls is float else 2
    for _ in range(THRESHOLD + 5):
        obj.same(hot_val)
    raw = cls.__dict__["same"]
    assert getattr(raw, "__hb_specialized__", False)
    assert raw.__globals__["_d0_0"] is hot_cls


# -- exact deopt counting (regression) ----------------------------------------


@pytest.mark.requires_specialization
def test_deopt_counter_ignores_already_rebound_slots():
    """Regression: a slot rebound behind the specializer's back (direct
    ``setattr``, no wrap/unwrap notification) displaces the compiled
    wrapper itself; the later plan-dropping wave must neither clobber
    the new function nor count a deopt for a restore that never
    happened."""
    engine = spec_engine()
    cls = _hot_world(engine)
    obj = cls()
    _warm(obj)
    assert _slot_is_specialized(cls, "bump")

    def plain(self, n):
        return n + 1

    setattr(cls, "bump", plain)
    deopts0 = engine.stats.deopts
    engine._plans.clear()  # the wave that would have deoptimized it
    assert engine.stats.deopts == deopts0  # nothing was actually restored
    assert cls.__dict__["bump"] is plain   # and nothing was clobbered
    assert obj.bump(1) == 2


# -- wrapper code compiled once per text -------------------------------------


@pytest.mark.requires_specialization
def test_same_shape_sites_share_one_compile_and_keep_their_names(
        monkeypatch):
    """Two promoted sites of one shape emit one text, which is compiled
    once; each wrapper's code still names its own site."""
    monkeypatch.setattr(specialize, "_CODE_MEMO", {})
    compiled = []
    real_compile = compile

    def counting_compile(source, *args, **kwargs):
        compiled.append(source)
        return real_compile(source, *args, **kwargs)

    monkeypatch.setattr(specialize, "compile", counting_compile,
                        raising=False)
    engine = spec_engine()
    classes = [type(name, (object,), {}) for name in ("SpecOne", "SpecTwo")]
    for cls in classes:
        _define(engine, cls, "bump", _BUMP, "(Integer) -> Integer")
        _warm(cls())
    one, two = (_slot(cls, "bump") for cls in classes)
    assert one.__hb_specialized__ and two.__hb_specialized__
    assert one.__hb_source__ == two.__hb_source__
    assert compiled == [one.__hb_source__]
    assert one.__code__.co_code == two.__code__.co_code
    assert one.__code__.co_filename == "<hb-specialized SpecOne#bump>"
    assert two.__code__.co_filename == "<hb-specialized SpecTwo#bump>"
    assert one(classes[0](), 1) == two(classes[1](), 1) == 2


_BOOM = ("def boom(self, n):\n"
         "    if n < 0:\n"
         "        raise ValueError(\"negative\")\n"
         "    return n\n")


@pytest.mark.requires_specialization
def test_traceback_through_a_promoted_wrapper_names_the_site():
    engine = spec_engine()
    cls = type("SpecBoom", (object,), {})
    _define(engine, cls, "boom", _BOOM, "(Integer) -> Integer")
    obj = cls()
    _warm(obj, "boom")
    assert _slot_is_specialized(cls, "boom")
    with pytest.raises(ValueError) as info:
        obj.boom(-1)
    files = [frame.filename
             for frame in traceback.extract_tb(info.value.__traceback__)]
    assert "<hb-specialized SpecBoom#boom>" in files


def test_wrapper_code_memo_stays_at_its_bound(monkeypatch):
    monkeypatch.setattr(specialize, "_CODE_MEMO", {})
    monkeypatch.setattr(specialize, "_CODE_MEMO_MAX", 3)
    sources = [f"def _specialized():\n    return {i}\n" for i in range(8)]
    for source in sources:
        code = specialize._wrapper_code(source)
        assert specialize._wrapper_code(source) is code  # a hit
        assert len(specialize._CODE_MEMO) <= 3
    assert list(specialize._CODE_MEMO) == sources[-3:]  # oldest go first


# -- trusted signatures and return checks ------------------------------------


@pytest.mark.requires_specialization
def test_trusted_signature_site_promotes_and_checks_args():
    engine = spec_engine()
    cls = type("SpecTrusted", (object,), {})
    _define(engine, cls, "bump", _BUMP, "(Integer) -> Integer", check=False)
    obj = cls()
    _warm(obj)
    assert engine.stats.promotions == 1
    with pytest.raises(ArgumentTypeError):
        obj.bump([])


# -- signature-fact elision ------------------------------------------------------


def _wrapper_source(cls, name) -> str:
    raw = cls.__dict__.get(name)
    fn = raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(fn, "__hb_source__", "")


@pytest.mark.requires_elision
def test_elision_fires_on_hot_checked_leaf():
    """A checked method with a vacuous parameter promotes with its
    argument test elided: the emitted wrapper holds no profile test,
    ``checks_elided`` advances by one on every call, and the checked
    frame is still pushed — a checked caller's callee skips its
    argument check."""
    engine = spec_engine()
    cls = type("SpecChain", (object,), {})
    _define(engine, cls, "base", _BASE, _ANY_SIG)
    _define(engine, cls, "double", _DOUBLE, _ANY_SIG)
    obj = cls()
    _warm(obj, "double")
    stats = engine.stats
    assert stats.promotions == stats.elide_promotions == 2  # both methods
    for name in ("double", "base"):
        source = _wrapper_source(cls, name)
        assert "_d0_" not in source and "profiles" not in source
    calls = 9
    before = engine.stats_snapshot()
    _warm(obj, "double", calls)
    after = engine.stats_snapshot()
    delta = {k: after[k] - before[k] for k in after}
    assert delta["calls_intercepted"] == 2 * calls    # double + base
    assert delta["specialized_hits"] == 2 * calls     # both on wrappers
    assert delta["checks_elided"] == 2 * calls        # one test per call
    assert delta["dynamic_arg_checks"] == calls       # double's boundary
    assert delta["dynamic_arg_checks_skipped"] == calls  # base, in a frame
    # counter parity: the generic-tier invariant still holds
    assert (stats.dynamic_arg_checks + stats.dynamic_arg_checks_skipped
            == stats.calls_intercepted)


@pytest.mark.requires_elision
def test_elided_site_still_rejects_bad_arguments():
    """An elided argument test leaves the arity guard in place: a call
    of another arity bails to the generic tier, which raises exactly as
    before."""
    engine = spec_engine()
    obj = _hot_world(engine, _ANY_SIG)()
    _warm(obj)
    assert engine.stats.elide_promotions == 1
    with pytest.raises(ArgumentTypeError):
        obj.bump(1, 2)
    assert obj.bump(7) == 8  # site still healthy afterwards


@pytest.mark.requires_elision
def test_elide_disabled_by_env_keeps_tier2(monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_ELIDE", "1")
    engine = spec_engine()
    cls = _hot_world(engine, _ANY_SIG)
    obj = cls()
    _warm(obj)
    assert engine.stats.promotions == 1       # tier 2 still promotes
    assert engine.stats.elide_promotions == 0
    source = _wrapper_source(cls, "bump")
    assert "_d0_0" in source and "c.top = True" in source


@pytest.mark.parametrize("overrides", [
    pytest.param({"specialize": False}, id="generic",
                 marks=pytest.mark.requires_caches),
    pytest.param({}, id="promoted",
                 marks=pytest.mark.requires_specialization),
    pytest.param({"elide": False}, id="noelide",
                 marks=pytest.mark.requires_specialization),
])
def test_direct_cache_clear_is_a_memo_flush(overrides):
    """A *direct* ``CheckCache.clear()`` (bypassing the engine) is a
    memo flush on every tier, not a world mutation: the derivations it
    removed are still valid, so the plans (and wrappers) replaying them
    keep serving and nothing re-derives them.  The flush keeps the
    derivations' dependency edges, so a later wave still reaches them:
    retyping the callee so that the caller's body no longer checks
    drops the caller's plan and site, and its next call raises."""
    engine = spec_engine(**overrides)
    cls = type("SpecChain", (object,), {})
    _define(engine, cls, "base", _BASE, "(Integer) -> Integer")
    _define(engine, cls, "double", _DOUBLE, "(Integer) -> Integer")
    obj = cls()
    _warm(obj, "double")
    promoted = overrides.get("specialize", True)
    assert _slot_is_specialized(cls, "double") == promoted
    checks_before = engine.stats.static_checks
    engine.cache.clear()
    assert obj.double(5) == 10                   # still correct
    assert engine.stats.static_checks == checks_before  # no re-derive
    assert _slot_is_specialized(cls, "double") == promoted
    # base still checks against Object; double's ``+`` on it does not.
    engine.types.replace("SpecChain", "base", "(Integer) -> Object",
                         check=True)
    assert not _slot_is_specialized(cls, "double")
    with pytest.raises(StaticTypeError):
        obj.double(5)


@pytest.mark.requires_elision
def test_retype_deopts_elided_site():
    engine = spec_engine()
    cls = _hot_world(engine, _ANY_SIG)
    obj = cls()
    _warm(obj)
    assert engine.stats.elide_promotions == 1
    engine.types.replace("SpecHot", "bump", "(Integer) -> String",
                         check=True)
    assert engine.stats.elide_deopts == 1
    assert not _slot_is_specialized(cls, "bump")
    with pytest.raises(StaticTypeError):
        obj.bump(3)


@pytest.mark.requires_elision
def test_callee_churn_deopts_elided_caller():
    """Retyping a *callee* of an elided method mid-run deopts the elided
    caller (its static check consulted the callee's signature), and a
    redefined callee body is what the caller's very next call runs."""
    engine = spec_engine()
    cls = type("SpecChain", (object,), {})
    _define(engine, cls, "base", _BASE, _ANY_SIG)
    _define(engine, cls, "double", _DOUBLE, _ANY_SIG)
    obj = cls()
    for i in range(THRESHOLD + 5):
        assert obj.double(i) == 2 * i
    assert engine.stats.elide_promotions == 2  # both argument tests
    # (a) retype the callee: the caller's derivation is now ill-typed
    engine.types.replace("SpecChain", "base", "(%any) -> String",
                         check=True)
    assert not _slot_is_specialized(cls, "double")
    assert engine.stats.elide_deopts >= 1
    with pytest.raises(StaticTypeError):
        obj.double(3)
    # (b) restore + re-warm, then *redefine* the callee mid-run
    engine.types.replace("SpecChain", "base", _ANY_SIG, check=True)
    for i in range(THRESHOLD + 5):
        assert obj.double(i) == 2 * i
    assert _slot_is_specialized(cls, "double")
    _define(engine, cls, "base", "def base(self, n):\n    return n + 100\n",
            _ANY_SIG)
    assert not _slot_is_specialized(cls, "double")
    assert obj.double(1) == 102  # the *new* callee body, immediately


@pytest.mark.requires_specialization
def test_new_subclass_keeps_parent_wrapper_and_plan_live():
    """Registering a subclass changes no linearization but its own, so
    the parent's promoted wrapper and call plan stay live: no deopt, no
    plan flush.  Subclass instances fail the wrapper's exact-class
    guard and are served, correctly, by the generic tier."""
    engine = spec_engine()
    cls = type("SpecLeaf", (object,), {})
    _define(engine, cls, "base", _BASE, "(Integer) -> Integer")
    _define(engine, cls, "double", _DOUBLE, "(Integer) -> Integer")
    obj = cls()
    for i in range(THRESHOLD + 5):
        assert obj.double(i) == 2 * i
    key = ("SpecLeaf", "SpecLeaf", "double", "instance")
    plan = engine._plans.get(key)
    wrapper = cls.__dict__["double"]
    assert plan is not None and _slot_is_specialized(cls, "double")
    deopts = engine.stats.deopts
    sub = type("SpecLeafSub", (cls,), {})
    engine.register_class(sub)
    assert cls.__dict__["double"] is wrapper
    assert engine._plans.get(key) is plan
    assert engine.stats.deopts == deopts
    hits = engine.stats.specialized_hits
    assert sub().double(3) == 6   # generic tier, correct at once
    with pytest.raises(ArgumentTypeError):
        sub().double("three")
    assert engine.stats.specialized_hits == hits
    assert obj.double(4) == 8     # the parent's wrapper still serves
    assert engine.stats.specialized_hits > hits


@pytest.mark.requires_specialization
def test_depth2_callee_redefinition_reaches_promoted_caller():
    """Redefining a depth-2 callee (``top`` -> unchecked ``mid`` ->
    ``base``) is visible on the promoted caller's very next call: the
    wrapper calls the original ``top``, whose body dispatches through
    the live class slots."""
    engine = spec_engine()
    cls = type("SpecDeepChain", (object,), {})
    _define(engine, cls, "base", _BASE, "(Integer) -> Integer")
    _define(engine, cls, "mid",
            "def mid(self, n):\n    return self.base(n) + 1\n",
            "(Integer) -> Integer", check=False)
    _define(engine, cls, "top",
            "def top(self, n):\n    return self.mid(n) + n\n",
            "(Integer) -> Integer")
    obj = cls()
    for i in range(THRESHOLD + 5):
        assert obj.top(i) == 2 * i + 1
    assert _slot_is_specialized(cls, "top")
    _define(engine, cls, "base",
            "def base(self, n):\n    return n + 100\n",
            "(Integer) -> Integer")
    assert obj.top(1) == 103  # the *new* depth-2 body, immediately


def test_gap_kwargs_call_checks_the_right_slots():
    """Slot alignment for gap shapes in *every* tier: z's value must be
    checked against z's declared type, not slide into y's slot.  (Runs
    under the oracle too — the view fix is tier-independent.)"""
    engine = Engine(EngineConfig())
    cls = type("SpecGapAlign", (object,), {})
    _define(engine, cls, "mix",
            "def mix(self, x, y=2, z=3):\n    return (x, y, z)\n",
            "(Integer, Integer, String) -> Object")
    obj = cls()
    assert obj.mix(1, z="s") == (1, 2, "s")
    with pytest.raises(ArgumentTypeError):
        obj.mix(1, z=9)  # Integer in z's String slot must be rejected


# -- promote/deopt/re-promote stress (hypothesis) ----------------------------

_STRESS_SIGS = ("(Integer) -> Integer", "(Integer) -> String",
                "(Integer) -> Numeric", _ANY_SIG)
_STRESS_METHODS = ("m0", "m1", "m2")
_STRESS_BODIES = {
    "inc": "def {name}(self, n):\n    return n + 1\n",
    "ident": "def {name}(self, n):\n    return n\n",
    "chain": "def {name}(self, n):\n    return self.m0(n)\n",
    # chain2 on m2 with m1 redefined to "chain" makes m2 -> m1 -> m0 a
    # depth-2 call chain through the unchecked m1.
    "chain2": "def {name}(self, n):\n    return self.m1(n)\n",
    # ill-typed under every Integer-returning signature
    "str": "def {name}(self, n):\n    return 's'\n",
}

#: receivers the stress scripts dispatch through: the base class, two
#: subclasses (bursts on different receivers hit a slot promoted for
#: another receiver class, so they exercise the bail to the generic
#: tier), and "newest" — the most recently created mid-flight
#: subclass (the "subclass" op replaces it), so fresh classes serve
#: traffic while their parents' sites stay promoted.
_STRESS_RECEIVERS = ("base", "suba", "subb", "newest")

stress_ops = st.lists(
    st.one_of(
        # call bursts long enough to cross the tiny promotion threshold
        st.tuples(st.just("burst"), st.sampled_from(_STRESS_METHODS),
                  st.sampled_from(_STRESS_RECEIVERS),
                  st.integers(min_value=1, max_value=12)),
        # keyword-call bursts: promoted sites bail them to the generic tier
        st.tuples(st.just("kwburst"), st.sampled_from(_STRESS_METHODS),
                  st.sampled_from(_STRESS_RECEIVERS),
                  st.integers(min_value=1, max_value=12)),
        st.tuples(st.just("retype"), st.sampled_from(_STRESS_METHODS),
                  st.sampled_from(_STRESS_SIGS)),
        st.tuples(st.just("redefine"), st.sampled_from(_STRESS_METHODS),
                  st.sampled_from(sorted(_STRESS_BODIES))),
        # a plain assignment, then re-annotation with check=True
        st.tuples(st.just("patch"), st.sampled_from(_STRESS_METHODS),
                  st.sampled_from(sorted(_STRESS_BODIES))),
        # define_method of a closure capturing an Integer or a String
        st.tuples(st.just("closure"), st.sampled_from(_STRESS_METHODS),
                  st.sampled_from((1, "s"))),
        st.tuples(st.just("badcall"), st.sampled_from(_STRESS_METHODS),
                  st.sampled_from(_STRESS_RECEIVERS)),
        # mid-flight subclassing: a hierarchy wave under live traffic
        st.tuples(st.just("subclass"),
                  st.sampled_from(("base", "suba", "subb"))),
    ),
    min_size=2, max_size=16)


def _stress_outcome(thunk):
    try:
        return ("ok", repr(thunk()))
    except RecursionError:
        return ("err", "RecursionError")
    except Exception as exc:  # noqa: BLE001 - error identity is the property
        return ("err", type(exc).__name__, str(exc))


def _stress_replay(script, *, disable):
    engine = Engine(EngineConfig(specialize_threshold=2),
                    disable_caches=disable)
    cls = type("SpecStress", (object,), {})
    for name in ("m0", "m2"):
        _define(engine, cls, name,
                _STRESS_BODIES["inc"].format(name=name),
                "(Integer) -> Integer")
    # m1 starts annotated-but-unchecked, so chain2 scripts call through
    # a body no static check vouches for.
    _define(engine, cls, "m1", _STRESS_BODIES["inc"].format(name="m1"),
            "(Integer) -> Integer", check=False)
    sub_a = type("SpecStressA", (cls,), {})
    sub_b = type("SpecStressB", (cls,), {})
    engine.register_class(sub_a)
    engine.register_class(sub_b)
    receivers = {"base": cls(), "suba": sub_a(), "subb": sub_b()}
    receivers["newest"] = receivers["base"]
    dyn_subs = 0
    outcomes = []
    for op in script:
        if op[0] == "burst":
            _, name, recv, count = op
            obj = receivers[recv]
            for i in range(count):
                outcomes.append(_stress_outcome(
                    lambda o=obj, m=name, a=i: getattr(o, m)(a)))
        elif op[0] == "kwburst":
            _, name, recv, count = op
            obj = receivers[recv]
            for i in range(count):
                outcomes.append(_stress_outcome(
                    lambda o=obj, m=name, a=i: getattr(o, m)(n=a)))
        elif op[0] == "retype":
            _, name, sig = op
            outcomes.append(_stress_outcome(
                lambda: engine.types.replace("SpecStress", name, sig,
                                             check=True)))
        elif op[0] == "redefine":
            _, name, body_key = op
            body = _STRESS_BODIES[body_key].format(name=name)
            namespace = {}
            exec(body, namespace)  # noqa: S102 - fixed test templates
            fn = namespace[name]
            fn.__hb_source__ = body
            outcomes.append(_stress_outcome(
                lambda: engine.define_method(cls, name, fn, source=body)))
        elif op[0] == "patch":
            _, name, body_key = op
            body = _STRESS_BODIES[body_key].format(name=name)
            namespace = {}
            exec(body, namespace)  # noqa: S102 - fixed test templates
            fn = namespace[name]
            fn.__hb_source__ = body
            setattr(cls, name, fn)
            outcomes.append(_stress_outcome(
                lambda: engine.annotate(cls, name, "(Integer) -> Integer",
                                        check=True)))
        elif op[0] == "closure":
            _, name, captured = op
            outcomes.append(_stress_outcome(
                lambda: engine.define_method(
                    cls, name, _adder(captured),
                    sig="(Integer) -> Integer", check=True)))
        elif op[0] == "subclass":
            # Defining a subclass is a pure hierarchy wave, and the
            # fresh class immediately serves traffic as the "newest"
            # receiver.
            _, recv = op
            parent = type(receivers[recv])
            dyn_subs += 1
            new_cls = type(f"SpecStressDyn{dyn_subs}", (parent,), {})
            outcomes.append(_stress_outcome(
                lambda c=new_cls: engine.register_class(c)))
            receivers["newest"] = new_cls()
        else:  # badcall: must raise identically in both engines
            _, name, recv = op
            outcomes.append(_stress_outcome(
                lambda o=receivers[recv], m=name: getattr(o, m)("wrong")))
    return outcomes, engine


@given(stress_ops)
# A promoted unchecked site, redefined and then retyped with check=True,
# once ran its new body against the IR lowered from the old one.
@example([("burst", "m1", "base", 3),
          ("retype", "m0", "(Integer) -> String"),
          ("redefine", "m1", "chain"),
          ("retype", "m1", "(Integer) -> Integer"),
          ("burst", "m1", "base", 1)])
# A new lowering under an unchanged signature once kept the old
# body's verdict: after a plain assignment plus re-annotation, and
# after a closure's capture flipped from Integer to String.
@example([("burst", "m0", "base", 3),
          ("patch", "m0", "str"),
          ("burst", "m0", "base", 1)])
@example([("closure", "m2", 1),
          ("burst", "m2", "base", 3),
          ("closure", "m2", "s"),
          ("burst", "m2", "base", 1)])
@settings(max_examples=40, deadline=None)
def test_promote_deopt_repromote_matches_oracle(script):
    """Random promote/deopt/re-promote interleavings — across three
    receiver classes and keyword-call bursts, both of which bail out of
    a promoted site — never change a single observable outcome versus
    the cache-free oracle, and leave every site record consistent."""
    tiered, engine = _stress_replay(script, disable=False)
    oracle, _ = _stress_replay(script, disable=True)
    assert tiered == oracle
    _assert_site_records(engine)
    if engine._specializer is None:
        return
    cls = engine.host_class("SpecStress")
    wrap_method(engine, cls, "m0")  # a re-wrap discards m0's site
    _assert_site_records(engine)
    assert (cls, "m0") not in engine._specializer._sites
    add_pre(engine, cls, "m1", lambda recv, *a, **k: True)  # deopt all
    _assert_site_records(engine)
    assert len(engine._specializer) == 0


def _assert_site_records(engine):
    """Each promoted site is a live plan whose slot holds the value the
    promotion installed, and only those plans record a site."""
    spec = engine._specializer
    if spec is None:
        return
    live = dict(engine._plans.items())
    for (cls, name), plan in spec._sites.items():
        assert live.get(plan.key) is plan
        assert (plan.slot_cls, plan.key[2]) == (cls, name)
        assert cls.__dict__[name] is plan.installed
    assert len(spec) == sum(plan.installed is not None
                            for plan in live.values())


@pytest.mark.requires_specialization
def test_stress_scenarios_actually_promote():
    """The stress harness is not vacuous: a plain call burst promotes."""
    script = [("burst", "m0", "base", 12),
              ("retype", "m0", _STRESS_SIGS[0]),
              ("burst", "m0", "base", 12)]
    _, engine = _stress_replay(script, disable=False)
    assert engine.stats.promotions >= 2
    assert engine.stats.deopts >= 1


@pytest.mark.requires_elision
def test_stress_scenarios_actually_build_and_break_deep_chains():
    """The new stress ops are not vacuous: a chain2 script hot-paths a
    depth-2 call chain (m2 -> unchecked m1 -> m0), the depth-2 callee
    is redefined under traffic, and a mid-flight subclass serves
    traffic — all oracle-identical."""
    script = [("retype", "m2", _ANY_SIG),       # m2's argument test elides
              ("redefine", "m1", "chain"),      # m1 -> m0 (still unchecked)
              ("burst", "m2", "base", 12),      # m2 -> m1 -> m0 goes hot
              ("redefine", "m0", "ident"),      # depth-2 callee redefined
              ("burst", "m2", "base", 6),
              ("subclass", "base"),             # leaf fact revoked
              ("burst", "m2", "newest", 8)]     # fresh subclass traffic
    outcomes, engine = _stress_replay(script, disable=False)
    oracle, _ = _stress_replay(script, disable=True)
    assert outcomes == oracle
    assert engine.stats.elide_promotions >= 1
    # the ("subclass", "base") op actually registered a new class
    assert engine.hier.is_known("SpecStressDyn1")


@pytest.mark.requires_elision
def test_stress_scenarios_actually_elide_and_survive_callee_churn():
    """The stress harness exercises elision: hot leaves promote with
    argument tests elided, a chain caller's *callee* is retyped mid-run,
    and the elided sites are torn down — the hypothesis property above
    already replays such scripts differentially against the oracle."""
    script = [("retype", "m0", _ANY_SIG),     # vacuous: tests elide
              ("burst", "m0", "base", 12),
              ("redefine", "m1", "chain"),   # m1 now calls m0
              ("retype", "m1", _ANY_SIG),
              ("burst", "m1", "base", 12),
              ("retype", "m0", _STRESS_SIGS[1]),  # retype m1's callee
              ("burst", "m1", "base", 6)]
    _, engine = _stress_replay(script, disable=False)
    assert engine.stats.elide_promotions >= 1
    assert engine.stats.checks_elided > 0
    assert engine.stats.elide_deopts >= 1


# -- idempotent re-annotation --------------------------------------------------


class _RegisterSpy:
    """Counts ``CFGRegistry.register_function`` calls."""

    def __init__(self, monkeypatch):
        from repro.ril.registry import CFGRegistry
        self.calls = 0
        real = CFGRegistry.register_function

        def spy(registry, *args, **kwargs):
            self.calls += 1
            return real(registry, *args, **kwargs)

        monkeypatch.setattr(CFGRegistry, "register_function", spy)


def _slot(cls, name):
    raw = cls.__dict__[name]
    return raw.__func__ if isinstance(raw, classmethod) else raw


@pytest.mark.requires_specialization
def test_identical_reannotation_keeps_the_specialized_wrapper(monkeypatch):
    engine = spec_engine()
    cls = _hot_world(engine)
    obj = cls()
    _warm(obj)
    promoted = _slot(cls, "bump")
    assert promoted.__hb_specialized__
    deopts = engine.stats.deopts
    spy = _RegisterSpy(monkeypatch)
    for _ in range(3):
        engine.annotate(cls, "bump", "(Integer) -> Integer", check=True)
    assert _slot(cls, "bump") is promoted
    assert engine.stats.deopts == deopts
    assert spy.calls == 0
    assert obj.bump(1) == 2
    with pytest.raises(ArgumentTypeError):
        obj.bump("x")


def _reannotation_rewraps(engine, cls, obj, monkeypatch, **annotate):
    """Re-annotate a warm site; True when it re-registered and
    re-wrapped (the promoted wrapper is gone from the slot)."""
    _warm(obj)
    before = _slot(cls, "bump")
    spy = _RegisterSpy(monkeypatch)
    engine.annotate(cls, "bump", **annotate)
    return spy.calls == 1 and _slot(cls, "bump") is not before


@pytest.mark.requires_specialization
def test_new_arm_reregisters_and_rewraps(monkeypatch):
    engine = spec_engine()
    cls = _hot_world(engine)
    obj = cls()
    assert _reannotation_rewraps(engine, cls, obj, monkeypatch,
                                 sig="(Float) -> Float", check=True)
    assert len(engine.types.lookup("SpecHot", "bump").arms) == 2
    assert obj.bump(1) == 2


@pytest.mark.requires_specialization
def test_check_upgrade_reregisters_and_rewraps(monkeypatch):
    engine = spec_engine()
    cls = type("SpecTrusted", (object,), {})
    _define(engine, cls, "bump", _BUMP, "(Integer) -> Integer", check=False)
    obj = cls()
    assert _reannotation_rewraps(engine, cls, obj, monkeypatch,
                                 sig="(Integer) -> Integer", check=True)
    assert engine.types.lookup("SpecTrusted", "bump").check
    assert engine.cfgs.lookup("SpecTrusted", "bump") is not None


def _tagged_factory(tag):
    def probe(self):
        return tag

    def retag(value):
        nonlocal tag
        tag = value

    return probe, retag


@pytest.mark.requires_specialization
def test_capture_type_change_reregisters_and_rewraps(monkeypatch):
    from repro.rtypes import NominalType

    engine = spec_engine()
    cls = type("SpecTagged", (object,), {})
    probe, retag = _tagged_factory(1)
    engine.define_method(cls, "probe", probe, sig="() -> %any", check=True)
    obj = cls()
    for _ in range(THRESHOLD + 5):
        assert obj.probe() == 1
    assert _slot(cls, "probe").__hb_specialized__
    mir = engine.cfgs.lookup("SpecTagged", "probe")
    assert mir.captures["tag"] == NominalType("Integer")

    # Same value type: nothing to redo.
    retag(2)
    spy = _RegisterSpy(monkeypatch)
    engine.annotate(cls, "probe", "() -> %any", check=True)
    assert spy.calls == 0 and _slot(cls, "probe").__hb_specialized__

    retag("two")
    engine.annotate(cls, "probe", "() -> %any", check=True)
    assert spy.calls == 1
    assert not getattr(_slot(cls, "probe"), "__hb_specialized__", False)
    mir = engine.cfgs.lookup("SpecTagged", "probe")
    assert mir.captures["tag"] == NominalType("String")
    assert obj.probe() == "two"


@pytest.mark.requires_specialization
def test_rolify_grant_loop_keeps_sites_promoted(monkeypatch):
    """Fig. 2's pre-contract re-annotates ``is_<role>`` on every grant;
    on a warmed world those identical annotations neither deopt nor
    re-promote anything, and lower nothing."""
    from repro.serving import recipes

    engine = spec_engine()
    world = recipes.build_serving_world("rolify", engine=engine)
    user = world.extras["models"].User.all()[0]

    def cycle():
        assert user.grant("professor")
        assert user.is_professor()
        assert user.is_professor_of(user)
        assert not user.revoke("professor")

    for _ in range(THRESHOLD * 4):
        cycle()
    assert _slot(type(user), "is_professor").__hb_specialized__
    cycle()
    stats = engine.stats
    deopts, promotions = stats.deopts, stats.promotions
    spy = _RegisterSpy(monkeypatch)
    for _ in range(50):
        cycle()
    assert (stats.deopts, stats.promotions) == (deopts, promotions)
    assert spy.calls == 0


def test_identical_reannotation_restores_the_annotated_kind():
    """One slot, two signature kinds: re-annotating the class-method
    signature puts a class-kind wrapper back even though the signature
    itself is unchanged."""
    engine = spec_engine()

    class SpecKinds:
        @classmethod
        def make(cls, n):
            return n

    engine.annotate(SpecKinds, "make", "(Integer) -> Integer", kind=CLASS)
    engine.annotate(SpecKinds, "make", "(String) -> String")
    with pytest.raises(ArgumentTypeError):
        SpecKinds.make(1)  # the instance-kind wrapper checks (String)
    engine.annotate(SpecKinds, "make", "(Integer) -> Integer", kind=CLASS)
    assert SpecKinds.make(1) == 1


# -- fixed-arity calls and shape counters ------------------------------------

_PAIR = "def pair(self, a, b):\n    return a + b\n"

#: checked callers: the callee runs under a checked frame.
_PAIR_CALLERS = {
    "via1": "def via1(self, o, n):\n    return o.pair(n)\n",
    "via3": "def via3(self, o, n):\n    return o.pair(n, n, n)\n",
    "viakw": "def viakw(self, o, n):\n    return o.pair(n, b=n)\n",
    "viabad": "def viabad(self, o, n):\n    return o.pair(n, c=n)\n",
}


def _outcome(thunk):
    try:
        return ("ok", thunk())
    except Exception as exc:  # noqa: BLE001 - the outcome is the subject
        return (type(exc).__name__, str(exc))


def _arity_outcomes(engine, sig, check):
    """Promote ``pair`` on its 2-arity, then call it with every other
    shape from unchecked and checked callers.  Returns the outcomes and
    how far ``specialized_hits`` moved across those calls."""
    cls = type("SpecArity", (object,), {})
    _define(engine, cls, "pair", _PAIR, sig, check=check)
    for name, body in _PAIR_CALLERS.items():
        _define(engine, cls, name, body, "(%any, Integer) -> %any")
    obj = cls()
    for i in range(THRESHOLD + 5):
        assert obj.pair(i, i) == 2 * i
    assert _slot_is_specialized(cls, "pair") == (
        engine._specializer is not None)
    before = engine.stats.specialized_hits
    outcomes = [_outcome(thunk) for thunk in (
        lambda: obj.pair(1),
        lambda: obj.pair(1, 2, 3),
        lambda: obj.pair(1, b=2),
        lambda: obj.pair(a=1, b=2),
        lambda: obj.pair(1, c=2),
        lambda: obj.via1(obj, 1),
        lambda: obj.via3(obj, 1),
        lambda: obj.viakw(obj, 1),
        lambda: obj.viabad(obj, 1),
    )]
    moved = engine.stats.specialized_hits - before
    assert obj.pair(2, 3) == 5  # the site is still healthy afterwards
    return outcomes, moved


@pytest.mark.parametrize("sig, check", [
    ("(Integer, Integer) -> Integer", True),
    ("(Integer, Integer) -> Integer", False),
    ("(%any, %any) -> %any", True),
])
def test_other_arities_and_keywords_match_the_generic_tier(sig, check):
    """A promoted site serves one positional arity: too few or too many
    arguments and keyword calls bail to the generic tier, so the result,
    or the error type and message, equals what tier 1 and the cache-free
    oracle give — from checked and unchecked callers alike."""
    promoted, moved = _arity_outcomes(spec_engine(), sig, check)
    tier1, _ = _arity_outcomes(
        Engine(EngineConfig(specialize=False)), sig, check)
    oracle, _ = _arity_outcomes(Engine(disable_caches=True), sig, check)
    assert promoted == tier1 == oracle
    assert {kind for kind, _ in promoted} >= {"ok", "TypeError"}
    assert moved == 0  # no bad shape ran on the wrapper


def _moved_slots(shard, before: dict) -> dict:
    return {slot: getattr(shard, slot) - n for slot, n in before.items()
            if getattr(shard, slot) != n}


def _expected_shape(engine, name: str, branch: str) -> str:
    for plan in engine._specializer.promoted_sites():
        if plan.key[2] == name:
            return shape_slot(plan.checked,
                              "nosig" if plan.sig is None else branch,
                              int(plan.elision is not None))
    raise AssertionError(f"{name} is not promoted")


@pytest.mark.requires_specialization
def test_each_shape_moves_the_snapshot_by_its_vector():
    """One call through each emitted shape bumps exactly that shape's
    slot, once, and moves ``stats_snapshot()`` by exactly its vector:
    checked and trusted plans, vacuous and non-vacuous parameters,
    unchecked and checked callers, and a signature-less wrapped
    method."""
    engine = spec_engine()
    cls = type("SpecShapes", (object,), {})
    targets = {"chk": ("(Integer) -> Integer", True),
               "chk_any": ("(%any) -> %any", True),
               "trust": ("(Integer) -> Integer", False),
               "trust_any": ("(%any) -> %any", False),
               "bare": (None, False)}
    for name, (sig, check) in targets.items():
        _define(engine, cls, name, f"def {name}(self, n):\n    return n\n",
                sig, check=check)
        _define(engine, cls, f"via_{name}",
                f"def via_{name}(self, o, n):\n    return o.{name}(n)\n",
                "(%any, Integer) -> %any")
    wrap_method(engine, cls, "bare")
    obj = cls()
    for name in targets:
        _warm(obj, name)
        for i in range(THRESHOLD + 5):
            getattr(obj, f"via_{name}")(obj, i)
    shard = engine.stats.local()
    vectors = dict(SHAPES)
    seen = set()
    for name in targets:
        via = getattr(obj, f"via_{name}")
        for branch, call in (("args", lambda: getattr(obj, name)(1)),
                             ("skip", lambda: via(obj, 1))):
            expected = {_expected_shape(engine, name, branch): 1}
            if branch == "skip":  # the checked caller rides its wrapper too
                expected[_expected_shape(engine, f"via_{name}", "args")] = 1
            slots = {slot: getattr(shard, slot) for slot in SHAPE_SLOTS}
            before = engine.stats_snapshot()
            assert call() == 1
            after = engine.stats_snapshot()
            assert _moved_slots(shard, slots) == expected
            for field in HOT_COUNTER_FIELDS:
                assert after[field] - before[field] == sum(
                    n * vectors[slot].get(field, 0)
                    for slot, n in expected.items()), (name, branch, field)
            seen |= set(expected)
    # Every branch and both elision states this engine can emit were hit.
    assert {slot.split("_")[2] for slot in seen} == set(ARG_BRANCHES)
    if engine._elider is not None:
        assert {slot.split("_")[3] for slot in seen} == {"0", "1"}

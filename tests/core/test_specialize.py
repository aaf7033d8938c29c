"""Tier-2 specialization: promotion, guard fallbacks, and deopt soundness.

The contract under test (see ``docs/performance.md`` "Tiered execution"):

* a stable warm call plan is promoted to an exec-generated per-site
  wrapper after ``specialize_threshold`` hits, and the wrapper's
  outcomes — return values, raised errors, stats invariants — are
  indistinguishable from the generic tier's;
* every guard failure (wrong receiver class, kwargs, unseen argument
  classes, missing check-cache entry) **falls back** into the generic
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

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import (
    ArgumentTypeError, Engine, EngineConfig, StaticTypeError,
)
from repro.rdl.registry import CLASS
from repro.rdl.wrap import add_pre, is_wrapped, unwrap_method

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


def _hot_world(engine):
    cls = type("SpecHot", (object,), {})
    _define(engine, cls, "bump", _BUMP, "(Integer) -> Integer")
    return cls


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
def test_direct_check_cache_clear_degrades_not_stales():
    """Even a CheckCache.clear() that bypasses Engine.invalidate (so no
    deopt fires) must not replay the removed derivation: the per-call
    membership guard bails to the generic tier, which re-checks.

    Pinned to ``elide=False``: tier 3 proves the membership probe
    redundant for engine-mediated waves and drops it — the elided
    behavior has its own contract (the companion test below)."""
    engine = spec_engine(elide=False)
    cls = _hot_world(engine)
    obj = cls()
    _warm(obj)
    assert _slot_is_specialized(cls, "bump")
    checks_before = engine.stats.static_checks
    engine.cache.clear()
    assert obj.bump(5) == 6
    assert engine.stats.static_checks == checks_before + 1  # re-derived


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


def _entry_keys(cls, name):
    raw = cls.__dict__.get(name)
    fn = raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(fn, "__hb_entry_keys__", ())


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
    assert _entry_keys(base, "bump") == (
        ("PolyBase", "PolyA", "bump", "instance"),)

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
    assert len(_entry_keys(base, "bump")) == 1
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


@pytest.mark.requires_specialization
def test_dynamic_ret_checks_survive_promotion():
    """An always-mode return check on a trusted lying signature must
    keep firing from the specialized wrapper."""
    from repro import ReturnTypeError

    engine = Engine(EngineConfig(specialize_threshold=THRESHOLD,
                                 dynamic_ret_checks="always"))
    cls = type("SpecLiar", (object,), {})
    _define(engine, cls, "greet", "def greet(self, n):\n    return n + 1\n",
            "(Integer) -> Integer", check=False)
    _define(engine, cls, "lie", "def lie(self, n):\n    return 'x'\n",
            "(Integer) -> Integer", check=False)
    obj = cls()
    _warm(obj, name="greet")
    assert engine.stats.promotions >= 1
    assert engine.stats.dynamic_ret_checks > 0
    with pytest.raises(ReturnTypeError):
        obj.lie(1)
    ret_checks = engine.stats.dynamic_ret_checks
    assert obj.greet(3) == 4
    assert engine.stats.dynamic_ret_checks == ret_checks + 1


# -- tier 3: static check elimination -----------------------------------------


def _wrapper_source(cls, name) -> str:
    raw = cls.__dict__.get(name)
    fn = raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(fn, "__hb_source__", "")


@pytest.mark.requires_elision
def test_elision_fires_on_hot_checked_leaf():
    """A checked leaf method over builtin classes promotes with the
    check-cache probe *and* the frame push/pop statically elided: the
    emitted wrapper simply does not contain them, and ``checks_elided``
    advances by the omitted-operation count on every call."""
    engine = spec_engine()
    cls = _hot_world(engine)
    obj = cls()
    _warm(obj)
    stats = engine.stats
    assert stats.promotions == 1
    assert stats.elide_promotions == 1
    assert stats.checks_elided > 0
    source = _wrapper_source(cls, "bump")
    assert "_ckey0" not in source      # cache membership probe: gone
    assert "stack.append" not in source  # checked-frame push/pop: gone
    assert "checks_elided" in source
    # counter parity: the generic-tier invariant still holds
    assert (stats.dynamic_arg_checks + stats.dynamic_arg_checks_skipped
            == stats.calls_intercepted)


@pytest.mark.requires_elision
def test_elided_site_still_rejects_bad_arguments():
    """Frame/return verdicts proved under the dominant profile pin it as
    an *unconditional* guard: any other argument class bails to the
    generic tier, which raises exactly as before."""
    engine = spec_engine()
    obj = _hot_world(engine)()
    _warm(obj)
    assert engine.stats.elide_promotions == 1
    with pytest.raises(ArgumentTypeError):
        obj.bump("not an integer")
    assert obj.bump(7) == 8  # site still healthy afterwards


@pytest.mark.requires_elision
def test_elide_disabled_by_env_keeps_tier2(monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_ELIDE", "1")
    engine = spec_engine()
    cls = _hot_world(engine)
    obj = cls()
    _warm(obj)
    assert engine.stats.promotions == 1       # tier 2 still promotes
    assert engine.stats.elide_promotions == 0
    source = _wrapper_source(cls, "bump")
    assert "_ckey0" in source and "stack.append" in source


@pytest.mark.requires_elision
def test_direct_cache_clear_on_elided_site_is_a_memo_flush():
    """The tier-3 contract for the elided membership probe: a *direct*
    ``CheckCache.clear()`` (bypassing ``Engine.invalidate``) is a memo
    flush, not a world mutation — the derivation it removed is still
    valid, so the elided wrapper replaying it is sound (it just skips
    the lazy re-check the generic tier would have run).  Every
    engine-mediated mutation still deopts the site and re-derives."""
    engine = spec_engine()
    cls = _hot_world(engine)
    obj = cls()
    _warm(obj)
    assert engine.stats.elide_promotions == 1
    checks_before = engine.stats.static_checks
    engine.cache.clear()
    assert obj.bump(5) == 6                      # still correct
    assert engine.stats.static_checks == checks_before  # lazy: no re-derive
    # An engine-mediated wave still tears the site down and re-checks.
    engine.types.replace("SpecHot", "bump", "(Integer) -> Integer",
                         check=True)
    assert not _slot_is_specialized(cls, "bump")
    assert obj.bump(5) == 6
    assert engine.stats.static_checks > checks_before


@pytest.mark.requires_elision
def test_retype_deopts_elided_site():
    engine = spec_engine()
    cls = _hot_world(engine)
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
    """Retyping or redefining a *callee* of an elided method mid-run
    must deopt the elided caller (its verdicts consumed the callee's
    signature and body as dependency edges) — outcomes stay identical
    to the oracle's."""
    engine = spec_engine()
    cls = type("SpecChain", (object,), {})
    _define(engine, cls, "base", _BASE, "(Integer) -> Integer")
    _define(engine, cls, "double", _DOUBLE, "(Integer) -> Integer")
    obj = cls()
    for i in range(THRESHOLD + 5):
        assert obj.double(i) == 2 * i
    assert engine.stats.elide_promotions >= 1  # cache probe elided at least
    # (a) retype the callee: the caller's derivation is now ill-typed
    engine.types.replace("SpecChain", "base", "(Integer) -> String",
                         check=True)
    assert not _slot_is_specialized(cls, "double")
    assert engine.stats.elide_deopts >= 1
    with pytest.raises(StaticTypeError):
        obj.double(3)
    # (b) restore + re-warm, then *redefine* the callee mid-run
    engine.types.replace("SpecChain", "base", "(Integer) -> Integer",
                         check=True)
    for i in range(THRESHOLD + 5):
        assert obj.double(i) == 2 * i
    assert _slot_is_specialized(cls, "double")
    _define(engine, cls, "base", "def base(self, n):\n    return n + 100\n",
            "(Integer) -> Integer")
    assert not _slot_is_specialized(cls, "double")
    assert obj.double(1) == 102  # the *new* callee body, immediately


@pytest.mark.requires_elision
def test_subclassing_leaf_deopts_elided_site():
    """Leaf-exactness is a revocable fact: the analysis resolved
    ``self.base`` by treating the hierarchy-leaf receiver as *exact*,
    recording a ``("lin", cls)`` edge — so merely *defining* a subclass
    (no retype, no redefinition) must tear the elided caller down, and
    the new subclass is served correct generic traffic immediately."""
    engine = spec_engine()
    cls = type("SpecLeafExact", (object,), {})
    _define(engine, cls, "base", _BASE, "(Integer) -> Integer")
    _define(engine, cls, "double", _DOUBLE, "(Integer) -> Integer")
    obj = cls()
    for i in range(THRESHOLD + 5):
        assert obj.double(i) == 2 * i
    assert engine.stats.elide_promotions >= 1
    assert _slot_is_specialized(cls, "double")
    sub = type("SpecLeafExactSub", (cls,), {})
    engine.register_class(sub)
    assert not _slot_is_specialized(cls, "double")
    assert sub().double(3) == 6   # subclass traffic correct at once
    assert obj.double(4) == 8     # base receiver re-warms fine too


@pytest.mark.requires_elision
def test_depth2_callee_redefinition_deopts_elided_caller():
    """Inter-procedural verdicts follow callees *transitively* when a
    link's declaration cannot be trusted: ``mid`` is annotated but
    unchecked, so analyzing ``top`` recurses into ``mid``'s body and
    through it consults ``base`` — every link an ``("ir", ...)`` edge —
    so redefining the depth-2 callee deopts the elided top-level caller
    and the new body is visible on the very next call.  (With a
    *checked* ``mid`` the chain legitimately stops at its trusted
    signature and ``base``'s body is never consumed.)"""
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
    assert engine.stats.elide_promotions >= 1
    assert _slot_is_specialized(cls, "top")
    _define(engine, cls, "base",
            "def base(self, n):\n    return n + 100\n",
            "(Integer) -> Integer")
    assert not _slot_is_specialized(cls, "top")
    assert obj.top(1) == 103  # the *new* depth-2 body, immediately


@pytest.mark.requires_elision
def test_ret_check_elided_for_provable_trusted_return():
    """A trusted signature with always-mode return checks: when the body
    provably returns a conforming class, the conformance walk is elided
    — but ``dynamic_ret_checks`` still reports what the generic tier
    would, and a *lying* sibling keeps its full check."""
    from repro import ReturnTypeError

    engine = Engine(EngineConfig(specialize_threshold=THRESHOLD,
                                 dynamic_ret_checks="always"))
    cls = type("SpecRet", (object,), {})
    _define(engine, cls, "honest", "def honest(self, n):\n    return 'ok'\n",
            "(Integer) -> String", check=False)
    _define(engine, cls, "lie", "def lie(self, n):\n    return n\n",
            "(Integer) -> String", check=False)
    obj = cls()
    _warm(obj, name="honest")
    assert engine.stats.elide_promotions >= 1
    ret_checks = engine.stats.dynamic_ret_checks
    assert obj.honest(3) == "ok"
    assert engine.stats.dynamic_ret_checks == ret_checks + 1  # parity kept
    with pytest.raises(ReturnTypeError):
        obj.lie(1)


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
                "(Integer) -> Numeric")
_STRESS_METHODS = ("m0", "m1", "m2")
_STRESS_BODIES = {
    "inc": "def {name}(self, n):\n    return n + 1\n",
    "ident": "def {name}(self, n):\n    return n\n",
    "chain": "def {name}(self, n):\n    return self.m0(n)\n",
    # chain2 on m2 with m1 redefined to "chain" makes m2 -> m1 -> m0 a
    # depth-2 inter-procedural chain (m1 starts *unchecked*, so the
    # analysis recurses through its body instead of trusting its sig).
    "chain2": "def {name}(self, n):\n    return self.m1(n)\n",
}

#: receivers the stress scripts dispatch through: the base class, two
#: subclasses (bursts on different receivers hit a slot promoted for
#: another receiver class, so they exercise the bail to the generic
#: tier), and "newest" — the most recently created mid-flight
#: subclass (the "subclass" op replaces it), so leaf-exactness facts
#: get revoked under live traffic.
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
        st.tuples(st.just("badcall"), st.sampled_from(_STRESS_METHODS),
                  st.sampled_from(_STRESS_RECEIVERS)),
        # mid-flight subclassing: revokes ("lin", parent) leaf facts
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
    # m1 starts annotated-but-unchecked: a caller's analysis cannot
    # trust its signature and recurses into its body, so chain2 scripts
    # build real depth-2 ("ir", ...) dependency chains.
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
        elif op[0] == "subclass":
            # Defining a subclass is a pure hierarchy wave: any elision
            # whose analysis treated the parent as an *exact* leaf must
            # deopt, and the fresh class immediately serves traffic as
            # the "newest" receiver.
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
@settings(max_examples=40, deadline=None)
def test_promote_deopt_repromote_matches_oracle(script):
    """Random promote/deopt/re-promote interleavings — across three
    receiver classes and keyword-call bursts, both of which bail out of
    a promoted site — never change a single observable outcome versus
    the cache-free oracle."""
    tiered, _ = _stress_replay(script, disable=False)
    oracle, _ = _stress_replay(script, disable=True)
    assert tiered == oracle


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
    depth-2 inter-procedural chain (m2 -> unchecked m1 -> m0), the
    depth-2 callee's redefinition deopts the top caller, and a
    mid-flight subclass both revokes leaf facts and serves traffic."""
    script = [("redefine", "m1", "chain"),      # m1 -> m0 (still unchecked)
              ("burst", "m2", "base", 12),      # m2 -> m1 -> m0 goes hot
              ("redefine", "m0", "ident"),      # depth-2 callee redefined
              ("burst", "m2", "base", 6),
              ("subclass", "base"),             # leaf fact revoked
              ("burst", "m2", "newest", 8)]     # fresh subclass traffic
    outcomes, engine = _stress_replay(script, disable=False)
    oracle, _ = _stress_replay(script, disable=True)
    assert outcomes == oracle
    assert engine.stats.elide_promotions >= 1
    assert engine.stats.deopts >= 1
    # the ("subclass", "base") op actually registered a new class
    assert engine.hier.is_known("SpecStressDyn1")


@pytest.mark.requires_elision
def test_stress_scenarios_actually_elide_and_survive_callee_churn():
    """The stress harness exercises tier 3: hot leaves promote with
    checks elided, a chain caller's *callee* is retyped mid-run, and
    the elided sites are torn down — the hypothesis property above
    already replays such scripts differentially against the oracle."""
    script = [("burst", "m0", "base", 12),
              ("redefine", "m1", "chain"),   # m1 now calls m0
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

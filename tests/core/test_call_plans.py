"""Call-plan inline caches: the fast path is taken when safe and flushed
when anything it memoized could have changed.

Stale-plan bugs are silent (a skipped static check, a skipped dynamic
check), so every test here drives a *behavioral* observation — an error
that must still be raised, a recheck that must still happen — not just
counter bookkeeping.
"""

import pytest

from repro import ArgumentTypeError, Engine, EngineConfig, StaticTypeError
from repro.core.plans import CallPlan, CallPlanCache


def make_engine(**kwargs):
    return Engine(EngineConfig(**kwargs)) if kwargs else Engine()


def build_counter(engine):
    hb = engine.api()

    class Counter:
        @hb.typed("(Integer) -> Integer")
        def bump(self, n):
            return n + 1

    return Counter


class TestFastPath:
    @pytest.mark.requires_caches
    def test_warm_calls_hit_the_fast_path(self):
        engine = make_engine()
        c = build_counter(engine)()
        c.bump(1)  # cold: builds the plan
        hits0 = engine.stats.fast_path_hits
        for i in range(10):
            c.bump(i)
        assert engine.stats.fast_path_hits == hits0 + 10
        # Counter semantics are unchanged by the fast path:
        assert engine.stats.cache_hits >= 10
        assert engine.stats.static_checks == 1

    @pytest.mark.requires_caches
    def test_fast_path_disabled_by_config(self):
        engine = make_engine(call_plans=False)
        c = build_counter(engine)()
        for i in range(5):
            c.bump(i)
        assert engine.stats.fast_path_hits == 0
        assert engine.stats.static_checks == 1  # caching still works

    def test_no_cache_mode_builds_no_checked_plans(self):
        """No$ must keep re-checking every call (the paper's column)."""
        engine = make_engine(caching=False)
        c = build_counter(engine)()
        for i in range(5):
            c.bump(i)
        assert engine.stats.static_checks == 5

    def test_profile_cache_rejects_new_bad_classes(self):
        """The inline cache memoizes *passing* argument-class tuples only."""
        engine = make_engine()
        c = build_counter(engine)()
        for i in range(20):
            c.bump(i)
        with pytest.raises(ArgumentTypeError):
            c.bump("a string")
        # and the site still works afterwards
        assert c.bump(4) == 5

    def test_deep_checks_not_profiled(self):
        """Element-dependent expectations (Array<Integer>) stay deep even
        on a warm site — a class profile would be unsound for them."""
        engine = make_engine()
        hb = engine.api()

        class Summer:
            @hb.typed("(Array<Integer>) -> Integer")
            def total(self, items):
                acc = 0
                for item in items:
                    acc = acc + item
                return acc

        s = Summer()
        for _ in range(5):
            assert s.total([1, 2, 3]) == 6
        with pytest.raises(ArgumentTypeError):
            s.total([1, "two"])

    def test_kwargs_calls_stay_correct_when_warm(self):
        engine = make_engine()
        hb = engine.api()

        class Greeter:
            @hb.typed("(String, Integer) -> String")
            def greet(self, name, times):
                return name * times

        g = Greeter()
        for _ in range(3):
            assert g.greet("hi", times=2) == "hihi"
        with pytest.raises(ArgumentTypeError):
            g.greet("hi", times="two")


class TestPlanInvalidation:
    @pytest.mark.requires_caches
    def test_body_redefinition_flushes_plans(self):
        engine = make_engine()
        Counter = build_counter(engine)
        c = Counter()
        for i in range(5):
            c.bump(i)
        misses = engine.stats.cache_misses

        def bump(self, n):
            return "broken"  # violates () -> Integer

        engine.define_method(Counter, "bump", bump)
        assert engine.stats.plan_invalidations > 0
        with pytest.raises(StaticTypeError):
            c.bump(1)
        # the error came from a *fresh* check, not a stale fast path
        assert engine.stats.cache_misses > misses

    def test_signature_replacement_flushes_plans(self):
        engine = make_engine()
        c = build_counter(engine)()
        for i in range(5):
            c.bump(i)
        # Integers passed the profile; after the retype they must fail the
        # dynamic check even though the call site is warm.
        engine.types.replace("Counter", "bump", "(String) -> Integer",
                             check=False)
        with pytest.raises(ArgumentTypeError):
            c.bump(7)

    @pytest.mark.requires_caches
    def test_unrelated_class_registration_keeps_plans_warm(self):
        """A new leaf class appears in no existing linearization, so the
        dependency graph leaves every warm plan alone (the dev-mode
        reload win; the old version-counter guard flushed everything)."""
        engine = make_engine()
        c = build_counter(engine)()
        for i in range(3):
            c.bump(i)
        hits = engine.stats.fast_path_hits

        class Unrelated:
            pass

        engine.register_class(Unrelated)
        c.bump(1)
        assert engine.stats.fast_path_hits == hits + 1

    @pytest.mark.requires_caches
    def test_mixin_into_receiver_ancestry_flushes_plans(self):
        """``include_module`` rewrites the receiver's linearization — the
        one hierarchy mutation that can redirect resolution — so plans
        that resolved through it must fall (the ("lin", C) edge)."""
        engine = make_engine()
        c = build_counter(engine)()
        for i in range(3):
            c.bump(i)
        hits = engine.stats.fast_path_hits
        engine.hier.add_module("Mixin")
        engine.hier.include_module("Counter", "Mixin")
        assert engine.stats.plan_invalidations > 0
        c.bump(1)  # slow call: the plan rebuilds under the new ancestry
        assert engine.stats.fast_path_hits == hits
        c.bump(2)
        assert engine.stats.fast_path_hits == hits + 1

    def test_subclass_annotation_redirects_resolution(self):
        """A warm plan resolving through an ancestor must not survive a
        more specific signature appearing on the receiver's class."""
        engine = make_engine()
        hb = engine.api()

        class Base:
            @hb.typed("(Integer) -> Integer")
            def twice(self, n):
                return n * 2

        class Derived(Base):
            pass

        engine.register_class(Derived)
        d = Derived()
        for i in range(5):
            d.twice(i)
        # Derived now declares String -> the old Integer profile is stale.
        hb.annotate(Derived, "twice", "(String) -> Integer")
        with pytest.raises(ArgumentTypeError):
            d.twice(3)

    def test_duplicate_annotation_check_upgrade_is_not_skipped(self):
        """Re-annotating the same arm with check=True must start checking
        the body — the table changed even though the arm is a duplicate."""
        engine = make_engine()
        hb = engine.api()

        class Loose:
            @hb.typed("() -> Integer", check=False)
            def answer(self):
                return "not an integer"

        loose = Loose()
        assert loose.answer() == "not an integer"  # trusted: body unchecked
        annotations = engine.stats.annotations_total
        hb.annotate(Loose, "answer", "() -> Integer", check=True)
        # the duplicate arm invalidates but is not a *new* annotation
        assert engine.stats.annotations_total == annotations
        with pytest.raises(StaticTypeError):
            loose.answer()

    @pytest.mark.requires_caches
    def test_recheck_cannot_leave_stale_fast_path(self):
        """``Engine.recheck`` drops one check entry (the Rails helper
        quirk) and, in the same step, the plan replaying it: the next
        call re-checks, and the call after it is fast again."""
        engine = make_engine()
        c = build_counter(engine)()
        for i in range(5):
            c.bump(i)
        misses = engine.stats.cache_misses
        engine.recheck("Counter", "bump")
        c.bump(1)
        assert engine.stats.cache_misses == misses + 1  # rechecked
        hits = engine.stats.fast_path_hits
        c.bump(2)  # plan rebuilt by the recheck call; fast again
        assert engine.stats.fast_path_hits == hits + 1

    @pytest.mark.requires_caches
    def test_field_type_change_flushes_reader_plans(self):
        engine = make_engine()
        hb = engine.api()

        class Box:
            def __init__(self):
                self.value = 1

            @hb.typed("() -> Integer")
            def get(self):
                return self.value

        hb.field_type(Box, "value", "Integer")
        b = Box()
        for _ in range(5):
            b.get()
        hb.field_type(Box, "value", "String")
        with pytest.raises(StaticTypeError):
            b.get()
        assert engine.stats.plan_invalidations > 0

    @pytest.mark.requires_caches
    def test_dev_reload_keeps_unrelated_plans_warm(self):
        """A dev-mode reload retypes one method, registers a fresh class
        and re-runs an identical ``field_type``: only the retyped
        method's plan is invalidated, and the next request sweep over
        all methods is still served >90% from warm plans."""
        engine = make_engine()
        cls = type("DevReload", (object,), {})
        engine.register_class(cls)
        methods = 24
        for i in range(methods):
            source = f"def m{i}(self, n):\n    return n + {i}\n"
            namespace = {}
            exec(source, namespace)  # noqa: S102 - fixed test template
            engine.define_method(cls, f"m{i}", namespace[f"m{i}"],
                                 sig="(Integer) -> Integer", check=True,
                                 source=source)
        obj = cls()

        def sweep():
            for i in range(methods):
                assert getattr(obj, f"m{i}")(1) == 1 + i

        sweep()
        sweep()
        stats = engine.stats
        invalidations = stats.plan_invalidations
        engine.types.replace("DevReload", "m0", "(Integer) -> Integer",
                             check=True)
        engine.register_class(type("ReloadFreshClass", (object,), {}))
        engine.field_type("DevReload", "scratch", "Integer")
        engine.field_type("DevReload", "scratch", "Integer")
        assert stats.plan_invalidations - invalidations == 1
        hits, calls = stats.fast_path_hits, stats.calls_intercepted
        for _ in range(5):
            sweep()
        rate = (stats.fast_path_hits - hits) / (
            stats.calls_intercepted - calls)
        assert rate > 0.9, rate


def test_store_over_a_live_plan_keeps_the_live_plan():
    """A plan is built only on a miss, so a store over a live plan is a
    racing twin build: the live plan (and any wrapper compiled from it)
    stays, and no deopt fires."""
    plans = CallPlanCache()
    dropped = []
    plans.on_drop = dropped.append
    key = ("A", "A", "m", "instance")
    live = CallPlan(None, None, False, False)
    assert plans.store(key, live, epoch=plans.epoch)
    twin = CallPlan(None, None, False, False)
    assert not plans.store(key, twin, epoch=plans.epoch)
    assert plans.get(key) is live
    assert dropped == []

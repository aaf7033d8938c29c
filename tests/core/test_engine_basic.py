"""End-to-end engine tests: the JIT protocol on live host classes.

Each test builds its classes inside the test function with a fresh engine,
mirroring how an app "loads" under Hummingbird.
"""

import pytest

from repro import (
    ArgumentTypeError, CastError, Engine, EngineConfig, NoMethodBodyError,
    StaticTypeError, Sym,
)
from repro.core.stats import HOT_COUNTER_FIELDS


def make_engine(**kwargs):
    return Engine(EngineConfig(**kwargs)) if kwargs else Engine()


class TestHappyPath:
    @pytest.mark.requires_caches
    def test_first_call_checks_then_caches(self):
        engine = make_engine()
        hb = engine.api()

        class Greeter:
            @hb.typed("(String) -> String")
            def greet(self, name):
                return "hello, " + name

        g = Greeter()
        assert g.greet("world") == "hello, world"
        assert engine.stats.static_checks == 1
        assert engine.stats.cache_misses == 1
        g.greet("again")
        g.greet("third")
        assert engine.stats.static_checks == 1
        assert engine.stats.cache_hits == 2

    def test_no_cache_rechecks_every_call(self):
        engine = make_engine(caching=False)
        hb = engine.api()

        class Greeter:
            @hb.typed("(String) -> String")
            def greet(self, name):
                return "hello, " + name

        g = Greeter()
        for _ in range(5):
            g.greet("x")
        assert engine.stats.static_checks == 5

    @pytest.mark.requires_caches
    def test_method_calling_typed_method(self):
        engine = make_engine()
        hb = engine.api()

        class Calc:
            @hb.typed("(Integer) -> Integer")
            def double(self, x):
                return x * 2

            @hb.typed("(Integer) -> Integer")
            def quadruple(self, x):
                return self.double(self.double(x))

        assert Calc().quadruple(3) == 12
        # quadruple's check recorded a dependency on double
        entry = engine.cache.get(("Calc", "quadruple"))
        assert ("Calc", "double") in entry.deps

    def test_flow_sensitive_reassignment(self):
        engine = make_engine()
        hb = engine.api()

        class Flow:
            @hb.typed("(Integer) -> String")
            def stringify(self, x):
                y = x
                y = str(y)
                return y

        assert Flow().stringify(3) == "3"

    def test_conditional_join(self):
        engine = make_engine()
        hb = engine.api()

        class Branchy:
            @hb.typed("(%bool) -> Integer or String")
            def pick(self, flag):
                if flag:
                    out = 1
                else:
                    out = "one"
                return out

        assert Branchy().pick(True) == 1
        assert Branchy().pick(False) == "one"

    def test_class_method(self):
        engine = make_engine()
        hb = engine.api()

        class Registry:
            @hb.typed("(String) -> String", kind="class")
            def lookup(cls, key):
                return "value:" + key

        assert Registry.lookup("k") == "value:k"
        assert engine.stats.static_checks == 1

    def test_loop_and_accumulator(self):
        engine = make_engine()
        hb = engine.api()

        class Summer:
            @hb.typed("(Array<Integer>) -> Integer")
            def total(self, items):
                acc = 0
                for item in items:
                    acc = acc + item
                return acc

        assert Summer().total([1, 2, 3]) == 6

    def test_untyped_methods_not_intercepted(self):
        engine = make_engine()
        hb = engine.api()

        class Mixed:
            @hb.typed("() -> Integer")
            def typed_one(self):
                return 1

            def plain(self):
                return "anything at all", [1, "2"]

        m = Mixed()
        m.typed_one()
        m.plain()
        assert engine.stats.calls_intercepted == 1


class TestStaticErrors:
    def test_wrong_return_type(self):
        engine = make_engine()
        hb = engine.api()

        class Bad:
            @hb.typed("() -> Integer")
            def give(self):
                return "not an integer"

        with pytest.raises(StaticTypeError, match="String"):
            Bad().give()

    def test_error_raised_at_call_not_definition(self):
        engine = make_engine()
        hb = engine.api()

        class Lazy:
            @hb.typed("() -> Integer")
            def broken(self):
                return "oops"

            @hb.typed("() -> Integer")
            def fine(self):
                return 42

        lazy = Lazy()
        assert lazy.fine() == 42  # broken never called, never checked
        with pytest.raises(StaticTypeError):
            lazy.broken()

    def test_unknown_method_on_receiver(self):
        engine = make_engine()
        hb = engine.api()

        class Caller:
            @hb.typed("(String) -> Integer")
            def go(self, s):
                return s.object()  # String has no 'object' (Talks 1/28/12)

        with pytest.raises(StaticTypeError, match="object"):
            Caller().go("x")

    def test_undefined_variable_reported_like_paper(self):
        engine = make_engine()
        hb = engine.api()

        class Caller:
            @hb.typed("() -> Integer")
            def go(self):
                return old_talk  # noqa: F821 — the 2/6/12-2 Talks error

        with pytest.raises(StaticTypeError, match="old_talk"):
            Caller().go()

    def test_wrong_argument_type_to_dependency(self):
        engine = make_engine()
        hb = engine.api()

        class Service:
            @hb.typed("(Integer) -> Integer")
            def work(self, n):
                return n

            @hb.typed("() -> Integer")
            def call_badly(self):
                return self.work("string")

        with pytest.raises(StaticTypeError, match="argument 1"):
            Service().call_badly()

    def test_arity_error(self):
        engine = make_engine()
        hb = engine.api()

        class Service:
            @hb.typed("(Integer, Integer) -> Integer")
            def add(self, a, b):
                return a + b

            @hb.typed("() -> Integer")
            def call_badly(self):
                return self.add(1)

        with pytest.raises(StaticTypeError, match="wrong number"):
            Service().call_badly()

    def test_signature_but_no_body(self):
        engine = make_engine()
        hb = engine.api()

        class Ghost:
            pass

        hb.annotate(Ghost, "phantom", "() -> nil", check=True)
        with pytest.raises(NoMethodBodyError):
            engine.check_method_now(Ghost, "phantom")


class TestDynamicChecks:
    def test_boundary_arg_check_catches_bad_entry_call(self):
        engine = make_engine()
        hb = engine.api()

        class Api:
            @hb.typed("(Integer) -> Integer")
            def entry(self, n):
                return n

        with pytest.raises(ArgumentTypeError):
            Api().entry("not an int")

    def test_nested_calls_skip_arg_checks(self):
        engine = make_engine()
        hb = engine.api()

        class Api:
            @hb.typed("(Integer) -> Integer")
            def inner(self, n):
                return n

            @hb.typed("(Integer) -> Integer")
            def outer(self, n):
                return self.inner(n)

        Api().outer(1)
        # outer was checked dynamically (entry from unchecked code), inner
        # was not (its caller is statically checked) — section 4.
        assert engine.stats.dynamic_arg_checks == 1
        assert engine.stats.dynamic_arg_checks_skipped == 1

    @pytest.mark.requires_specialization
    def test_nested_calls_skip_arg_checks_when_promoted(self):
        engine = make_engine(specialize_threshold=3)
        hb = engine.api()

        class Api:
            @hb.typed("(Integer) -> Integer")
            def inner(self, n):
                return n

            @hb.typed("(Integer) -> Integer")
            def outer(self, n):
                return self.inner(n)

        api = Api()
        for i in range(10):
            api.outer(i)
        assert all(getattr(Api.__dict__[name], "__hb_specialized__", False)
                   for name in ("inner", "outer"))
        stats = engine.stats
        checks = stats.dynamic_arg_checks
        skipped = stats.dynamic_arg_checks_skipped
        hits = stats.specialized_hits
        api.outer(1)
        # Both compiled wrappers keep section 4's split: the entry from
        # unchecked code is checked, the nested call is not.
        assert stats.specialized_hits - hits == 2
        assert stats.dynamic_arg_checks - checks == 1
        assert stats.dynamic_arg_checks_skipped - skipped == 1

    def test_cast_runtime_failure(self):
        engine = make_engine()
        with pytest.raises(CastError):
            engine.cast([1, "two"], "Array<Integer>")
        assert engine.cast([1, 2], "Array<Integer>") == [1, 2]

    def test_untrusted_hash_validation(self):
        engine = make_engine()
        engine.validate_untrusted_hash({Sym("id"): "3"},
                                       "Hash<Symbol, String>")
        with pytest.raises(ArgumentTypeError):
            engine.validate_untrusted_hash({Sym("id"): object()},
                                           "Hash<Symbol, String>")


class TestOrigMode:
    def test_no_interception_in_orig_mode(self):
        engine = make_engine(intercept=False)
        hb = engine.api()

        class Fast:
            @hb.typed("(Integer) -> Integer")
            def f(self, x):
                return x

        Fast().f(1)
        assert engine.stats.calls_intercepted == 0
        assert engine.stats.static_checks == 0


def test_snapshot_reports_every_hot_counter():
    # The snapshot's ``casts`` key is Table 1's distinct cast-site
    # count, not the per-call counter of the same name.
    snapshot = make_engine().stats_snapshot()
    assert set(HOT_COUNTER_FIELDS) - {"casts"} <= set(snapshot)

"""End-to-end engine tests: the JIT protocol on live host classes.

Each test builds its classes inside the test function with a fresh engine,
mirroring how an app "loads" under Hummingbird.
"""

import pytest

from repro import (
    ArgumentTypeError, CastError, Engine, EngineConfig, NoMethodBodyError,
    StaticTypeError, Sym,
)
from repro.core.stats import COUNTERS


def make_engine(**kwargs):
    return Engine(EngineConfig(**kwargs)) if kwargs else Engine()


#: the two tiers that run the section 4 checked-frame bookkeeping.
_TIERS = [pytest.param("generic", id="generic"),
          pytest.param("promoted", id="promoted",
                       marks=pytest.mark.requires_specialization)]


def _tier_engine(tier):
    if tier == "generic":
        return make_engine(specialize=False)
    return make_engine(specialize_threshold=3)


def _warm(tier, cls, call, names):
    """Warm ``call`` past the promotion threshold; then every method of
    ``cls`` in ``names`` runs in a tier-2 wrapper on the promoted tier
    and in the generic one otherwise."""
    for i in range(10):
        call(i)
    promoted = [getattr(cls.__dict__[name], "__hb_specialized__", False)
                for name in names]
    assert promoted == [tier == "promoted"] * len(names)


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

    @pytest.mark.parametrize("engine", [
        pytest.param(lambda: make_engine(), id="default"),
        pytest.param(lambda: make_engine(specialize=False), id="tier1"),
        pytest.param(lambda: make_engine(call_plans=False), id="noplans"),
        pytest.param(lambda: Engine(disable_caches=True), id="oracle"),
    ])
    def test_checked_self_return_resolves_self(self, engine):
        """A checked body meets its arms with ``self`` resolved to the
        receiver, as every caller's (TApp) reads them: returning
        ``self`` from ``() -> self`` passes, returning another class's
        instance still fails."""
        engine = engine()
        hb = engine.api()

        class Fluent:
            @hb.typed("() -> self")
            def me(self):
                return self

            @hb.typed("() -> self")
            def stray(self):
                return "not a Fluent"

        fluent = Fluent()
        for _ in range(3):
            assert fluent.me() is fluent
        with pytest.raises(StaticTypeError,
                           match="returns String but is declared to "
                                 "return Fluent"):
            fluent.stray()

    def test_error_names_the_absolute_source_line(self):
        """A body lowered from its file reports the failing statement's
        line in that file; a body lowered from a source string reports
        the line within the string."""
        engine = make_engine()
        hb = engine.api()

        class Bad:
            @hb.typed("() -> Integer")
            def give(self):
                n = 1
                return "n"  # the failing statement's line

        marker = "# the failing statement's line"
        with open(__file__) as source:
            expected = next(i for i, text in enumerate(source, 1)
                            if text.rstrip().endswith(marker))
        with pytest.raises(StaticTypeError) as info:
            Bad().give()
        assert info.value.line == expected
        assert info.value.source_file == __file__
        assert f"test_engine_basic.py:{expected})" in str(info.value)

        body = "# generated\ndef take(self):\n    n = 1\n    return 'n'\n"
        namespace = {}
        exec(body, namespace)  # noqa: S102 - fixed test template
        engine.define_method(Bad, "take", namespace["take"],
                             sig="() -> Integer", check=True, source=body)
        with pytest.raises(StaticTypeError) as info:
            Bad().take()
        assert info.value.line == 4

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

    @pytest.mark.parametrize("tier", _TIERS)
    def test_checked_caller_skips_every_nested_arg_check(self, tier):
        engine = _tier_engine(tier)
        hb = engine.api()

        class Api:
            @hb.typed("(Integer) -> Integer")
            def inner(self, n):
                return n

            @hb.typed("(Integer) -> Integer")
            def outer(self, n):
                return self.inner(n) + self.inner(n)

        api = Api()
        _warm(tier, Api, lambda i: api.outer(i), ("inner", "outer"))
        stats = engine.stats
        checks = stats.dynamic_arg_checks
        skipped = stats.dynamic_arg_checks_skipped
        assert api.outer(1) == 2
        # The first nested call must hand the checked frame back to
        # outer, so the second one skips its argument check too.
        assert stats.dynamic_arg_checks - checks == 1
        assert stats.dynamic_arg_checks_skipped - skipped == 2
        assert stats.local().top is False

    @pytest.mark.parametrize("tier", _TIERS)
    def test_checked_frame_unwinds_when_the_callee_raises(self, tier):
        engine = _tier_engine(tier)
        hb = engine.api()

        class Api:
            @hb.typed("(Integer) -> Integer")
            def ratio(self, n):
                return 12 % n

            @hb.typed("(Integer) -> Integer")
            def entry(self, n):
                return n

        api = Api()
        _warm(tier, Api, lambda i: api.ratio(i + 1) + api.entry(i),
              ("ratio", "entry"))
        with pytest.raises(ZeroDivisionError):
            api.ratio(0)
        # The raise left ratio's checked frame: the next call from
        # unchecked code checks its arguments again.
        assert engine.stats.local().top is False
        with pytest.raises(ArgumentTypeError):
            api.entry("not an int")

    @pytest.mark.parametrize("engine,promoted", [
        pytest.param(lambda: make_engine(specialize_threshold=3), True,
                     id="promoted",
                     marks=pytest.mark.requires_specialization),
        pytest.param(lambda: make_engine(specialize=False), False,
                     id="tier1"),
        pytest.param(lambda: make_engine(call_plans=False), False,
                     id="noplans"),
        pytest.param(lambda: Engine(disable_caches=True), False,
                     id="oracle"),
    ])
    def test_self_typed_parameter_is_checked_at_the_boundary(self, engine,
                                                             promoted):
        """A parameter typed ``self`` is an instance of the receiver
        class to the checked body, which may call that class's methods
        on it, and so to the argument check too: an unchecked caller
        passing anything else gets ``ArgumentTypeError``, never an
        ``AttributeError`` from inside the checked body."""
        engine = engine()
        hb = engine.api()

        class Num:
            def __init__(self, n):
                self.n = n

            @hb.typed("() -> Integer", check=False)
            def value(self):
                return self.n

            @hb.typed("(self) -> Integer")
            def gap(self, other):
                return other.value() - self.value()

        num = Num(3)
        for i in range(10):
            assert num.gap(Num(i)) == i - 3
        assert getattr(Num.__dict__["gap"], "__hb_specialized__",
                       False) is promoted
        with pytest.raises(ArgumentTypeError, match="Num#gap"):
            num.gap(5)

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
    snapshot = make_engine().stats_snapshot()
    assert {name for name, _, _, _ in COUNTERS} <= set(snapshot)

"""The dependency-tracked invalidation subsystem: per-key plan flushing,
ancestor-retype edges, hierarchy edges, and the new observability
counters.

The headline regression pinned here: redefining ONE method of a class
must not evict the call plans of its other methods (nor plans for the
same method name on unrelated classes) — the old version-counter guards
flushed everything, which is what made dev-mode reload churn cold.
"""

import pytest

from repro import Engine, StaticTypeError
from repro.core import specialize_disabled_by_env
from repro.core.deps import DepGraph

pytestmark = pytest.mark.requires_caches


def fresh():
    engine = Engine()
    return engine, engine.api()


# -- DepGraph unit -----------------------------------------------------------


class TestDepGraph:
    def test_record_and_invalidate(self):
        g = DepGraph()
        g.record("t1", [("sig", "A", "m"), ("lin", "A")])
        g.record("t2", [("sig", "A", "m")])
        assert g.dependents(("sig", "A", "m")) == {"t1", "t2"}
        assert g.invalidate(("lin", "A")) == {"t1"}
        # t1's other edges were severed with it:
        assert g.dependents(("sig", "A", "m")) == {"t2"}

    def test_record_replaces_edges(self):
        g = DepGraph()
        g.record("t", [("sig", "A", "m")])
        g.record("t", [("sig", "B", "m")])
        assert g.dependents(("sig", "A", "m")) == set()
        assert g.dependents(("sig", "B", "m")) == {"t"}

    def test_forget_and_clear(self):
        g = DepGraph()
        g.record("t", [("sig", "A", "m")])
        g.forget("t")
        assert g.invalidate(("sig", "A", "m")) == set()
        g.record("u", [("field", "A", "v")])
        g.clear()
        assert len(g) == 0 and g.resource_count() == 0

    def test_invalidate_pops_each_token_once(self):
        g = DepGraph()
        g.record("t", [("sig", "A", "m"), ("sig", "B", "m")])
        popped = g.invalidate_many([("sig", "A", "m"), ("sig", "B", "m")])
        assert popped == {"t"}


# -- per-key plan flushing (the regression this PR pins) ---------------------


class TestPerKeyPlanFlushing:
    def build_service(self, engine, hb):
        class Service:
            @hb.typed("(Integer) -> Integer")
            def alpha(self, n):
                return n + 1

            @hb.typed("(Integer) -> Integer")
            def beta(self, n):
                return n + 2

            @hb.typed("(Integer) -> Integer")
            def gamma(self, n):
                return n + 3

        return Service

    def test_redefining_one_method_keeps_sibling_plans(self):
        engine, hb = fresh()
        Service = self.build_service(engine, hb)
        s = Service()
        for _ in range(2):
            s.alpha(1), s.beta(1), s.gamma(1)
        checks = engine.stats.static_checks
        invalidations = engine.stats.plan_invalidations

        def alpha(self, n):
            return n + 10

        engine.define_method(Service, "alpha", alpha)
        # exactly alpha's plan fell — not beta's, not gamma's
        assert engine.stats.plan_invalidations == invalidations + 1
        hits = engine.stats.fast_path_hits
        assert s.beta(1) == 3
        assert s.gamma(1) == 4
        assert engine.stats.fast_path_hits == hits + 2
        # and the siblings were not re-checked either
        assert engine.stats.static_checks == checks
        assert s.alpha(1) == 11  # slow rebuild + fresh check for alpha only
        assert engine.stats.static_checks == checks + 1

    def test_same_method_name_on_unrelated_class_survives(self):
        engine, hb = fresh()

        class Left:
            @hb.typed("(Integer) -> Integer")
            def work(self, n):
                return n + 1

        class Right:
            @hb.typed("(Integer) -> Integer")
            def work(self, n):
                return n + 2

        left, right = Left(), Right()
        for _ in range(2):
            left.work(1), right.work(1)
        invalidations = engine.stats.plan_invalidations

        def work(self, n):
            return n + 10

        engine.define_method(Left, "work", work)
        assert engine.stats.plan_invalidations == invalidations + 1
        hits = engine.stats.fast_path_hits
        assert right.work(1) == 3  # Right#work's plan is still warm
        assert engine.stats.fast_path_hits == hits + 1

    def test_retype_flushes_only_dependent_sites(self):
        """types.replace on one method leaves unrelated warm sites alone
        (the old scheme's table-version guard killed every plan)."""
        engine, hb = fresh()
        Service = self.build_service(engine, hb)
        s = Service()
        for _ in range(2):
            s.alpha(1), s.beta(1), s.gamma(1)
        engine.types.replace("Service", "alpha", "(String) -> Integer",
                             check=False)
        hits = engine.stats.fast_path_hits
        assert s.beta(2) == 4
        assert s.gamma(2) == 5
        assert engine.stats.fast_path_hits == hits + 2


# -- ancestor-retype and hierarchy edges -------------------------------------


class TestExplicitEdges:
    def test_ancestor_retype_invalidates_receiver_keyed_entry(self):
        """The receiver-keyed derivation for a subclass checked the
        *ancestor's* body; retyping the ancestor signature must remove it
        via the explicit edge (per-key matching alone would miss it)."""
        engine, hb = fresh()

        class RBase:
            @hb.typed("() -> Integer")
            def num(self):
                return 1

        class RSub(RBase):
            pass

        engine.register_class(RSub)
        r = RSub()
        assert r.num() == 1
        assert ("RSub", "num") in engine.cache
        before = engine.stats.retype_edge_invalidations
        engine.types.replace("RBase", "num", "() -> String", check=True)
        assert ("RSub", "num") not in engine.cache
        assert engine.stats.retype_edge_invalidations > before
        with pytest.raises(StaticTypeError):
            r.num()  # fresh check: body returns Integer, sig says String

    def test_ancestor_body_redefinition_invalidates_receiver_keyed_entry(self):
        engine, hb = fresh()

        class BBase:
            @hb.typed("() -> Integer")
            def num(self):
                return 1

        class BSub(BBase):
            pass

        engine.register_class(BSub)
        b = BSub()
        assert b.num() == 1
        assert ("BSub", "num") in engine.cache

        def num(self):
            return "broken"

        engine.define_method(BBase, "num", num)
        assert ("BSub", "num") not in engine.cache
        with pytest.raises(StaticTypeError):
            b.num()

    def test_mixin_inclusion_invalidates_consulting_derivations(self):
        """A derivation that resolved calls through a class's ancestry
        records ("lin", C) edges; mixing a module into C removes it."""
        engine, hb = fresh()

        class HBase:
            @hb.typed("() -> Integer")
            def helper(self):
                return 1

            @hb.typed("() -> Integer")
            def compute(self):
                return self.helper() + 1

        h = HBase()
        assert h.compute() == 2
        assert ("HBase", "compute") in engine.cache
        before = engine.stats.hier_edge_invalidations
        engine.hier.add_module("HMixin")
        engine.hier.include_module("HBase", "HMixin")
        assert ("HBase", "compute") not in engine.cache
        assert engine.stats.hier_edge_invalidations > before
        assert h.compute() == 2  # rechecks cleanly under the new ancestry

    def test_unrelated_class_keeps_checked_entries(self):
        engine, hb = fresh()

        class Quiet:
            @hb.typed("() -> Integer")
            def calm(self):
                return 1

        q = Quiet()
        q.calm()
        assert ("Quiet", "calm") in engine.cache
        checks = engine.stats.static_checks

        class Noise:
            pass

        engine.register_class(Noise)
        assert ("Quiet", "calm") in engine.cache
        q.calm()
        assert engine.stats.static_checks == checks


# -- trusted return types (paper semantics: never checked) ------------------


class TestReturnChecks:
    def test_default_mode_is_never(self):
        """A trusted signature's return type is believed, not checked
        (the caller's static check relies on it) — on the generic tier
        and through the promoted tier-2 wrapper alike."""
        engine, hb = fresh()

        class Liar:
            @hb.trusted("() -> Integer")
            def fib(self):
                return "paper semantics: unchecked"

        liar = Liar()
        assert liar.fib() == "paper semantics: unchecked"
        for _ in range(engine.config.specialize_threshold + 1):
            assert liar.fib() == "paper semantics: unchecked"
        if specialize_disabled_by_env():
            return
        assert getattr(Liar.__dict__["fib"], "__hb_specialized__", False)
        hits = engine.stats.specialized_hits
        assert liar.fib() == "paper semantics: unchecked"
        assert engine.stats.specialized_hits == hits + 1

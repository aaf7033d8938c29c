"""Engine-level cache invalidation: the (EDef)/(EType) rules on live
classes, plus Definition 1's one-level (non-transitive) semantics."""

import pytest

from repro import Engine, StaticTypeError


def fresh():
    engine = Engine()
    return engine, engine.api()


class TestRedefinition:
    def build(self, engine, hb):
        class Service:
            @hb.typed("() -> Integer")
            def base(self):
                return 1

            @hb.typed("() -> Integer")
            def double(self):
                return self.base() * 2

            @hb.typed("() -> Integer")
            def quadruple(self):
                return self.double() * 2

        return Service

    @pytest.mark.requires_caches
    def test_redefinition_invalidates_self_and_dependents(self):
        engine, hb = fresh()
        Service = self.build(engine, hb)
        s = Service()
        assert s.quadruple() == 4
        assert engine.stats.static_checks == 3

        def base(self):
            return 10

        engine.define_method(Service, "base", base)
        # (EDef): base and its direct dependent double are invalidated;
        # quadruple's derivation used only double's *type*, which did not
        # change — Definition 1 is one level, not transitive.
        assert ("Service", "base") not in engine.cache
        assert ("Service", "double") not in engine.cache
        assert ("Service", "quadruple") in engine.cache
        assert s.quadruple() == 40
        assert engine.stats.static_checks == 5  # base + double rechecked

    @pytest.mark.requires_caches
    def test_identical_redefinition_keeps_cache(self):
        """Dev-mode IR diff: re-installing a byte-identical body does not
        invalidate (the reloader's key behaviour)."""
        engine, hb = fresh()
        Service = self.build(engine, hb)
        s = Service()
        s.quadruple()
        checks = engine.stats.static_checks
        source = "def base(self):\n    return 1\n"
        namespace = {}
        exec(source, namespace)
        fn = namespace["base"]
        fn.__hb_source__ = source
        engine.define_method(Service, "base", fn, source=source)
        s.quadruple()
        assert engine.stats.static_checks == checks

    def test_redefinition_to_broken_body_blames_at_next_call(self):
        engine, hb = fresh()
        Service = self.build(engine, hb)
        s = Service()
        s.double()

        def base(self):
            return "no longer an Integer"

        engine.define_method(Service, "base", base)
        with pytest.raises(StaticTypeError):
            s.base()

    def test_retype_invalidates_dependents(self):
        """(EType): changing a signature drops dependent derivations."""
        engine, hb = fresh()
        Service = self.build(engine, hb)
        s = Service()
        s.quadruple()
        engine.types.replace("Service", "base", "() -> String")
        assert ("Service", "double") not in engine.cache
        # double's body now violates base's new signature:
        with pytest.raises(StaticTypeError):
            s.double()

    def test_method_removed_hook(self):
        engine, hb = fresh()
        Service = self.build(engine, hb)
        s = Service()
        s.quadruple()
        engine.method_removed("Service", "base")
        assert ("Service", "base") not in engine.cache
        assert ("Service", "double") not in engine.cache

    @pytest.mark.requires_caches
    def test_field_type_change_invalidates_readers(self):
        engine, hb = fresh()

        class Box:
            def __init__(self):
                self.value = 1

            @hb.typed("() -> Integer")
            def get(self):
                return self.value

        hb.field_type(Box, "value", "Integer")
        b = Box()
        assert b.get() == 1
        assert ("Box", "get") in engine.cache
        hb.field_type(Box, "value", "String")
        assert ("Box", "get") not in engine.cache
        with pytest.raises(StaticTypeError):
            b.get()


class TestCacheUnit:
    def test_dependents_tracking(self):
        from repro.core.cache import CheckCache
        from repro.core.deps import sig_resource
        cache = CheckCache()
        cache.store(("B", "m"), deps={("A", "m")})
        cache.store(("C", "m"), deps={("B", "m")})
        assert cache.dependents(("A", "m")) == {("B", "m")}
        # An entry's edge to its own slot does not make it a dependent.
        assert cache.dependents(("B", "m")) == {("C", "m")}
        removed = cache.invalidate([sig_resource("A", "m")])
        # One level: B falls, C survives (Definition 1).
        assert removed == {("B", "m")}
        assert ("C", "m") in cache

    def test_invalidate_key_itself(self):
        from repro.core.cache import CheckCache
        from repro.core.deps import sig_resource
        cache = CheckCache()
        cache.store(("A", "m"), deps=set())
        assert cache.dependents(("A", "m")) == set()
        assert cache.invalidate([sig_resource("A", "m")]) == {("A", "m")}
        assert len(cache) == 0

    def test_store_replaces_previous_entry(self):
        from repro.core.cache import CheckCache
        cache = CheckCache()
        cache.store(("B", "m"), deps={("A", "m")})
        cache.store(("B", "m"), deps={("Z", "m")})
        assert cache.dependents(("A", "m")) == set()
        assert cache.dependents(("Z", "m")) == {("B", "m")}


class TestWaveEpoch:
    """Every mutation is one wave, and every wave bumps the plan epoch
    once, so a plan build that read the epoch before it is refused —
    even when the wave drops nothing."""

    def build(self, engine, hb):
        class Box:
            def __init__(self):
                self.value = 1

            @hb.typed("() -> Integer")
            def base(self):
                return 1

            @hb.typed("() -> Integer")
            def double(self):
                return self.base() * 2

        hb.field_type(Box, "value", "Integer")
        engine.hier.add_module("Sealed")
        box = Box()
        for _ in range(3):
            box.double()
        return Box

    def retype(self, engine, Box):
        engine.types.replace("Box", "base", "() -> Integer or String")

    def field_retype(self, engine, Box):
        invalidations = engine.stats.invalidations
        engine.field_type(Box, "value", "String")
        assert engine.stats.invalidations == invalidations

    def new_leaf_class(self, engine, Box):
        class Crate(Box):
            pass

        engine.register_class(Crate)

    def include_module(self, engine, Box):
        engine.hier.include_module("Box", "Sealed")

    def invalidate_uncached(self, engine, Box):
        assert engine.invalidate("Box", "never_cached") == set()

    @pytest.mark.requires_caches
    @pytest.mark.parametrize("wave", [
        "retype", "field_retype", "new_leaf_class", "include_module",
        "invalidate_uncached"])
    def test_build_straddling_the_wave_is_refused(self, wave):
        engine, hb = fresh()
        Box = self.build(engine, hb)
        plans = engine._plans
        key = ("Box", "Box", "probe", "instance")
        before = plans.epoch
        getattr(self, wave)(engine, Box)
        assert plans.epoch == before + 1
        stale = engine._new_plan(key, None, None, False)
        assert not plans.store(key, stale, (), epoch=before)
        assert plans.get(key) is None
        fresh_plan = engine._new_plan(key, None, None, False)
        assert plans.store(key, fresh_plan, (), epoch=plans.epoch)
        assert plans.get(key) is fresh_plan


class TestContracts:
    def test_pre_contract_runs_and_can_reject(self):
        from repro.rdl.wrap import ContractViolation
        engine, hb = fresh()
        seen = []

        class Guarded:
            def action(self, x):
                return x * 2

        hb.pre(Guarded, "action", lambda recv, x: seen.append(x) or x > 0)
        g = Guarded()
        assert g.action(3) == 6
        assert seen == [3]
        with pytest.raises(ContractViolation):
            g.action(-1)

    def test_post_contract(self):
        from repro.rdl.wrap import ContractViolation
        engine, hb = fresh()

        class Guarded:
            def action(self, x):
                return x - 10

        hb.post(Guarded, "action", lambda recv, result, x: result >= 0)
        assert Guarded().action(15) == 5
        with pytest.raises(ContractViolation):
            Guarded().action(3)

    def test_pre_contract_generating_types_fig1_pattern(self):
        """The Fig. 1/Fig. 2 idiom: a pre-contract that annotates."""
        engine, hb = fresh()

        class Factory:
            def make_getter(self, name):
                def getter(self):
                    return name

                engine.define_method(type(self), f"get_{name}", getter)
                return None

        def typegen(recv, name):
            hb.annotate(type(recv), f"get_{name}", "() -> String",
                        generated=True)
            return True

        hb.pre(Factory, "make_getter", typegen)
        f = Factory()
        f.make_getter("color")
        assert f.get_color() == "color"
        assert engine.types.lookup("Factory", "get_color").generated

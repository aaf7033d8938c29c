"""Tests for the Fig. 2 (Rolify) and Fig. 3 (Struct) substrates."""

import pytest

from repro import Engine, StaticTypeError
from repro.rolify import build_rolify
from repro.rstruct import struct_new
from repro.rstruct.struct import StructError


class TestRolify:
    def build(self):
        engine = Engine()
        RolifyDynamic = build_rolify(engine)

        class User(RolifyDynamic):
            pass

        engine.register_class(User)
        return engine, User

    @pytest.mark.requires_caches
    def test_dynamic_method_created_and_checked(self):
        engine, User = self.build()
        u = User()
        u.add_role("professor")
        u.define_dynamic_method("professor")
        assert u.is_professor() is True
        # The generated body (user code!) was statically checked.
        assert ("User", "is_professor") in engine.cache
        sig = engine.types.lookup("User", "is_professor")
        assert sig.generated and sig.check

    def test_role_membership(self):
        engine, User = self.build()
        u = User()
        u.define_dynamic_method("student")
        assert u.is_student() is False
        u.add_role("student")
        assert u.is_student() is True
        u.remove_role("student")
        assert u.is_student() is False

    def test_of_variant_also_generated(self):
        """The paper: define_dynamic_method also creates is_<role>_of."""
        engine, User = self.build()
        u, other = User(), User()
        u.define_dynamic_method("advisor")
        u.add_role("advisor")
        assert u.is_advisor_of(other) is True
        assert engine.types.lookup("User", "is_advisor_of") is not None

    def test_redefinition_is_harmless(self):
        engine, User = self.build()
        u = User()
        u.define_dynamic_method("grader")
        u.define_dynamic_method("grader")  # adding same type is harmless
        assert u.is_grader() is False

    def test_roles_list_sorted(self):
        engine, User = self.build()
        u = User()
        u.add_role("b")
        u.add_role("a")
        assert u.roles_list() == ["a", "b"]


class TestStruct:
    def build(self):
        engine = Engine()
        Transaction = struct_new(engine, "Transaction",
                                 "kind", "account_name", "amount")
        return engine, Transaction

    def test_construction_and_accessors(self):
        engine, Transaction = self.build()
        t = Transaction("credit", "alice", 100)
        assert t.kind == "credit"
        assert t.account_name == "alice"
        t.amount = 250
        assert t.amount == 250

    def test_members(self):
        engine, Transaction = self.build()
        assert Transaction.members_of() == ["kind", "account_name",
                                            "amount"]

    def test_wrong_arity_rejected(self):
        engine, Transaction = self.build()
        with pytest.raises(StructError):
            Transaction("credit", "alice")

    def test_add_types_generates_signatures(self):
        engine, Transaction = self.build()
        Transaction.add_types("String", "String", "Integer")
        getter = engine.types.lookup("Transaction", "amount")
        setter = engine.types.lookup("Transaction", "amount=")
        assert str(getter.arms[0]) == "() -> Integer"
        assert str(setter.arms[0]) == "(Integer) -> Integer"
        assert getter.generated

    def test_add_types_arity_mismatch(self):
        engine, Transaction = self.build()
        with pytest.raises(StructError):
            Transaction.add_types("String")

    def test_typed_fields_enable_checking(self):
        """Fig. 3's point: add_types makes dependent app code checkable."""
        engine, Transaction = self.build()
        Transaction.add_types("String", "String", "Integer")
        hb = engine.api()

        class Runner:
            def __init__(self, txs):
                self.txs = txs

            @hb.typed("() -> Integer")
            def total(self):
                acc = 0
                for t in self.txs:
                    acc = acc + t.amount
                return acc

        hb.field_type(Runner, "txs", "Array<Transaction>")
        assert Runner([Transaction("c", "a", 5),
                       Transaction("d", "b", 7)]).total() == 12

    def test_without_add_types_checking_fails(self):
        engine, Transaction = self.build()
        hb = engine.api()

        class Runner:
            def __init__(self, txs):
                self.txs = txs

            @hb.typed("() -> Integer")
            def total(self):
                acc = 0
                for t in self.txs:
                    acc = acc + t.amount
                return acc

        hb.field_type(Runner, "txs", "Array<Transaction>")
        with pytest.raises(StaticTypeError, match="amount"):
            Runner([Transaction("c", "a", 5)]).total()

    def test_equality(self):
        engine, Transaction = self.build()
        assert Transaction("a", "b", 1) == Transaction("a", "b", 1)
        assert Transaction("a", "b", 1) != Transaction("a", "b", 2)


class TestReloader:
    @pytest.mark.requires_caches
    def test_reload_keeps_unchanged_cached(self):
        from repro.rails import AppVersion, RailsApp, Reloader
        from repro.rtypes import Sym

        app = RailsApp(view_cost=5)

        class C(app.Controller):
            pass

        reloader = Reloader(app)
        reloader.register_class(C)
        reloader.expose(Sym=Sym)
        v1 = (AppVersion("v1")
              .add("C", "stable", "() -> String",
                   "def stable(self):\n    return 'same'\n")
              .add("C", "volatile", "() -> String",
                   "def volatile(self):\n    return 'one'\n"))
        reloader.apply(v1)
        c = C({})
        assert c.stable() == "same"
        assert c.volatile() == "one"
        checks = app.engine.stats.static_checks

        v2 = (AppVersion("v2")
              .add("C", "stable", "() -> String",
                   "def stable(self):\n    return 'same'\n")
              .add("C", "volatile", "() -> String",
                   "def volatile(self):\n    return 'two'\n"))
        report = reloader.apply(v2)
        assert report.changed == {("C", "volatile")}
        assert c.stable() == "same"     # cached, no re-check
        assert c.volatile() == "two"    # redefined + re-checked
        assert app.engine.stats.static_checks == checks + 1

    @pytest.mark.requires_specialization
    def test_helper_reload_rechecks_a_promoted_helper(self):
        """The Rails helper quirk on a promoted site: a reload that only
        re-applies the unchanged helper file deopts the helper's
        wrapper, re-checks the helper at its next call, and keeps the
        entries of the methods whose checks consulted it."""
        from repro import EngineConfig
        from repro.rails import AppVersion, RailsApp, Reloader

        engine = Engine(EngineConfig(specialize_threshold=5))
        app = RailsApp(engine, view_cost=5)

        class C(app.Controller):
            pass

        def version(label):
            return (AppVersion(label)
                    .add("C", "fmt", "() -> String",
                         "def fmt(self):\n    return 'h'\n", helper=True)
                    .add("C", "page", "() -> String",
                         "def page(self):\n    return self.fmt()\n"))

        reloader = Reloader(app)
        reloader.register_class(C)
        reloader.apply(version("v1"))
        c = C({})
        for _ in range(10):
            assert c.page() == "h"
        key = ("C", "fmt")
        assert getattr(C.__dict__["fmt"], "__hb_specialized__", False)
        dependents = engine.cache.dependents(key)
        assert ("C", "page") in dependents

        report = reloader.apply(version("v2"))
        assert report.helper_keys == {key} and not report.changed
        assert not getattr(C.__dict__["fmt"], "__hb_specialized__", False)
        checks = engine.stats.static_checks
        assert c.fmt() == "h"
        assert engine.stats.static_checks == checks + 1
        assert engine.cache.dependents(key) == dependents

    @pytest.mark.requires_caches
    def test_removed_method_invalidates_dependents(self):
        from repro.rails import AppVersion, RailsApp, Reloader
        from repro.rtypes import Sym

        app = RailsApp(view_cost=5)

        class C(app.Controller):
            pass

        reloader = Reloader(app)
        reloader.register_class(C)
        reloader.expose(Sym=Sym)
        v1 = (AppVersion("v1")
              .add("C", "helper_m", "() -> String",
                   "def helper_m(self):\n    return 'h'\n")
              .add("C", "caller_m", "() -> String",
                   "def caller_m(self):\n    return self.helper_m()\n"))
        reloader.apply(v1)
        C({}).caller_m()
        assert ("C", "caller_m") in app.engine.cache

        v2 = (AppVersion("v2")
              .add("C", "caller_m", "() -> String",
                   "def caller_m(self):\n    return self.helper_m()\n"))
        report = reloader.apply(v2)
        assert report.removed == {("C", "helper_m")}
        assert ("C", "caller_m") not in app.engine.cache

"""Tests for run-time value typing and deep conformance checks."""

import datetime
import gc
import weakref

import pytest

from repro import CastError, Engine
from repro.rtypes import (
    BOOL, NIL,
    ClassObjectType, GenericType, NominalType, SingletonType, Sym,
    class_name_of, conforms, default_hierarchy, parse_type, type_of,
    value_conforms,
)


@pytest.fixture
def hier():
    h = default_hierarchy()
    h.add_class("User")
    return h


class Widget:
    pass


class TestSym:
    def test_interned(self):
        assert Sym("owner") is Sym("owner")

    def test_distinct(self):
        assert Sym("a") is not Sym("b")

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Sym("a").name = "b"

    def test_str_and_repr(self):
        assert str(Sym("abc")) == "abc"
        assert repr(Sym("abc")) == ":abc"
        assert Sym("abc").to_s() == "abc"


class TestTypeOf:
    def test_none(self):
        assert type_of(None) == NIL

    def test_bool_before_int(self):
        assert type_of(True) is BOOL
        assert type_of(1) == NominalType("Integer")

    def test_scalars(self):
        assert type_of(1.5) == NominalType("Float")
        assert type_of("x") == NominalType("String")
        assert type_of(Sym("s")) == SingletonType("s", "Symbol")

    def test_homogeneous_list(self):
        assert type_of([1, 2, 3]) == parse_type("Array<Integer>")

    def test_heterogeneous_list(self):
        t = type_of([1, "a"])
        assert t == parse_type("Array<Integer or String>")

    def test_empty_list(self):
        assert type_of([]) == parse_type("Array<%any>")

    def test_dict(self):
        t = type_of({Sym("a"): 1})
        assert isinstance(t, GenericType) and t.name == "Hash"

    def test_range(self):
        assert type_of(range(3)) == parse_type("Range<Integer>")

    def test_time(self):
        assert type_of(datetime.datetime(2016, 4, 13)) == NominalType("Time")

    def test_user_class_instance(self):
        assert type_of(Widget()) == NominalType("Widget")

    def test_class_object(self):
        assert type_of(Widget) == ClassObjectType("Widget")

    def test_callable(self):
        assert type_of(lambda x: x) == NominalType("Proc")

    def test_class_name_of(self):
        assert class_name_of(None) == "NilClass"
        assert class_name_of(True) == "Boolean"
        assert class_name_of([1]) == "Array"
        assert class_name_of({}) == "Hash"
        assert class_name_of(Widget()) == "Widget"

    def test_class_name_memo_does_not_pin_classes(self):
        """The memo must not keep a host class (and through its methods
        whatever engine wrapped them) alive, and a dead class's entry
        must go with it."""
        from repro.rtypes import typeof

        transient = type("Transient", (object,), {})
        assert class_name_of(transient()) == "Transient"
        key = id(transient)
        assert typeof._CLASS_NAME_MEMO[key] == "Transient"
        ref = weakref.ref(transient)
        del transient
        gc.collect()
        assert ref() is None
        assert key not in typeof._CLASS_NAME_MEMO
        assert key not in typeof._CLASS_NAME_REFS


class TestValueConforms:
    """The interpreted specification, :func:`value_conforms`."""

    check = staticmethod(value_conforms)

    def test_scalar(self, hier):
        assert self.check(1, parse_type("Integer"), hier)
        assert not self.check("x", parse_type("Integer"), hier)

    def test_nil_paper_rule(self, hier):
        # nil conforms to any type (paper's nil <= A).
        assert self.check(None, parse_type("User"), hier)

    def test_deep_array_check(self, hier):
        # The paper: rdl_cast iterates through elements for generic casts.
        assert self.check([1, 2], parse_type("Array<Integer>"), hier)
        assert not self.check([1, "x"], parse_type("Array<Integer>"), hier)

    def test_deep_hash_check(self, hier):
        ok = {Sym("a"): "x"}
        assert self.check(ok, parse_type("Hash<Symbol, String>"), hier)
        assert not self.check({Sym("a"): 1},
                              parse_type("Hash<Symbol, String>"), hier)

    def test_tuple(self, hier):
        assert self.check([1, "a"], parse_type("[Integer, String]"), hier)
        assert not self.check([1], parse_type("[Integer, String]"), hier)

    def test_finite_hash(self, hier):
        v = {Sym("name"): "bob", Sym("age"): 3}
        assert self.check(v, parse_type("{name: String, age: Integer}"),
                          hier)
        assert not self.check(v, parse_type("{name: Integer}"), hier)

    def test_finite_hash_missing_nilable_field(self, hier):
        v = {Sym("name"): "bob"}
        assert self.check(
            v, parse_type("{name: String, age: Integer or nil}"), hier)

    @pytest.mark.parametrize("key", [Sym("b"), "b"])
    def test_finite_hash_checks_keys_after_an_absent_one(self, hier, key):
        # ``a`` is absent (nil <= Integer), but ``b`` is present with the
        # wrong type: the check must keep going past the absent key.
        t = parse_type("{a: Integer, b: String}")
        assert not self.check({key: 5}, t, hier)
        assert self.check({key: "five"}, t, hier)
        with pytest.raises(CastError):
            Engine().cast({key: 5}, "{a: Integer, b: String}")

    def test_finite_hash_all_keys_absent_conforms(self, hier):
        # Every absent key reads as nil, and nil <= A for every A.
        t = parse_type("{a: Integer, b: String}")
        assert self.check({}, t, hier)
        empty = {}
        assert Engine().cast(empty, "{a: Integer, b: String}") is empty

    def test_union(self, hier):
        assert self.check(1, parse_type("Integer or String"), hier)
        assert self.check("s", parse_type("Integer or String"), hier)
        assert not self.check(1.5, parse_type("Integer or String"), hier)

    def test_singleton_symbol(self, hier):
        assert self.check(Sym("up"), parse_type(":up"), hier)
        assert not self.check(Sym("down"), parse_type(":up"), hier)

    def test_bool(self, hier):
        assert self.check(True, parse_type("%bool"), hier)
        assert not self.check(1, parse_type("%bool"), hier)

    def test_any(self, hier):
        assert self.check(object(), parse_type("%any"), hier)

    def test_class_object(self, hier):
        assert self.check(Widget, parse_type("Class<Widget>"), hier)
        assert not self.check(Widget(), parse_type("Class<Widget>"), hier)

    def test_proc(self, hier):
        assert self.check(lambda: 1, parse_type("() -> Integer"), hier)
        assert not self.check(3, parse_type("() -> Integer"), hier)

    def test_structural(self, hier):
        assert self.check("abc", parse_type("[upper: () -> String]"), hier)
        assert not self.check("abc", parse_type("[quack: () -> nil]"), hier)

    def test_user_instance(self, hier):
        hier.add_class("Widget")
        assert self.check(Widget(), parse_type("Widget"), hier)
        assert self.check(Widget(), parse_type("Object"), hier)
        assert not self.check(Widget(), parse_type("User"), hier)


class TestCompiledConformance(TestValueConforms):
    """The same cases through the compiled predicate the engine runs."""

    check = staticmethod(conforms)

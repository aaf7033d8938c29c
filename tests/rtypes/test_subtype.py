"""Subtyping, join, and hierarchy tests."""

import pytest

from repro.rtypes import (
    ANY, BOOL, BOT, NIL,
    ClassHierarchy, NominalType, default_hierarchy, equivalent, is_subtype,
    join, join_all, parse_type,
)


@pytest.fixture
def hier():
    h = default_hierarchy()
    h.add_class("User")
    h.add_class("AdminUser", "User")
    h.add_class("Talk")
    return h


def le(s, t, h, **kw):
    return is_subtype(parse_type(s), parse_type(t), h, **kw)


class TestNominal:
    def test_reflexive(self, hier):
        assert le("User", "User", hier)

    def test_subclass(self, hier):
        assert le("AdminUser", "User", hier)
        assert not le("User", "AdminUser", hier)

    def test_unrelated(self, hier):
        assert not le("User", "Talk", hier)

    def test_everything_below_object(self, hier):
        for t in ["User", "Integer", "%bool", "Array<Integer>",
                  "[Integer, String]", ":sym", "(A) -> B"]:
            assert le(t, "Object", hier), t

    def test_numeric_tower(self, hier):
        assert le("Integer", "Numeric", hier)
        assert le("Float", "Numeric", hier)
        assert not le("Integer", "Float", hier)
        assert not le("Numeric", "Integer", hier)


class TestNil:
    def test_nil_below_everything_paper_rule(self, hier):
        assert le("nil", "User", hier)
        assert le("nil", "Array<Integer>", hier)

    def test_class_not_below_nil(self, hier):
        assert not le("User", "nil", hier)


class TestSpecials:
    def test_any_both_directions(self, hier):
        assert le("%any", "User", hier)
        assert le("User", "%any", hier)

    def test_bot_below_everything(self, hier):
        assert le("%bot", "User", hier)
        assert le("%bot", "nil", hier)
        assert not le("User", "%bot", hier)

    def test_bool_boolean_interchangeable(self, hier):
        assert le("%bool", "Boolean", hier)
        assert le("Boolean", "%bool", hier)


class TestUnionsIntersections:
    def test_arm_into_union(self, hier):
        assert le("Integer", "Integer or String", hier)

    def test_union_into_wider_union(self, hier):
        assert le("Integer or String", "Integer or String or nil", hier)

    def test_union_not_into_arm(self, hier):
        assert not le("Integer or String", "Integer", hier)

    def test_union_left_requires_all_arms(self, hier):
        assert le("Integer or Float", "Numeric", hier)
        assert not le("Integer or User", "Numeric", hier)

    def test_intersection_right_requires_all(self, hier):
        assert le("Integer", "Integer and Numeric", hier)
        assert not le("Integer", "Integer and String", hier)

    def test_intersection_left_any_arm(self, hier):
        assert le("Integer and String", "String", hier)


class TestGenerics:
    def test_covariant_args(self, hier):
        assert le("Array<Integer>", "Array<Numeric>", hier)
        assert not le("Array<Numeric>", "Array<Integer>", hier)

    def test_instantiated_below_raw(self, hier):
        assert le("Array<Integer>", "Array", hier)

    def test_raw_below_instantiated_via_any(self, hier):
        # Raw generics default to %any parameters (paper section 4).
        assert le("Array", "Array<Integer>", hier)

    def test_different_bases(self, hier):
        assert not le("Array<Integer>", "Hash<Symbol, Integer>", hier)

    def test_tuple_below_array(self, hier):
        assert le("[Integer, Integer]", "Array<Integer>", hier)
        assert le("[Integer, String]", "Array<Integer or String>", hier)
        assert not le("[Integer, String]", "Array<Integer>", hier)

    def test_tuple_pointwise(self, hier):
        assert le("[Integer, String]", "[Numeric, String]", hier)
        assert not le("[Integer]", "[Integer, Integer]", hier)

    def test_finite_hash_below_hash(self, hier):
        assert le("{a: Integer, b: String}", "Hash<Symbol, Integer or String>",
                  hier)
        assert not le("{a: Integer}", "Hash<Symbol, String>", hier)

    def test_finite_hash_width(self, hier):
        assert le("{a: Integer, b: String}", "{a: Integer}", hier)
        assert not le("{a: Integer}", "{a: Integer, b: String}", hier)


class TestSingletons:
    def test_symbol_below_symbol_class(self, hier):
        assert le(":owner", "Symbol", hier)

    def test_int_singleton_below_integer(self, hier):
        assert le("5", "Integer", hier)
        assert le("5", "Numeric", hier)

    def test_distinct_singletons(self, hier):
        assert not le(":a", ":b", hier)
        assert not le("Symbol", ":a", hier)


class TestMethodTypes:
    def test_contravariant_params(self, hier):
        assert le("(Numeric) -> Integer", "(Integer) -> Integer", hier)
        assert not le("(Integer) -> Integer", "(Numeric) -> Integer", hier)

    def test_covariant_return(self, hier):
        assert le("() -> Integer", "() -> Numeric", hier)
        assert not le("() -> Numeric", "() -> Integer", hier)

    def test_optional_param_accepts_fewer(self, hier):
        assert le("(?Integer) -> nil", "() -> nil", hier)
        assert le("(?Integer) -> nil", "(Integer) -> nil", hier)

    def test_block_contravariance(self, hier):
        assert le("() { (Integer) -> Numeric } -> nil",
                  "() { (Integer) -> Integer } -> nil", hier)
        assert not le("() { (Integer) -> Integer } -> nil",
                      "() { (Integer) -> Numeric } -> nil", hier)

    def test_method_requiring_block_not_blockless(self, hier):
        assert not le("() { () -> nil } -> nil", "() -> nil", hier)
        assert le("() ?{ () -> nil } -> nil", "() -> nil", hier)

    def test_method_below_proc(self, hier):
        assert le("(Integer) -> String", "Proc", hier)


class TestStructural:
    def test_structural_width(self, hier):
        assert le("[a: () -> Integer, b: () -> String]",
                  "[a: () -> Integer]", hier)
        assert not le("[a: () -> Integer]",
                      "[a: () -> Integer, b: () -> String]", hier)

    def test_nominal_below_structural_with_resolver(self, hier):
        sigs = {("User", "to_s"): parse_type("() -> String")}

        def resolver(cls, meth):
            return sigs.get((cls, meth))

        s = parse_type("User")
        t = parse_type("[to_s: () -> String]")
        assert is_subtype(s, t, hier, resolver=resolver)
        t2 = parse_type("[missing: () -> String]")
        assert not is_subtype(s, t2, hier, resolver=resolver)


class TestJoin:
    def test_same_type(self, hier):
        t = parse_type("Integer")
        assert join(t, t, hier) == t

    def test_nil_identity(self, hier):
        # Paper (TIf): nil ⊔ τ = τ.
        t = parse_type("User")
        assert join(NIL, t, hier) == t
        assert join(t, NIL, hier) == t

    def test_subtype_absorbed(self, hier):
        assert join(parse_type("Integer"), parse_type("Numeric"),
                    hier) == parse_type("Numeric")

    def test_unrelated_becomes_union(self, hier):
        j = join(parse_type("Integer"), parse_type("String"), hier)
        assert j == parse_type("Integer or String")

    def test_bot_identity(self, hier):
        t = parse_type("User")
        assert join(BOT, t, hier) == t

    def test_join_all(self, hier):
        j = join_all([parse_type("Integer"), parse_type("Float"),
                      parse_type("nil")], hier)
        assert equivalent(j, parse_type("Integer or Float"), hier)

    def test_join_all_empty_raises(self, hier):
        with pytest.raises(ValueError):
            join_all([], hier)

    def test_upper_bound_property(self, hier):
        cases = ["Integer", "String", "Integer or nil", "Array<Integer>",
                 "%bool", ":sym"]
        for a in cases:
            for b in cases:
                j = join(parse_type(a), parse_type(b), hier)
                assert is_subtype(parse_type(a), j, hier), (a, b)
                assert is_subtype(parse_type(b), j, hier), (a, b)


class TestHierarchy:
    def test_mixin_lookup_order(self):
        h = ClassHierarchy()
        h.add_class("C")
        h.add_module("M")
        h.include_module("C", "M")
        assert list(h.ancestors("C"))[:2] == ["C", "M"]
        assert h.is_subclass("C", "M")

    def test_unknown_superclass_autoregistered(self):
        h = ClassHierarchy()
        h.add_class("Child", "Parent")
        assert h.is_subclass("Child", "Parent")
        assert h.is_subclass("Parent", "Object")

    def test_reregister_same_parent_ok(self):
        h = ClassHierarchy()
        h.add_class("A", "Object")
        h.add_class("A", "Object")

    def test_reregister_changed_parent_rejected(self):
        h = ClassHierarchy()
        h.add_class("A", "Object")
        h.add_class("B", "Object")
        with pytest.raises(ValueError):
            h.add_class("A", "B")

    def test_generic_arity(self):
        h = default_hierarchy()
        assert h.generic_arity("Array") == 1
        assert h.typevars("Hash") == ("k", "v")
        assert h.generic_arity("String") == 0


class TestHierarchyEdits:
    """An edit after a query changes the next answer, and every query
    reports the classes it consulted to the active trace."""

    def test_registering_a_class_after_a_query_flips_it(self):
        h = default_hierarchy()
        h.add_class("Animal")
        cat, animal = NominalType("Cat"), NominalType("Animal")
        assert not is_subtype(cat, animal, h)  # Cat is unknown
        h.add_class("Cat", "Animal")
        assert is_subtype(cat, animal, h)

    def test_registering_a_ghost_flips_only_its_answer(self, hier):
        ghost, user = NominalType("Ghost"), NominalType("User")
        admin = NominalType("AdminUser")
        assert not is_subtype(ghost, user, hier)
        assert is_subtype(admin, user, hier)
        hier.add_class("Ghost", "User")
        assert is_subtype(ghost, user, hier)
        assert is_subtype(admin, user, hier)

    def test_include_module_after_a_query_flips_it(self):
        h = default_hierarchy()
        h.add_class("Post")
        h.add_module("Commentable")
        post, mod = NominalType("Post"), NominalType("Commentable")
        assert not is_subtype(post, mod, h)
        h.include_module("Post", "Commentable")
        assert is_subtype(post, mod, h)

    def test_repeated_query_records_its_reads_in_the_trace(self, hier):
        admin, user = NominalType("AdminUser"), NominalType("User")
        ghost = NominalType("Ghost")
        for _ in range(2):
            with hier.trace() as reads:
                assert is_subtype(admin, user, hier)
                assert not is_subtype(ghost, user, hier)  # Ghost is unknown
            assert {"AdminUser", "Ghost"} <= reads

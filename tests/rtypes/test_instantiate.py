"""Tests for type-variable substitution and receiver instantiation.

The memoized side (each type's cached free variables and ``self`` fact,
each ``MethodType``'s arity facts and per-receiver instantiations) is
held to a fresh walk by a hypothesis differential.  Its draws run on two
hierarchies that declare the same generic class with different type
variables, so a memo keyed on the receiver alone would hand one
hierarchy's instantiation to the other.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Engine
from repro.rtypes import (
    ANY, BOOL, NIL, SELF,
    BlockType, ClassObjectType, FiniteHashType, GenericType,
    IntersectionType, MethodType, NominalType, OptionalParam,
    RequiredParam, SelfType, SingletonType, StructuralType, TupleType,
    UnionType,
    VarType, VarargParam, default_hierarchy, free_vars,
    instantiate_for_receiver, instantiate_walk, intersection_of,
    parse_method_type, parse_type, receiver_bindings, resolve_self,
    substitute, union_of,
)
from repro.rtypes.instantiate import _resolve_self, _subst


@pytest.fixture
def hier():
    return default_hierarchy()


class TestFreeVars:
    def test_simple(self):
        assert free_vars(parse_type("t")) == {"t"}

    def test_nested(self):
        assert free_vars(parse_type("Array<Hash<k, v>>")) == {"k", "v"}

    def test_method(self):
        assert free_vars(parse_type("(t) { (u) -> t } -> Array<t>")) == {
            "t", "u"}

    def test_closed(self):
        assert free_vars(parse_type("Array<Integer>")) == set()


class TestSubstitute:
    def test_var(self):
        assert substitute(parse_type("t"),
                          {"t": NominalType("Integer")}) == parse_type(
            "Integer")

    def test_inside_generic(self):
        out = substitute(parse_type("Array<t>"), {"t": parse_type("String")})
        assert out == parse_type("Array<String>")

    def test_inside_method(self):
        mt = parse_method_type("(t, ?t, *t) { (t) -> t } -> t")
        out = substitute(mt, {"t": parse_type("Integer")})
        assert out == parse_method_type(
            "(Integer, ?Integer, *Integer) { (Integer) -> Integer } -> Integer")

    def test_partial(self):
        out = substitute(parse_type("Hash<k, v>"), {"k": parse_type("Symbol")})
        assert out == parse_type("Hash<Symbol, v>")

    def test_unions(self):
        out = substitute(parse_type("t or nil"), {"t": parse_type("User")})
        assert out == parse_type("User or nil")

    def test_empty_mapping_identity(self):
        t = parse_type("Array<t>")
        assert substitute(t, {}) is t


class TestResolveSelf:
    def test_plain(self):
        assert resolve_self(parse_type("self"),
                            parse_type("User")) == parse_type("User")

    def test_in_method(self):
        mt = parse_method_type("(self) -> self")
        out = resolve_self(mt, parse_type("User"))
        assert out == parse_method_type("(User) -> User")

    def test_in_generic(self):
        out = resolve_self(parse_type("Array<self>"), parse_type("User"))
        assert out == parse_type("Array<User>")


class TestReceiverBindings:
    def test_instantiated_generic(self, hier):
        b = receiver_bindings(parse_type("Array<Integer>"), hier)
        assert b == {"t": parse_type("Integer")}

    def test_hash(self, hier):
        b = receiver_bindings(parse_type("Hash<Symbol, String>"), hier)
        assert b == {"k": parse_type("Symbol"), "v": parse_type("String")}

    def test_raw_generic_defaults_to_any(self, hier):
        # Paper: instances of generic classes get their raw type by default.
        b = receiver_bindings(parse_type("Array"), hier)
        assert b == {"t": ANY}

    def test_non_generic(self, hier):
        assert receiver_bindings(parse_type("String"), hier) == {}

    def test_tuple_binds_union(self, hier):
        b = receiver_bindings(parse_type("[Integer, String]"), hier)
        assert b == {"t": parse_type("Integer or String")}

    def test_finite_hash_binds_key_and_value(self, hier):
        b = receiver_bindings(parse_type("{a: Integer}"), hier)
        assert b["k"] == parse_type(":a")
        assert b["v"] == parse_type("Integer")


class TestInstantiateForReceiver:
    def test_array_push(self, hier):
        push = parse_method_type("(t) -> Array<t>")
        out = instantiate_for_receiver(push, parse_type("Array<Integer>"),
                                       hier)
        assert out == parse_method_type("(Integer) -> Array<Integer>")

    def test_array_paper_example(self, hier):
        """Array#[] from paper section 4: '(Fixnum or Float) -> t'."""
        hier.add_class("Fixnum", "Integer")
        idx = parse_method_type("(Fixnum or Float) -> t")
        out = instantiate_for_receiver(idx, parse_type("Array<String>"), hier)
        assert out.ret == parse_type("String")

    def test_self_resolution(self, hier):
        dup = parse_method_type("() -> self")
        out = instantiate_for_receiver(dup, parse_type("String"), hier)
        assert out.ret == parse_type("String")

    def test_raw_receiver(self, hier):
        push = parse_method_type("(t) -> Array<t>")
        out = instantiate_for_receiver(push, parse_type("Array"), hier)
        assert out == parse_method_type("(%any) -> Array<%any>")


# -- the memoized facts against a fresh walk ----------------------------------

VARS = ("t", "u", "k", "v")

leaf_types = st.sampled_from(
    [ANY, BOOL, NIL, SELF, ClassObjectType("Box"), SingletonType("a", "Symbol")]
    + [VarType(n) for n in VARS]
    + [NominalType(n) for n in ("Integer", "String", "Box", "Array")])


def _structural(sig):
    return StructuralType((("call", sig),))


def compound_types(children):
    return st.one_of(
        st.tuples(st.sampled_from(("Array", "Box")), children).map(
            lambda p: GenericType(p[0], (p[1],))),
        st.tuples(st.sampled_from(("Hash", "Box")), children, children).map(
            lambda p: GenericType(p[0], p[1:])),
        st.lists(children, max_size=3).map(lambda ts: TupleType(tuple(ts))),
        st.dictionaries(st.sampled_from(("a", "b")), children,
                        max_size=2).map(
            lambda d: FiniteHashType(tuple(d.items()))),
        st.lists(children, min_size=2, max_size=3).map(
            lambda ts: union_of(*ts)),
        st.lists(children, min_size=2, max_size=3).map(
            lambda ts: intersection_of(*ts)),
        # resolve_self does not look inside structural types; free
        # variables do.
        children.map(lambda t: _structural(MethodType((), None, t))),
    )


value_types = st.recursive(leaf_types, compound_types, max_leaves=5)

params = st.lists(st.tuples(
    st.sampled_from((RequiredParam, OptionalParam, VarargParam)),
    value_types).map(lambda p: p[0](p[1])), max_size=4).map(tuple)


def _method_types(ret_types):
    blocks = st.one_of(
        st.none(),
        st.tuples(params, ret_types, st.booleans()).map(
            lambda b: BlockType(MethodType(b[0], None, b[1]), b[2])))
    return st.builds(MethodType, params, blocks, ret_types)


method_types = _method_types(value_types)

receivers = st.one_of(
    st.sampled_from([NominalType(n)
                     for n in ("Integer", "String", "Box", "Array", "Hash")]),
    st.tuples(st.sampled_from(("Array", "Box", "Hash")),
              st.lists(value_types, min_size=1, max_size=2)).map(
        lambda p: GenericType(p[0], tuple(p[1]))),
    st.lists(value_types, max_size=3).map(lambda ts: TupleType(tuple(ts))),
    st.dictionaries(st.sampled_from(("a", "b")), value_types,
                    max_size=2).map(lambda d: FiniteHashType(tuple(d.items()))),
)

mappings = st.dictionaries(st.sampled_from(VARS), value_types, max_size=3)


def _hierarchies():
    """The same class name ``Box``, generic in ``t`` in one hierarchy and
    in ``k, v`` in the other."""
    one, two = default_hierarchy(), default_hierarchy()
    one.add_class("Box", typevars=("t",))
    two.add_class("Box", typevars=("k", "v"))
    return one, two


def _parts(t):
    """The immediate component types of ``t``, the way free variables are
    collected: ``self`` resolution skips structural types."""
    if isinstance(t, GenericType):
        return t.args
    if isinstance(t, TupleType):
        return t.elems
    if isinstance(t, FiniteHashType):
        return tuple(v for _, v in t.fields)
    if isinstance(t, (UnionType, IntersectionType)):
        return t.arms
    if isinstance(t, MethodType):
        return tuple(p.ty for p in t.params) + (
            (t.block.sig,) if t.block is not None else ()) + (t.ret,)
    if isinstance(t, StructuralType):
        return tuple(sig for _, sig in t.methods)
    return ()


def spec_free_vars(t):
    if isinstance(t, VarType):
        return {t.name}
    return set().union(*(spec_free_vars(p) for p in _parts(t)))


def spec_mentions_self(t):
    if isinstance(t, SelfType):
        return True
    if isinstance(t, StructuralType):
        return False
    return any(spec_mentions_self(p) for p in _parts(t))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(mt=method_types, recv=receivers, mapping=mappings)
def test_memoized_facts_equal_a_fresh_walk(mt, recv, mapping):
    for t in (mt, mt.ret, recv):
        assert free_vars(t) == spec_free_vars(t)
        fresh_subst = _subst(t, mapping)
        assert substitute(t, mapping) == fresh_subst
        if spec_free_vars(t).isdisjoint(mapping):
            assert substitute(t, mapping) is t
        assert resolve_self(t, recv) == _resolve_self(t, recv)
        if not spec_mentions_self(t):
            assert resolve_self(t, recv) is t
    for hier in _hierarchies():
        # Twice: the first call may fill the memo, the second reads it.
        for _ in range(2):
            out = instantiate_for_receiver(mt, recv, hier)
            assert out == instantiate_walk(mt, recv, hier), (mt, recv)
            assert str(out) == str(instantiate_walk(mt, recv, hier))


def test_same_class_name_different_typevars_keep_apart():
    one, two = _hierarchies()
    get = parse_method_type("() -> [t, k, v, self]")
    recv = parse_type("Box<Integer, String>")
    assert instantiate_for_receiver(get, recv, one) == parse_method_type(
        "() -> [t, k, v, Box<Integer, String>]")
    assert instantiate_for_receiver(get, recv, two) == parse_method_type(
        "() -> [t, Integer, String, Box<Integer, String>]")
    raw = NominalType("Box")
    assert instantiate_for_receiver(get, raw, one) == parse_method_type(
        "() -> [%any, k, v, Box]")
    assert instantiate_for_receiver(get, raw, two) == parse_method_type(
        "() -> [t, %any, %any, Box]")


def test_reordered_finite_hash_receiver_prints_its_own_order(hier):
    mt = parse_method_type("() -> self")
    for text in ("{a: Integer, b: String}", "{b: String, a: Integer}"):
        out = instantiate_for_receiver(mt, parse_type(text), hier)
        assert str(out) == f"() -> {text}"


def test_closed_signature_is_its_own_instantiation(hier):
    mt = parse_method_type("(Integer, ?String) -> Array<Integer>")
    assert instantiate_for_receiver(mt, parse_type("Array<String>"),
                                    hier) is mt


# -- arity facts ---------------------------------------------------------------


def spec_min_arity(mt):
    return sum(1 for p in mt.params if isinstance(p, RequiredParam))


def spec_max_arity(mt):
    if any(isinstance(p, VarargParam) for p in mt.params):
        return None
    return len(mt.params)


def spec_param_type_at(mt, i):
    fixed = [p for p in mt.params if not isinstance(p, VarargParam)]
    rest = [p for p in mt.params if isinstance(p, VarargParam)]
    if i < len(fixed):
        return fixed[i].ty
    if rest:
        return rest[0].ty
    return None


@settings(max_examples=200, deadline=None)
@given(mt=method_types)
def test_arity_facts_equal_the_list_definitions(mt):
    lo, hi = spec_min_arity(mt), spec_max_arity(mt)
    assert (mt.min_arity(), mt.max_arity()) == (lo, hi)
    for n in range(len(mt.params) + 3):
        assert mt.accepts_arity(n) == (lo <= n and (hi is None or n <= hi))
        assert mt.param_type_at(n) == spec_param_type_at(mt, n)


def test_arity_facts_with_optional_and_vararg_params():
    mt = parse_method_type("(Integer, ?String, *Symbol) -> nil")
    assert (mt.min_arity(), mt.max_arity()) == (1, None)
    assert [mt.accepts_arity(n) for n in range(4)] == [False, True, True,
                                                       True]
    assert [str(mt.param_type_at(i)) for i in range(4)] == [
        "Integer", "String", "Symbol", "Symbol"]
    fixed = parse_method_type("(Integer, ?String) -> nil")
    assert (fixed.min_arity(), fixed.max_arity()) == (1, 2)
    assert fixed.param_type_at(2) is None


# -- the oracle bypasses the memo --------------------------------------------


def test_oracle_check_leaves_the_instantiation_memo_untouched():
    """``Engine(disable_caches=True)`` re-walks every receiver
    instantiation; the default engine memoizes it on the signature."""
    arm = parse_method_type("() -> self")
    key = (NominalType("MemoProbe"), ())
    for disable_caches in (True, False):
        engine = Engine(disable_caches=disable_caches)
        hb = engine.api()

        class MemoProbe:
            @hb.typed("() -> self", check=False)
            def me(self):
                return self

            @hb.typed("() -> MemoProbe")
            def again(self):
                return self.me()

        before = dict(arm._instances or {})
        assert isinstance(MemoProbe().again(), MemoProbe)
        after = arm._instances or {}
        if disable_caches:
            assert after == before
        else:
            assert after[key] == parse_method_type("() -> MemoProbe")

"""Compiled conformance against its specification, across hierarchy edits.

``conforms(v, t, hier)`` (the predicate :func:`repro.rtypes.conformance`
compiles once per type) must equal ``value_conforms(v, t, hier)`` for
every value, type and hierarchy.  Hypothesis draws (value, type) pairs
over unions, intersections, generics, tuples, finite hashes, singletons,
class objects and app classes, and applies hierarchy edits between the
draws: a new class, a mixin include, a reload (a fresh host class under
a registered name).

The compiled side runs on a hierarchy with every memo on, including the
per-class verdicts its predicates fill; the interpreted side runs on a
mirror of it with every memo off.  After each edit every value drawn so
far is checked against every type drawn so far, so a verdict the edit
should have dropped shows up as a disagreement.
"""

import datetime
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CastError, Engine
from repro.rtypes import (
    ANY, BOOL, BOT, NIL, SELF,
    ClassObjectType, FiniteHashType, GenericType, MethodType, NominalType,
    RequiredParam, SingletonType, StructuralType, Sym,
    TupleType, VarType, conformance, conforms, default_hierarchy,
    intersection_of, parse_type, union_of, value_conforms,
)

#: app class names: values of every one exist from the start, and the
#: hierarchy learns them through "new class" edits.
APP = ("A0", "A1", "A2", "A3")
MODULES = ("M0", "M1")
BUILTINS = ("Object", "Integer", "Numeric", "String", "Symbol", "Boolean",
            "Array", "Hash", "Comparable", "Proc", "Time")
SUPERS = ("Object", "Comparable", "Numeric") + APP


def _method(ret):
    return MethodType((RequiredParam(NominalType("Integer")),), None, ret)


leaf_types = st.one_of(
    st.sampled_from([ANY, BOOL, NIL, BOT, SELF, VarType("t")]
                    + [NominalType(n) for n in BUILTINS + APP + MODULES]),
    st.sampled_from(("a", "b", "up")).map(
        lambda s: SingletonType(s, "Symbol")),
    st.integers(-2, 2).map(lambda i: SingletonType(i, "Integer")),
    st.sampled_from(APP + ("Object", "String")).map(ClassObjectType),
    st.sampled_from([NIL, NominalType("String")]).map(_method),
    st.lists(st.sampled_from(("upper", "name", "missing")), min_size=1,
             max_size=2, unique=True).map(
        lambda ns: StructuralType(tuple((n, _method(NIL)) for n in ns))),
)


def compound_types(children):
    return st.one_of(
        st.tuples(st.sampled_from(("Array", "Set", "Range")), children).map(
            lambda p: GenericType(p[0], (p[1],))),
        st.tuples(children, children).map(
            lambda kv: GenericType("Hash", kv)),
        st.lists(children, min_size=2, max_size=3).map(
            lambda ts: union_of(*ts)),
        st.lists(children, min_size=2, max_size=3).map(
            lambda ts: intersection_of(*ts)),
        st.lists(children, max_size=3).map(lambda ts: TupleType(tuple(ts))),
        st.dictionaries(st.sampled_from(("a", "b", "c")), children,
                        max_size=3).map(
            lambda d: FiniteHashType(tuple(d.items()))),
    )


types = st.recursive(leaf_types, compound_types, max_leaves=6)


class _App:
    """A drawn app value: an instance of app class ``name``, or with
    ``of_class`` the class object itself.  The world makes the real value
    from its current host class (strategies hold no world state)."""

    def __init__(self, name, of_class):
        self.name, self.of_class = name, of_class


_hashable = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2),
    st.floats(allow_nan=False, width=16), st.text(max_size=2),
    st.sampled_from(("a", "b", "up")).map(Sym),
    st.builds(_App, st.sampled_from(APP), st.booleans()),
    st.just(range(3)), st.just(datetime.date(2016, 6, 13)),
)

values = st.recursive(
    st.one_of(_hashable, st.just(len)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.sets(_hashable, max_size=3),
        st.dictionaries(
            st.one_of(st.sampled_from(("a", "b", "c")).map(Sym),
                      st.sampled_from(("a", "b", "c")), st.integers(0, 2)),
            children, max_size=3),
    ), max_leaves=6)


class _World:
    """Two hierarchies kept in lockstep, and the app's host classes."""

    def __init__(self):
        self.hier = default_hierarchy()
        self.oracle = default_hierarchy()
        self.oracle.memo_enabled = False
        self.host = {name: type(name, (), {"name": "app"}) for name in APP}

    def apply(self, edit):
        kind, name, other = edit
        for hier in (self.hier, self.oracle):
            if kind == "class":
                if not hier.is_known(name):
                    hier.add_class(name, other)
            elif kind == "include":
                hier.include_module(name, other)
            elif hier.is_known(name):  # reload: same name, same superclass
                hier.add_class(name, hier.superclass(name))
        if kind == "reload":
            self.host[name] = type(name, (), {"name": "reloaded"})

    def make(self, drawn):
        """The host value ``drawn`` stands for."""
        if isinstance(drawn, _App):
            cls = self.host[drawn.name]
            return cls if drawn.of_class else cls()
        if isinstance(drawn, (list, tuple, set)):
            return type(drawn)(self.make(v) for v in drawn)
        if isinstance(drawn, dict):
            return {k: self.make(v) for k, v in drawn.items()}
        return drawn


edits = st.one_of(
    st.tuples(st.just("class"), st.sampled_from(APP),
              st.sampled_from(SUPERS)).filter(lambda e: e[1] != e[2]),
    st.tuples(st.just("include"),
              st.sampled_from(APP + ("String", "Integer", "Numeric")),
              st.sampled_from(MODULES)),
    st.tuples(st.just("reload"), st.sampled_from(APP), st.none()),
)


def _outcome(check, value, t, hier):
    try:
        return check(value, t, hier)
    except Exception as exc:  # noqa: BLE001 - both sides must agree
        return type(exc)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.data())
def test_compiled_equals_interpreted_across_hierarchy_edits(data):
    world = _World()
    drawn_values, drawn_types = [], []
    for _ in range(data.draw(st.integers(2, 6), label="rounds")):
        world.apply(data.draw(edits, label="edit"))
        drawn_values += [world.make(data.draw(values, label="value"))
                         for _ in range(data.draw(st.integers(1, 3)))]
        drawn_types += data.draw(st.lists(types, min_size=1, max_size=3),
                                 label="types")
        for value in drawn_values:
            for t in drawn_types:
                assert _outcome(conforms, value, t, world.hier) == _outcome(
                    value_conforms, value, t, world.oracle), (value, t)


#: the deterministic corpus: every value against every type, after
#: each step of :data:`EDIT_SCRIPT`.
CORPUS_TYPES = [
    "%any", "%bool", "nil", "%bot", "self", "t", "Object", "Integer",
    "Numeric", "String", "Symbol", "Boolean", "Comparable", "Proc", "Time",
    "A0", "A1", "A2", "M0", "Array<Integer>", "Array<A0 or String>",
    "Array<%any>", "Array<Array<Integer>>", "Set<String>",
    "Hash<Symbol, String>", "Hash<String, Integer or nil>", "Hash<%any, %any>",
    "Range<Integer>", "[Integer, String]", "[]", "{a: Integer, b: String}",
    "{a: A0}", ":up", "5", "Class<A0>", "Class<Object>", "(Integer) -> nil",
    "[upper: () -> String]", "Integer or String", "A0 and M0",
    "String and Comparable",
]
CORPUS_VALUES = [
    None, True, False, 0, 5, -1, 1.5, "", "x", Sym("up"), Sym("a"), [],
    [1, 2], [1, "x"], ["x", "y"], [[1], [2]], (1, "x"), {1, 2}, {"x"}, {},
    {Sym("a"): 1, Sym("b"): "x"}, {"a": 1}, {Sym("a"): "x"}, {"b": 5},
    range(3), datetime.date(2016, 6, 13), len, lambda x: x,
    _App("A0", False), _App("A1", False), _App("A2", False),
    _App("A0", True), _App("A1", True), [_App("A0", False), "x"],
    {Sym("a"): _App("A1", False)},
]
EDIT_SCRIPT = [
    ("class", "A1", "Object"), ("class", "A0", "A1"),
    ("include", "A1", "M0"), ("include", "String", "M0"),
    ("reload", "A0", None), ("class", "A2", "A0"), ("include", "A2", "M1"),
]


def test_corpus_matches_across_an_edit_script():
    world = _World()
    corpus_types = [parse_type(text) for text in CORPUS_TYPES]
    for edit in [None] + EDIT_SCRIPT:
        if edit is not None:
            world.apply(edit)
        for drawn in CORPUS_VALUES:
            value = world.make(drawn)
            for t in corpus_types:
                assert _outcome(conforms, value, t, world.hier) == _outcome(
                    value_conforms, value, t, world.oracle), (edit, value, t)


class _Widget:
    pass


class TestVerdictMemo:
    """The nominal verdicts the compiled predicates read live on the
    hierarchy, and a structural edit drops exactly the affected rows."""

    def test_include_flips_a_memoized_verdict(self):
        hier = default_hierarchy()
        hier.add_class("_Widget")
        t = NominalType("M0")
        assert not conforms(_Widget(), t, hier)
        assert hier.verdicts["_Widget"]["M0"] is False
        hier.include_module("_Widget", "M0")
        assert "_Widget" not in hier.verdicts
        assert conforms(_Widget(), t, hier)
        assert conforms([_Widget()], parse_type("Array<M0>"), hier)

    def test_registering_a_class_flips_its_negative_verdict(self):
        hier = default_hierarchy()
        hier.add_class("Base")
        assert not conforms(_Widget(), NominalType("Base"), hier)
        hier.add_class("Other")  # an unrelated class keeps the row
        assert hier.verdicts["_Widget"] == {"Base": False}
        hier.add_class("_Widget", "Base")
        assert conforms(_Widget(), NominalType("Base"), hier)

    def test_edit_during_a_fill_is_not_memoized(self, monkeypatch):
        """The version-guarded store: a verdict computed before an edit
        that lands mid-fill is returned but never memoized."""
        from repro.rtypes import typeof

        hier = default_hierarchy()
        hier.add_class("_Widget")
        real = typeof.is_subtype

        def edit_mid_fill(s, t, h):
            answer = real(s, t, h)
            h.include_module("_Widget", "M0")
            return answer

        monkeypatch.setattr(typeof, "is_subtype", edit_mid_fill)
        assert not conforms(_Widget(), NominalType("M0"), hier)
        monkeypatch.setattr(typeof, "is_subtype", real)
        assert "M0" not in hier.verdicts.get("_Widget", {})
        assert conforms(_Widget(), NominalType("M0"), hier)

    def test_fill_racing_an_edit_flush_is_not_memoized(self):
        """A cast that runs while an edit is still flushing its memos
        reads the stale ancestor set, and its verdict store waits for
        the edit's lock.  The version moves only after the flush, so
        that store is refused and the next cast sees the edit."""
        hier = default_hierarchy()
        hier.add_class("_Widget")
        hier.add_module("M0")
        t = NominalType("M0")
        assert not hier.is_subclass("_Widget", "M0")  # memoizes ancestors
        assert "_Widget" not in hier.verdicts
        readers = []

        class FlushWithAReaderRacing(dict):
            def pop(self, name, *default):
                if name == "_Widget" and not readers:
                    reader = threading.Thread(target=conforms,
                                              args=(_Widget(), t, hier))
                    reader.start()
                    readers.append(reader)
                    reader.join(timeout=0.2)  # it blocks on the edit's lock
                return super().pop(name, *default)

        hier._ancestor_sets = FlushWithAReaderRacing(hier._ancestor_sets)
        hier.include_module("_Widget", "M0")
        for reader in readers:
            reader.join(timeout=10)
            assert not reader.is_alive()
        assert readers and conforms(_Widget(), t, hier)

    def test_predicate_is_memoized_on_the_type_process_wide(self):
        t = parse_type("Hash<Symbol, Array<String or Integer>>")
        pred = conformance(t)
        assert conformance(t) is pred
        assert conformance(parse_type(str(t))) is pred
        for hier in (default_hierarchy(), default_hierarchy()):
            assert pred({Sym("a"): ["x", 1]}, hier)
            assert not pred({Sym("a"): ["x", 1.5]}, hier)

    @pytest.mark.parametrize("text", ["%any", "Object", "t", "self",
                                      "Integer or %any", "%any and Object"])
    def test_vacuous_types_share_one_always_true_predicate(self, text):
        assert conformance(parse_type(text)) is conformance(ANY)


class TestEngineUsesCompiledPath:
    def test_default_engine_fills_verdicts(self):
        engine = Engine(disable_caches=False)
        engine.cast(["es", "en"], "Array<String>")
        engine.validate_untrusted_hash({Sym("id"): "3"},
                                       "Hash<Symbol, String>")
        assert engine.hier.verdicts["String"]["String"] is True
        assert engine.hier.verdicts["Symbol"]["Symbol"] is True

    def test_oracle_engine_walks_the_specification(self):
        """``Engine(disable_caches=True)`` checks with ``value_conforms``
        alone: no compiled predicate runs, so no verdict is memoized."""
        oracle = Engine(disable_caches=True)
        assert oracle.cast(["es", "en"], "Array<String>") == ["es", "en"]
        with pytest.raises(CastError):
            oracle.cast(["es", 1], "Array<String>")
        assert oracle.hier.verdicts == {}

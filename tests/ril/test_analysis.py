"""Tier-3 forward dataflow: what is provable, what must stay unproven.

The analysis (:mod:`repro.ril.analysis`) drives static check elimination,
so its failure mode is asymmetric: a missed proof costs a few
nanoseconds per call, a wrong proof silently skips a safety check.
These tests pin the conservative side of every judgment:

* frame elision only for bodies that provably never re-enter
  intercepted code (builtin-whitelist receivers with safe arguments);
  any call on an application class, an unknown class, or a builtin
  receiver with an app-class argument (reflected dunders!) forfeits it;
* return classes only from literals and *trusted-or-checked* callee
  signatures whose arms agree on an exact-quotient class;
* every consulted mutable fact — signature slots (with negative
  probes), linearizations, field types, callee IR — appears in
  ``report.resources`` so the elide glue can register dependency edges.
"""

import pytest

from repro import Engine, EngineConfig
from repro.ril.analysis import (
    analyze_method, class_conforms, is_vacuous, rdl_class_name,
)
from repro.rtypes.parser import parse_type


@pytest.fixture()
def engine():
    return Engine(EngineConfig())


def _define(engine, cls, name, body, sig, check=True):
    namespace = {}
    exec(body, namespace)  # noqa: S102 - fixed test templates
    engine.define_method(cls, name, namespace[name], sig=sig, check=check,
                         source=body)


def _analyze(engine, cls_name, name, seeds=None):
    mir = engine.cfgs.lookup(cls_name, name)
    assert mir is not None, f"no IR registered for {cls_name}#{name}"
    return analyze_method(engine, mir, cls_name, seeds)


def _world(engine, methods):
    cls = type("Ana", (object,), {})
    for name, body, sig, check in methods:
        _define(engine, cls, name, body, sig, check)
    return cls


# -- frame elision ------------------------------------------------------------


def test_builtin_only_body_is_frame_elidable_under_seed(engine):
    _world(engine, [("leaf", "def leaf(self, n):\n    return n + 1\n",
                     "(Integer) -> Integer", True)])
    # Seed-free the argument's class is unknown: no proof.
    assert _analyze(engine, "Ana", "leaf").frame_elidable is False
    # Seeded with the dominant profile the operator is builtin-on-builtin.
    assert _analyze(engine, "Ana", "leaf",
                    ("Integer",)).frame_elidable is True


def test_literal_only_body_is_frame_elidable_seed_free(engine):
    _world(engine, [("lit", "def lit(self, n):\n    return 'x'\n",
                     "(Integer) -> String", True)])
    assert _analyze(engine, "Ana", "lit").frame_elidable is True


def test_call_into_app_method_forfeits_frame_elision(engine):
    """An intercepted callee reads the checked-frame flag, so the frame
    push/pop around a body that reaches one can never be dropped."""
    _world(engine, [
        ("leaf", "def leaf(self, n):\n    return n + 1\n",
         "(Integer) -> Integer", True),
        ("caller", "def caller(self, n):\n    return self.leaf(n)\n",
         "(Integer) -> Integer", True),
    ])
    report = _analyze(engine, "Ana", "caller", ("Integer",))
    assert report.frame_elidable is False


def test_builtin_receiver_with_app_argument_forfeits_frame(engine):
    """``1 + app_obj`` can dispatch to the argument's reflected dunder —
    opaque host code — so a safe receiver is not enough: every argument
    class must be on the whitelist too."""
    _world(engine, [("mix", "def mix(self, a, b):\n    return a + b\n",
                     "(Integer, Ana) -> Integer", True)])
    assert _analyze(engine, "Ana", "mix",
                    ("Integer", "Ana")).frame_elidable is False
    assert _analyze(engine, "Ana", "mix",
                    ("Integer", "Integer")).frame_elidable is True


def test_unknown_callee_forfeits_frame_elision(engine):
    _world(engine, [("mystery", "def mystery(self, n):\n"
                     "    return self.undefined_helper(n)\n",
                     "(Integer) -> Integer", True)])
    assert _analyze(engine, "Ana", "mystery",
                    ("Integer",)).frame_elidable is False


def test_truthiness_of_unsafe_class_taints_frame(engine):
    """``if x:`` invokes the value's truthiness protocol; only
    whitelisted classes are trusted not to re-enter intercepted code."""
    _world(engine, [
        ("cond", "def cond(self, n):\n    if n:\n        return 1\n"
         "    return 2\n", "(Integer) -> Integer", True),
        ("condself", "def condself(self, n):\n    if self:\n"
         "        return 1\n    return 2\n", "(Integer) -> Integer", True),
    ])
    assert _analyze(engine, "Ana", "cond", ("Integer",)).frame_elidable
    assert _analyze(engine, "Ana", "condself",
                    ("Integer",)).frame_elidable is False


# -- return classes -----------------------------------------------------------


def test_literal_returns_are_exact(engine):
    _world(engine, [("branchy", "def branchy(self, n):\n"
                     "    if n > 0:\n        return 'a'\n    return 1\n",
                     "(Integer) -> Object", True)])
    report = _analyze(engine, "Ana", "branchy", ("Integer",))
    assert report.ret_classes == frozenset({"String", "Integer"})


def test_fallthrough_adds_nilclass(engine):
    _world(engine, [("maybe", "def maybe(self, n):\n"
                     "    if n > 0:\n        return 'a'\n",
                     "(Integer) -> Object", True)])
    report = _analyze(engine, "Ana", "maybe", ("Integer",))
    assert report.ret_classes == frozenset({"String", "NilClass"})


def test_checked_callee_signature_types_the_result(engine):
    """The result class of a call into a *checked* app method comes from
    its signature arms — and the consulted body is pinned by an
    ``("ir", owner, name)`` edge plus a fingerprinted callee record."""
    _world(engine, [
        ("leaf", "def leaf(self, n):\n    return n + 1\n",
         "(Integer) -> Integer", True),
        ("caller", "def caller(self, n):\n    return self.leaf(n)\n",
         "(Integer) -> Integer", True),
    ])
    report = _analyze(engine, "Ana", "caller", ("Integer",))
    assert report.ret_classes == frozenset({"Integer"})
    assert ("ir", "Ana", "leaf") in report.resources
    assert ("sig", "Ana", "leaf", "instance") in report.resources
    assert any(owner == "Ana" and name == "leaf"
               for owner, name, _ in report.callees)


def test_untrusted_callee_sig_is_ignored_but_its_body_is_analyzed(engine):
    """A *trusted* (unchecked) signature on an interceptable method is a
    claim nobody verified — its declared return type must not become a
    static fact.  The callee's *body*, however, is fair game: the
    inter-procedural pass recurses into it (pinned by an ``("ir", ...)``
    edge so redefinition deopts) and proves what the body actually
    returns — here Integer, never the lying declared String."""
    _world(engine, [
        ("liar", "def liar(self, n):\n    return n\n",
         "(Integer) -> String", False),
        ("caller", "def caller(self, n):\n    return self.liar(n)\n",
         "(Integer) -> Object", True),
    ])
    report = _analyze(engine, "Ana", "caller", ("Integer",))
    assert report.ret_classes == frozenset({"Integer"})
    assert ("ir", "Ana", "liar") in report.resources
    assert any(owner == "Ana" and name == "liar"
               for owner, name, _ in report.callees)


def test_opaque_untrusted_callee_yields_unknown_result(engine):
    """When the unchecked callee's body is itself unprovable, nothing
    saves the call: the declared type stays untrusted and the result is
    unknown."""
    _world(engine, [
        ("liar", "def liar(self, n):\n    return self.undefined_helper(n)\n",
         "(Integer) -> String", False),
        ("caller", "def caller(self, n):\n    return self.liar(n)\n",
         "(Integer) -> Object", True),
    ])
    report = _analyze(engine, "Ana", "caller", ("Integer",))
    assert report.ret_classes is None


def test_leaf_app_nominal_is_exact_until_subclassed(engine):
    """A checked callee declared to return an app nominal the hierarchy
    knows is a *leaf* contributes an exact class — recorded against a
    ``("lin", cls)`` resource so registering a subclass deopts the
    proof.  Once a subclass exists the declared type is inexact again
    (and this callee's body is opaque, so nothing else proves it)."""
    cls = _world(engine, [
        ("make", "def make(self, n):\n    return self.fetch_one(n)\n",
         "(Integer) -> Ana", True),
        ("caller", "def caller(self, n):\n    return self.make(n)\n",
         "(Integer) -> Ana", True),
    ])
    report = _analyze(engine, "Ana", "caller", ("Integer",))
    assert report.ret_classes == frozenset({"Ana"})
    assert ("lin", "Ana") in report.resources
    # Subclassing makes "Ana" non-leaf: the fact must no longer derive.
    engine.register_class(type("AnaSub", (cls,), {}))
    report = _analyze(engine, "Ana", "caller", ("Integer",))
    assert report.ret_classes is None
    assert any(reason == "non_leaf_nominal" and "Ana" in detail
               for reason, detail in report.blockers)


def test_if_join_preserves_facts_common_to_both_arms(engine):
    """The finite class-set domain joins at phis instead of widening:
    a value that is Integer on both branches is Integer after the
    merge, and a two-class join survives as a two-class set."""
    _world(engine, [
        ("both", "def both(self, n):\n"
         "    if n > 0:\n        x = 1\n    else:\n        x = 2\n"
         "    return x\n", "(Integer) -> Integer", True),
        ("mixed", "def mixed(self, n):\n"
         "    if n > 0:\n        x = 1\n    else:\n        x = 'a'\n"
         "    return x\n", "(Integer) -> Object", True),
    ])
    assert _analyze(engine, "Ana", "both",
                    ("Integer",)).ret_classes == frozenset({"Integer"})
    assert _analyze(engine, "Ana", "mixed",
                    ("Integer",)).ret_classes == frozenset(
                        {"Integer", "String"})


def test_loop_fixpoint_keeps_stable_classes(engine):
    """A loop-carried variable whose class is stable across iterations
    survives the bounded fixpoint instead of widening to unknown."""
    _world(engine, [
        ("accum", "def accum(self, n):\n"
         "    total = 0\n"
         "    while n > 0:\n        total = total + n\n        n = n - 1\n"
         "    return total\n", "(Integer) -> Integer", True),
    ])
    report = _analyze(engine, "Ana", "accum", ("Integer",))
    assert report.ret_classes == frozenset({"Integer"})
    assert report.frame_elidable is True


def test_depth_two_callee_chain_is_followed_with_ir_edges(engine):
    """Unchecked callee bodies are followed transitively (axis c): the
    caller's proof pins *every* link of the chain with an ``("ir", ...)``
    edge and a fingerprinted callee record."""
    _world(engine, [
        ("deep", "def deep(self, n):\n    return n + 1\n",
         "(Integer) -> Object", False),
        ("mid", "def mid(self, n):\n    return self.deep(n)\n",
         "(Integer) -> Object", False),
        ("top", "def top(self, n):\n    return self.mid(n)\n",
         "(Integer) -> Object", True),
    ])
    report = _analyze(engine, "Ana", "top", ("Integer",))
    assert report.ret_classes == frozenset({"Integer"})
    assert ("ir", "Ana", "mid") in report.resources
    assert ("ir", "Ana", "deep") in report.resources
    chain = {(owner, name) for owner, name, _ in report.callees}
    assert {("Ana", "mid"), ("Ana", "deep")} <= chain


def test_recursive_callee_chain_hits_the_budget(engine):
    """Self-recursion cannot be resolved by body-chasing: the cycle guard
    reports a budget blocker and the result stays unknown."""
    _world(engine, [
        ("loop", "def loop(self, n):\n    return self.loop(n)\n",
         "(Integer) -> Integer", False),
        ("caller", "def caller(self, n):\n    return self.loop(n)\n",
         "(Integer) -> Object", True),
    ])
    report = _analyze(engine, "Ana", "caller", ("Integer",))
    assert report.ret_classes is None
    assert any(reason == "budget_exhausted"
               for reason, detail in report.blockers)


# -- resources (dependency edges) ---------------------------------------------


def test_operator_calls_record_signature_and_lin_edges(engine):
    _world(engine, [("leaf", "def leaf(self, n):\n    return n + 1\n",
                     "(Integer) -> Integer", True)])
    report = _analyze(engine, "Ana", "leaf", ("Integer",))
    assert ("sig", "Integer", "+", "instance") in report.resources
    assert ("lin", "Integer") in report.resources


def test_field_reads_record_field_edges(engine):
    cls = type("AnaField", (object,), {})
    engine.register_class(cls)
    engine.field_type(cls, "value", "Integer")
    _define(engine, cls, "read",
            "def read(self, n):\n    return self.value + n\n",
            "(Integer) -> Integer")
    mir = engine.cfgs.lookup("AnaField", "read")
    report = analyze_method(engine, mir, "AnaField", ("Integer",))
    assert ("field", "AnaField", "value") in report.resources
    assert report.frame_elidable is True  # Integer field + Integer arg


# -- the class-name quotient --------------------------------------------------


def test_rdl_class_name_builtin_cascade():
    assert rdl_class_name(bool) == "Boolean"  # before Integer: bool < int
    assert rdl_class_name(int) == "Integer"
    assert rdl_class_name(float) == "Float"
    assert rdl_class_name(str) == "String"
    assert rdl_class_name(type(None)) == "NilClass"
    assert rdl_class_name(list) == "Array"
    assert rdl_class_name(dict) == "Hash"


def test_rdl_class_name_callable_is_proc():
    class WithCall:
        def __call__(self):  # pragma: no cover - never invoked
            pass

    assert rdl_class_name(WithCall) == "Proc"


def test_rdl_class_name_plain_class_uses_its_name():
    class Plain:
        pass

    assert rdl_class_name(Plain) == "Plain"


# -- vacuity and conformance --------------------------------------------------


def test_is_vacuous_matrix():
    assert is_vacuous(parse_type("%any"))
    assert is_vacuous(parse_type("u"))       # type variable
    assert is_vacuous(parse_type("self"))    # self type
    assert not is_vacuous(parse_type("Integer"))
    assert not is_vacuous(parse_type("Integer or String"))
    assert is_vacuous(parse_type("%any or Integer"))  # union: any arm


def test_class_conforms_matrix(engine):
    hier = engine.hier
    assert class_conforms("Integer", parse_type("Integer"), hier)
    assert class_conforms("Integer", parse_type("Numeric"), hier)
    assert not class_conforms("String", parse_type("Integer"), hier)
    assert class_conforms("String", parse_type("Integer or String"), hier)
    assert class_conforms("Integer", parse_type("%any"), hier)
    # nil follows the paper's nil <= A rule
    assert class_conforms("NilClass", parse_type("Integer"), hier)
    # generics with vacuous element types reduce to the base nominal
    assert class_conforms("Array", parse_type("Array<%any>"), hier)

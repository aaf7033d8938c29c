"""Registry, JSON round-trip, and diff tests for the IR front end."""

import gc
import linecache
import weakref

import pytest

from repro import Engine
from repro.apps import all_builders
from repro.rdl.registry import CLASS, INSTANCE
from repro.ril import (
    CFGRegistry, RegistrationError, bodies_differ, diff_registries, dumps,
    fingerprint, from_json, ir, loads, snapshot_fingerprints, to_json,
)
from repro.ril.registry import _LOWERING_MEMO
from repro.rtypes import NominalType


# Module-level fixtures so inspect.getsource works.

def _sample(self, user, items=None):
    total = 0
    for item in items:
        total = total + item
    if user is None:
        return None
    return f"{user}: {total}"


def _varargs(self, first, *rest):
    return first


def _make_closure(role_name):
    def dynamic(self):
        return "is_" + role_name
    return dynamic


class TestRegistry:
    def test_register_function(self):
        reg = CFGRegistry()
        mir = reg.register_function("Demo", "sample", _sample)
        assert mir.owner == "Demo" and mir.name == "sample"
        assert reg.lookup("Demo", "sample") is mir

    def test_self_param_skipped(self):
        reg = CFGRegistry()
        mir = reg.register_function("Demo", "sample", _sample)
        assert mir.param_names() == ("user", "items")

    def test_default_marks_optional(self):
        reg = CFGRegistry()
        mir = reg.register_function("Demo", "sample", _sample)
        assert not mir.params[0].optional
        assert mir.params[1].optional

    def test_vararg_param(self):
        reg = CFGRegistry()
        mir = reg.register_function("Demo", "varargs", _varargs)
        assert mir.params[1].vararg

    def test_closure_captures_typed(self):
        reg = CFGRegistry()
        mir = reg.register_function("User", "is_prof", _make_closure("prof"))
        assert mir.captures["role_name"] == NominalType("String")

    def test_register_source(self):
        reg = CFGRegistry()
        mir = reg.register_source(
            "Demo", "double", "def double(self, x):\n    return x * 2\n")
        assert mir.param_names() == ("x",)
        assert isinstance(mir.body, ir.Return)

    def test_hb_source_attribute(self):
        namespace = {}
        src = "def tripled(self, x):\n    return x * 3\n"
        exec(src, namespace)
        fn = namespace["tripled"]
        fn.__hb_source__ = src
        reg = CFGRegistry()
        mir = reg.register_function("Demo", "tripled", fn)
        assert mir.param_names() == ("x",)

    def test_no_source_raises(self):
        namespace = {}
        exec("def ghost(self): return 1", namespace)
        reg = CFGRegistry()
        with pytest.raises(RegistrationError):
            reg.register_function("Demo", "ghost", namespace["ghost"])

    def test_bad_source_raises(self):
        reg = CFGRegistry()
        with pytest.raises(RegistrationError):
            reg.register_source("Demo", "bad", "not python ][")

    def test_source_without_def_raises(self):
        reg = CFGRegistry()
        with pytest.raises(RegistrationError):
            reg.register_source("Demo", "bad", "x = 1")

    def test_forget(self):
        reg = CFGRegistry()
        reg.register_function("Demo", "sample", _sample)
        reg.forget("Demo", "sample")
        assert reg.lookup("Demo", "sample") is None

    def test_methods_of(self):
        reg = CFGRegistry()
        reg.register_function("Demo", "sample", _sample)
        reg.register_function("Demo", "varargs", _varargs)
        reg.register_function("Other", "sample", _sample)
        assert len(reg.methods_of("Demo")) == 2
        assert len(reg) == 3


class TestJsonRoundTrip:
    def test_round_trip(self):
        reg = CFGRegistry()
        mir = reg.register_function("Demo", "sample", _sample)
        assert loads(dumps(mir.body)) == mir.body

    def test_to_from_json(self):
        node = ir.If(ir.BoolLit(True), ir.IntLit(1), ir.IntLit(2))
        assert from_json(to_json(node)) == node

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            from_json({"kind": "Bogus"})

    def test_positions_preserved(self):
        reg = CFGRegistry()
        mir = reg.register_function("Demo", "sample", _sample)
        rt = loads(dumps(mir.body))
        positions = [n.pos for n in ir.walk(rt)]
        assert any(p.line > 0 for p in positions)


class TestFingerprintAndDiff:
    def test_fingerprint_ignores_positions(self):
        reg = CFGRegistry()
        a = reg.register_source("D", "m", "def m(self):\n    return 1\n")
        b = reg.register_source(
            "D", "m", "\n\n\ndef m(self):\n    return 1\n")
        assert a.fingerprint == b.fingerprint
        assert not bodies_differ(a, b)

    def test_fingerprint_sees_body_change(self):
        reg = CFGRegistry()
        a = reg.register_source("D", "m", "def m(self):\n    return 1\n")
        b = reg.register_source("D", "m", "def m(self):\n    return 2\n")
        assert bodies_differ(a, b)

    def test_param_change_counts(self):
        reg = CFGRegistry()
        a = reg.register_source("D", "m", "def m(self):\n    return 1\n")
        b = reg.register_source("D", "m", "def m(self, x):\n    return 1\n")
        assert bodies_differ(a, b)

    def test_diff_registries(self):
        reg = CFGRegistry()
        reg.register_source("D", "kept", "def kept(self):\n    return 1\n")
        reg.register_source("D", "edited", "def edited(self):\n    return 1\n")
        reg.register_source("D", "dropped", "def dropped(self):\n    return 1\n")
        before = snapshot_fingerprints(reg)

        reg.register_source("D", "edited", "def edited(self):\n    return 2\n")
        reg.register_source("D", "fresh", "def fresh(self):\n    return 3\n")
        reg.forget("D", "dropped")

        diff = diff_registries(before, reg)
        assert diff.changed == {("D", "edited")}
        assert diff.added == {("D", "fresh")}
        assert diff.removed == {("D", "dropped")}
        assert diff.invalidation_roots() == {("D", "edited"), ("D", "dropped")}


class TestLoweringMemo:
    def test_closures_share_the_body_not_the_captures(self):
        reg = CFGRegistry()
        a = reg.register_function("User", "is_a", _make_closure(1))
        b = reg.register_function("User", "is_b", _make_closure("b"))
        assert a.body is b.body
        assert a.captures["role_name"] == NominalType("Integer")
        assert b.captures["role_name"] == NominalType("String")

    def test_hb_source_functions_bypass_the_memo(self):
        namespace = {}
        src = "def quad(self, x):\n    return x * 4\n"
        exec(src, namespace)
        fn = namespace["quad"]
        fn.__hb_source__ = src
        reg = CFGRegistry()
        first = reg.register_function("Demo", "quad", fn)
        second = reg.register_function("Demo", "quad", fn)
        assert first.body is not second.body
        assert first.body == second.body
        assert fn.__code__ not in _LOWERING_MEMO

    def test_entry_dies_with_its_code_object(self):
        filename = "<memo-lifetime>"
        src = "def short_lived(self):\n    return 1\n"
        linecache.cache[filename] = (len(src), None,
                                     src.splitlines(True), filename)
        try:
            namespace = {}
            exec(compile(src, filename, "exec"), namespace)
            reg = CFGRegistry()
            reg.register_function("Demo", "short_lived",
                                  namespace["short_lived"])
            code = weakref.ref(namespace["short_lived"].__code__)
            assert code() in _LOWERING_MEMO
            size = len(_LOWERING_MEMO)
            del namespace, reg
            gc.collect()
            assert code() is None
            assert len(_LOWERING_MEMO) == size - 1
        finally:
            linecache.cache.pop(filename, None)

    def test_equal_code_from_another_file_is_not_a_hit(self):
        """Code objects compare by value, and a parameter default lives
        outside the code: these two compile to equal code objects."""
        sources = {"<memo-a>": "def twin(self, x=1):\n    return x\n",
                   "<memo-b>": "def twin(self, x):\n    return x\n"}
        fns = {}
        try:
            for filename, src in sources.items():
                linecache.cache[filename] = (len(src), None,
                                             src.splitlines(True), filename)
                namespace = {}
                exec(compile(src, filename, "exec"), namespace)
                fns[filename] = namespace["twin"]
            assert fns["<memo-a>"].__code__ == fns["<memo-b>"].__code__
            reg = CFGRegistry()
            a = reg.register_function("A", "twin", fns["<memo-a>"])
            b = reg.register_function("B", "twin", fns["<memo-b>"])
            assert a.params[0].optional and not b.params[0].optional
            assert (a.source_file, b.source_file) == ("<memo-a>", "<memo-b>")
        finally:
            for filename in sources:
                linecache.cache.pop(filename, None)

    def test_cache_free_registry_never_hits_the_memo(self):
        warm = CFGRegistry().register_function("Demo", "sample", _sample)
        oracle = Engine(disable_caches=True).cfgs
        assert not oracle.memo_enabled
        first = oracle.register_function("Demo", "sample", _sample)
        second = oracle.register_function("Demo", "sample", _sample)
        assert first.body is not warm.body
        assert second.body is not first.body
        assert first == warm == second

    def test_reregistration_is_not_a_body_change(self):
        reg = CFGRegistry()
        old = reg.register_function("Demo", "sample", _sample)
        new = reg.register_function("Demo", "sample", _sample)
        assert old.body is new.body
        assert not bodies_differ(old, new)
        assert "fingerprint" not in vars(new)  # short-circuited, not hashed

    def test_is_current_tracks_code_and_capture_types(self):
        reg = CFGRegistry()
        fn = _make_closure("prof")
        assert not reg.is_current("User", "is_prof", fn)
        reg.register_function("User", "is_prof", fn)
        assert reg.is_current("User", "is_prof", fn)
        assert reg.is_current("User", "is_prof", _make_closure("other"))
        assert not reg.is_current("User", "is_prof", _make_closure(7))
        assert not reg.is_current("User", "is_prof", _sample)
        reg.register_source("User", "is_prof",
                            "def is_prof(self):\n    return 1\n")
        assert not reg.is_current("User", "is_prof", fn)


_APP_CFG = {"pubs": {"publications": 5}, "cct": {"repeats": 1},
            "countries": {"repeats": 1}}


@pytest.mark.parametrize("app", sorted(all_builders()))
def test_memo_hits_equal_a_fresh_lowering(app):
    """Every checked method of every app lowers, through the memo, to
    exactly what a memo-free lowering of its source gives."""
    world = all_builders()[app](Engine(), **_APP_CFG.get(app, {}))
    world.seed()
    world.workload()
    engine = world.engine
    fresh_reg = CFGRegistry()
    fresh_reg.memo_enabled = False
    compared = 0
    for owner, name in engine.cfgs.keys():
        mir = engine.cfgs.lookup(owner, name)
        fn = (engine.lookup_callable(owner, name, INSTANCE)
              or engine.lookup_callable(owner, name, CLASS))
        if mir.code is None or getattr(fn, "__code__", None) is not mir.code:
            continue
        hit = CFGRegistry().register_function(owner, name, fn)
        fresh = fresh_reg.register_function(owner, name, fn)
        if (engine.cfgs.memo_enabled
                and getattr(fn, "__hb_source__", None) is None):
            assert hit.body is mir.body  # served by the memo
        assert fresh.body is not hit.body
        assert (hit.params, hit.fingerprint) == \
            (fresh.params, fresh.fingerprint)
        assert hit == fresh
        compared += 1
    assert compared > 0

"""Mapping host-language (Python) run-time values onto RDL types.

Three operations:

* :func:`type_of` — the ``type_of(v)`` of the paper's dynamic semantics,
  extended from {nil, [A]} to the full host language.  Used by the engine's
  dynamic argument checks (EApp* side conditions).
* :func:`value_conforms` — a *deep* check ``v : t`` used by ``rdl_cast``
  (the paper iterates through arrays/hashes when casting to a generic) and
  by dynamic checks against generic expected types.  It is the
  specification: an interpreted walk over ``t`` per value, and the only
  conformance code the cache-free oracle (``Engine(disable_caches=True)``)
  runs.
* :func:`conformance` — the same relation *compiled*: each type is turned
  once into a predicate ``pred(v, hier)`` (memoized on the type object,
  process wide), so a check pays for the shape of ``t`` and not for a
  dispatch over every kind of type at every node.  ``%any``, type
  variables, ``self`` and ``Object`` compile to one always-true
  predicate; a nominal test reads a per-class verdict memo kept on the
  hierarchy (:attr:`~repro.rtypes.hierarchy.ClassHierarchy.verdicts`,
  filled by ``is_subtype`` and dropped per class by structural edits);
  collections still check every element (paper section 4).  The engine's
  ``rdl_cast``, its ``params`` check and its generic-tier argument checks
  run it; ``tests/rtypes/test_conformance_differential.py`` holds it to
  :func:`value_conforms`.

User-defined classes map to their Python class name; Ruby symbols are
modelled by :class:`Sym`, an interned identifier class the substrates use
for things like Rails ``params`` keys.
"""

from __future__ import annotations

import datetime
import weakref
from typing import Callable, Tuple

from .hierarchy import ClassHierarchy
from .subtype import is_subtype
from .types import (
    ANY, BOOL, NIL,
    AnyType, BoolType, BotType, ClassObjectType, FiniteHashType, GenericType,
    IntersectionType, MethodType, NilType, NominalType, SelfType,
    SingletonType, StructuralType, TupleType, Type, UnionType, VarType,
    union_of,
)


class Sym:
    """An interned symbol, the host stand-in for Ruby's ``Symbol``.

    ``Sym("owner") is Sym("owner")`` holds, mirroring Ruby symbol identity.
    """

    _interned: dict = {}
    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Sym":
        existing = cls._interned.get(name)
        if existing is not None:
            return existing
        sym = super().__new__(cls)
        object.__setattr__(sym, "name", name)
        # setdefault is atomic under the GIL: if two threads race to
        # intern the same name, both get the single winner — identity
        # (which Sym equality and dict keys rely on) stays an invariant.
        return cls._interned.setdefault(name, sym)

    def __setattr__(self, *_args) -> None:
        raise AttributeError("Sym is immutable")

    def __repr__(self) -> str:
        return f":{self.name}"

    def __str__(self) -> str:
        return self.name

    def to_s(self) -> str:
        return self.name


# Sample at most this many elements when computing the type of a collection.
_SAMPLE_LIMIT = 50

# id(host class) -> RDL class name.  class_name_of runs on every
# intercepted call (the engine keys checking by the receiver's class), and
# its answer depends only on the value's exact class, so one isinstance
# cascade per distinct host class suffices.  Keyed by id so the memo never
# keeps a class alive: a class pins its methods, and through their
# wrappers the engine that typed them.  A weakref per class pops the entry
# when the class dies, before its id can be reused.  Lock-free under
# threads: the mapping is idempotent (racing writers store the same
# value), and dict get/set/pop are each atomic under the GIL.
_CLASS_NAME_MEMO: dict = {}
_CLASS_NAME_REFS: dict = {}  # id(host class) -> weakref to it


def class_name_of(value: object) -> str:
    """The RDL class name for a host value (``int`` -> ``Integer`` etc.)."""
    if value is None:
        return "NilClass"
    name = _CLASS_NAME_MEMO.get(id(type(value)))
    if name is None:
        name = _memoize_class_name(value)
    return name


def _memoize_class_name(value: object) -> str:
    name = _class_name_of_uncached(value)
    key = id(type(value))

    def forget(_ref, key=key) -> None:
        _CLASS_NAME_MEMO.pop(key, None)
        _CLASS_NAME_REFS.pop(key, None)

    _CLASS_NAME_REFS[key] = weakref.ref(type(value), forget)
    _CLASS_NAME_MEMO[key] = name
    return name


def _class_name_of_uncached(value: object) -> str:
    if isinstance(value, bool):
        return "Boolean"
    if isinstance(value, int):
        return "Integer"
    if isinstance(value, float):
        return "Float"
    if isinstance(value, str):
        return "String"
    if isinstance(value, Sym):
        return "Symbol"
    if isinstance(value, list):
        return "Array"
    if isinstance(value, tuple):
        return "Array"
    if isinstance(value, dict):
        return "Hash"
    if isinstance(value, set):
        return "Set"
    if isinstance(value, range):
        return "Range"
    if isinstance(value, (datetime.datetime, datetime.date)):
        return "Time"
    if isinstance(value, type):
        return "Class"
    if callable(value):
        return "Proc"
    return type(value).__name__


def type_of(value: object) -> Type:
    """The run-time type of a host value.

    Collections are typed by joining a sample of their element types
    (capped, so dynamic checks stay cheap); empty collections are typed at
    ``%any`` elements, matching the raw-generic default.
    """
    if value is None:
        return NIL
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return NominalType("Integer")
    if isinstance(value, float):
        return NominalType("Float")
    if isinstance(value, str):
        return NominalType("String")
    if isinstance(value, Sym):
        return SingletonType(value.name, "Symbol")
    if isinstance(value, (list, tuple)):
        return GenericType("Array", (_elem_type(list(value)),))
    if isinstance(value, dict):
        return GenericType("Hash", (_elem_type(list(value.keys())),
                                    _elem_type(list(value.values()))))
    if isinstance(value, set):
        return GenericType("Set", (_elem_type(list(value)),))
    if isinstance(value, range):
        return GenericType("Range", (NominalType("Integer"),))
    if isinstance(value, (datetime.datetime, datetime.date)):
        return NominalType("Time")
    if isinstance(value, type):
        return ClassObjectType(value.__name__)
    if callable(value):
        return NominalType("Proc")
    return NominalType(type(value).__name__)


def _elem_type(items: list) -> Type:
    if not items:
        return ANY
    sample = items[:_SAMPLE_LIMIT]
    arms = {type_of(v) for v in sample}
    if len(items) > _SAMPLE_LIMIT:
        arms.add(ANY)
    return union_of(*arms) if arms else ANY


def value_conforms(value: object, t: Type, hier: ClassHierarchy) -> bool:
    """Deep run-time conformance check ``value : t``.

    Unlike ``is_subtype(type_of(v), t)``, this iterates through collections
    against generic element types (the paper's ``rdl_cast`` behaviour) and
    checks finite-hash fields one by one.
    """
    if isinstance(t, (AnyType, VarType)):
        return True
    if value is None:
        return True  # nil <= A
    if isinstance(t, NilType):
        return value is None
    if isinstance(t, BotType):
        return False
    if isinstance(t, UnionType):
        return any(value_conforms(value, a, hier) for a in t.arms)
    if isinstance(t, IntersectionType):
        return all(value_conforms(value, a, hier) for a in t.arms)
    if isinstance(t, BoolType):
        return isinstance(value, bool)
    if isinstance(t, SingletonType):
        if t.base == "Symbol":
            return isinstance(value, Sym) and value.name == t.value
        return value == t.value and not isinstance(value, bool)
    if isinstance(t, SelfType):
        return True  # resolved before dynamic checks in well-formed engines
    if isinstance(t, TupleType):
        if not isinstance(value, (list, tuple)):
            return False
        return (len(value) == len(t.elems)
                and all(value_conforms(v, e, hier)
                        for v, e in zip(value, t.elems)))
    if isinstance(t, FiniteHashType):
        if not isinstance(value, dict):
            return False
        for key, ft in t.fields:
            if Sym(key) in value:
                item = value[Sym(key)]
            elif key in value:
                item = value[key]
            else:
                # An absent key reads as nil, which conforms to any
                # type; the remaining keys must still conform.
                continue
            if not value_conforms(item, ft, hier):
                return False
        return True
    if isinstance(t, GenericType):
        if not is_subtype(NominalType(class_name_of(value)),
                          NominalType(t.name), hier):
            return False
        if t.name in ("Array", "Set") and len(t.args) == 1 and isinstance(
                value, (list, tuple, set)):
            return all(value_conforms(v, t.args[0], hier) for v in value)
        if t.name == "Hash" and len(t.args) == 2 and isinstance(value, dict):
            key_t, val_t = t.args
            return all(
                value_conforms(k, key_t, hier)
                and value_conforms(v, val_t, hier)
                for k, v in value.items())
        return True
    if isinstance(t, ClassObjectType):
        return (isinstance(value, type)
                and hier.is_subclass(value.__name__, t.name))
    if isinstance(t, MethodType):
        return callable(value)
    if isinstance(t, StructuralType):
        return all(hasattr(value, name) for name, _ in t.methods)
    if isinstance(t, NominalType):
        # Equivalent to is_subtype(type_of(value), t, ...) but skips
        # collection element sampling: against a *nominal* expectation the
        # subtype rules only consult the value's class name (GenericType /
        # SingletonType / %bool sources all reduce to their base class).
        return is_subtype(NominalType(class_name_of(value)), t, hier)
    return False


# -- compiled conformance ---------------------------------------------------

#: ``pred(value, hier) -> bool``: ``value_conforms(value, t, hier)`` compiled.
Predicate = Callable[[object, ClassHierarchy], bool]


def conformance(t: Type) -> Predicate:
    """The compiled conformance predicate for ``t``.

    ``conformance(t)(v, hier) == value_conforms(v, t, hier)`` for every
    value and hierarchy.  Compiled once per type object and stored on it
    (types are immutable and interned, so every engine in the process
    shares the predicate); only the nominal verdicts it reads are per
    hierarchy.  Racing first compiles build equal predicates, and either
    may win.
    """
    pred = t._conformance
    if pred is None:
        pred = _compile(t)
        object.__setattr__(t, "_conformance", pred)
    return pred


def conforms(value: object, t: Type, hier: ClassHierarchy) -> bool:
    """:func:`value_conforms` through the compiled predicate."""
    return (t._conformance or conformance(t))(value, hier)


def _always(value: object, hier: ClassHierarchy) -> bool:
    return True


def _is_nil(value: object, hier: ClassHierarchy) -> bool:
    return value is None


def _verdict(value: object, sup: str, hier: ClassHierarchy) -> bool:
    """``is_subtype(NominalType(class_name_of(value)), NominalType(sup))``
    for a non-nil value, through the hierarchy's verdict memo."""
    sub = _CLASS_NAME_MEMO.get(id(type(value))) or class_name_of(value)
    row = hier.verdicts.get(sub)
    if row is not None:
        verdict = row.get(sup)
        if verdict is not None:
            return verdict
    ver = hier.version
    verdict = is_subtype(NominalType(sub), NominalType(sup), hier)
    hier.store_verdict(sub, sup, verdict, ver)
    return verdict


def _compile(t: Type) -> Predicate:
    """Build ``t``'s predicate, following :func:`value_conforms` arm by
    arm.  Every predicate but the always-true one admits ``None`` first
    (``nil <= A``)."""
    if isinstance(t, (AnyType, VarType, SelfType)):
        return _always
    if isinstance(t, (NilType, BotType)):
        return _is_nil
    if isinstance(t, NominalType):
        return _compile_nominal(t.name)
    if isinstance(t, UnionType):
        return _compile_union(tuple(conformance(a) for a in t.arms))
    if isinstance(t, IntersectionType):
        return _compile_intersection(
            tuple(conformance(a) for a in t.arms))
    if isinstance(t, GenericType):
        return _compile_generic(t)
    if isinstance(t, BoolType):
        return lambda v, hier: v is None or isinstance(v, bool)
    if isinstance(t, SingletonType):
        literal = t.value
        if t.base == "Symbol":
            return lambda v, hier: v is None or (
                isinstance(v, Sym) and v.name == literal)
        return lambda v, hier: v is None or (
            v == literal and not isinstance(v, bool))
    if isinstance(t, TupleType):
        return _compile_tuple(tuple(conformance(e) for e in t.elems))
    if isinstance(t, FiniteHashType):
        return _compile_finite_hash(tuple(
            (Sym(key), key, conformance(ft)) for key, ft in t.fields))
    if isinstance(t, ClassObjectType):
        name = t.name
        return lambda v, hier: v is None or (
            isinstance(v, type) and hier.is_subclass(v.__name__, name))
    if isinstance(t, MethodType):
        return lambda v, hier: v is None or callable(v)
    if isinstance(t, StructuralType):
        names = tuple(name for name, _ in t.methods)
        return lambda v, hier: v is None or all(
            hasattr(v, name) for name in names)
    return _is_nil


def _compile_nominal(sup: str) -> Predicate:
    if sup == "Object":
        return _always  # is_subtype's "everything is an Object" rule

    def nominal(v: object, hier: ClassHierarchy) -> bool:
        return v is None or _verdict(v, sup, hier)
    return nominal


def _compile_union(arms: Tuple[Predicate, ...]) -> Predicate:
    if _always in arms:
        return _always
    if len(arms) == 2:
        first, second = arms
        return lambda v, hier: first(v, hier) or second(v, hier)

    def union(v: object, hier: ClassHierarchy) -> bool:
        for arm in arms:
            if arm(v, hier):
                return True
        return False
    return union


def _compile_intersection(arms: Tuple[Predicate, ...]) -> Predicate:
    arms = tuple(a for a in arms if a is not _always)
    if not arms:
        return _always

    def intersection(v: object, hier: ClassHierarchy) -> bool:
        for arm in arms:
            if not arm(v, hier):
                return False
        return True
    return intersection


def _compile_generic(t: GenericType) -> Predicate:
    base = conformance(NominalType(t.name))  # admits nil
    if t.name in ("Array", "Set") and len(t.args) == 1:
        elem = conformance(t.args[0])
        if elem is not _always:
            def collection(v: object, hier: ClassHierarchy) -> bool:
                if not base(v, hier):
                    return False
                if isinstance(v, (list, tuple, set)):
                    for item in v:
                        if not elem(item, hier):
                            return False
                return True
            return collection
    elif t.name == "Hash" and len(t.args) == 2:
        key_p, val_p = (conformance(a) for a in t.args)
        if key_p is not _always or val_p is not _always:
            def hash_(v: object, hier: ClassHierarchy) -> bool:
                if not base(v, hier):
                    return False
                if isinstance(v, dict):
                    for key, item in v.items():
                        if not (key_p(key, hier) and val_p(item, hier)):
                            return False
                return True
            return hash_
    # Element types that admit everything: only the base class is tested
    # (iterating a list, tuple, set or dict has no effect to preserve).
    return base


def _compile_tuple(elems: Tuple[Predicate, ...]) -> Predicate:
    n = len(elems)

    def tuple_(v: object, hier: ClassHierarchy) -> bool:
        if v is None:
            return True
        if not isinstance(v, (list, tuple)) or len(v) != n:
            return False
        for item, elem in zip(v, elems):
            if not elem(item, hier):
                return False
        return True
    return tuple_


def _compile_finite_hash(fields: Tuple[Tuple[Sym, str, Predicate], ...]
                         ) -> Predicate:
    def finite_hash(v: object, hier: ClassHierarchy) -> bool:
        if v is None:
            return True
        if not isinstance(v, dict):
            return False
        for sym, key, field in fields:
            if sym in v:
                item = v[sym]
            elif key in v:
                item = v[key]
            else:
                continue  # absent reads as nil, which conforms
            if not field(item, hier):
                return False
        return True
    return finite_hash


def is_class_determined(t: Type) -> bool:
    """True when ``value_conforms(v, t, ...)`` depends only on ``type(v)``.

    This is what makes an argument-class *profile* a sound inline-cache
    guard (the engine's call plans): once a call with argument classes
    ``(C1, ..., Cn)`` passed the dynamic check against such types, any
    later call with the same classes must pass too.  Deep or
    value-dependent expectations (generics with element types, tuples,
    finite hashes, singletons, structural types, class objects) are
    excluded.
    """
    if isinstance(t, (AnyType, VarType, BoolType, NilType, NominalType,
                      MethodType, SelfType, BotType)):
        return True
    if isinstance(t, (UnionType, IntersectionType)):
        return all(is_class_determined(a) for a in t.arms)
    return False


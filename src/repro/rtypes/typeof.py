"""Mapping host-language (Python) run-time values onto RDL types.

Two operations:

* :func:`type_of` — the ``type_of(v)`` of the paper's dynamic semantics,
  extended from {nil, [A]} to the full host language.  Used by the engine's
  dynamic argument checks (EApp* side conditions).
* :func:`value_conforms` — a *deep* check ``v : t`` used by ``rdl_cast``
  (the paper iterates through arrays/hashes when casting to a generic) and
  by dynamic checks against generic expected types.

User-defined classes map to their Python class name; Ruby symbols are
modelled by :class:`Sym`, an interned identifier class the substrates use
for things like Rails ``params`` keys.
"""

from __future__ import annotations

import datetime
import weakref
from typing import Callable, Optional

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


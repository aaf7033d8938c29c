"""Type-variable substitution and receiver-side instantiation.

When the checker looks up ``push`` on a receiver of type ``Array<Integer>``,
the stored signature ``(t) -> Array<t>`` must be instantiated with
``t := Integer``; on a *raw* ``Array`` receiver the paper's rule applies —
raw generics behave as if instantiated at ``%any`` until a cast adds
parameters.  ``self`` types are resolved to the receiver type at the same
moment.

Every interned type is immutable, so each structural fact about it is
computed once and stored on the object (:func:`type_facts`): its free
variables and whether it mentions ``self``.  ``substitute`` and
``resolve_self`` return a type unchanged when those facts say there is
nothing to replace, and each ``MethodType`` memoizes its instantiation per
receiver.  The memo key is the whole input of :func:`receiver_bindings` —
the receiver type and the type variables the hierarchy declares for its
class — so it needs no invalidation: a hierarchy that redeclares a class's
variables reads a different key.  :func:`instantiate_walk` is the uncached
specification the cache-free oracle (``Engine(disable_caches=True)``) calls.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from .hierarchy import ClassHierarchy
from .types import (
    ANY,
    BlockType, FiniteHashType, GenericType, IntersectionType, MethodType,
    NominalType, OptionalParam, Param, RequiredParam, SelfType,
    SingletonType, StructuralType, TupleType, Type, UnionType, VarType,
    VarargParam,
    intersection_of, union_of,
)


_NO_VARS: FrozenSet[str] = frozenset()


def type_facts(t: Type) -> Tuple[FrozenSet[str], bool]:
    """``(free type-variable names, mentions self)`` for ``t``, computed by
    one walk and stored on ``t``.  "Mentions self" is what
    :func:`resolve_self` would replace, so it does not look inside
    structural types; free variables do."""
    facts = t._facts
    if facts is None:
        facts = _walk_facts(t)
        object.__setattr__(t, "_facts", facts)
    return facts


def _walk_facts(t: Type) -> Tuple[FrozenSet[str], bool]:
    if isinstance(t, VarType):
        return frozenset((t.name,)), False
    if isinstance(t, SelfType):
        return _NO_VARS, True
    if isinstance(t, GenericType):
        parts: tuple = t.args
    elif isinstance(t, TupleType):
        parts = t.elems
    elif isinstance(t, FiniteHashType):
        parts = tuple(v for _, v in t.fields)
    elif isinstance(t, (UnionType, IntersectionType)):
        parts = t.arms
    elif isinstance(t, MethodType):
        parts = tuple(p.ty for p in t.params) + (
            (t.block.sig,) if t.block is not None else ()) + (t.ret,)
    elif isinstance(t, StructuralType):
        return _NO_VARS.union(*(type_facts(sig)[0]
                                for _, sig in t.methods)), False
    else:
        return _NO_VARS, False
    facts = [type_facts(p) for p in parts]
    return (_NO_VARS.union(*(fv for fv, _ in facts)),
            any(has_self for _, has_self in facts))


def free_vars(t: Type) -> FrozenSet[str]:
    """The names of type variables occurring in ``t``."""
    return (t._facts or type_facts(t))[0]


def substitute(t: Type, mapping: Dict[str, Type]) -> Type:
    """Replace type variables in ``t`` according to ``mapping``.

    Unmapped variables are left untouched, so partial instantiation works.
    """
    if not mapping or free_vars(t).isdisjoint(mapping):
        return t
    return _subst(t, mapping)


def _subst(t: Type, m: Dict[str, Type]) -> Type:
    if isinstance(t, VarType):
        return m.get(t.name, t)
    if isinstance(t, GenericType):
        return GenericType(t.name, tuple(_subst(a, m) for a in t.args))
    if isinstance(t, TupleType):
        return TupleType(tuple(_subst(e, m) for e in t.elems))
    if isinstance(t, FiniteHashType):
        return FiniteHashType(tuple((k, _subst(v, m)) for k, v in t.fields))
    if isinstance(t, UnionType):
        return union_of(*(_subst(a, m) for a in t.arms))
    if isinstance(t, IntersectionType):
        return intersection_of(*(_subst(a, m) for a in t.arms))
    if isinstance(t, MethodType):
        return MethodType(tuple(_subst_param(p, m) for p in t.params),
                          (BlockType(_subst(t.block.sig, m), t.block.optional)
                           if t.block is not None else None),
                          _subst(t.ret, m))
    if isinstance(t, StructuralType):
        return StructuralType(tuple((n, _subst(sig, m))
                                    for n, sig in t.methods))
    return t


def _subst_param(p: Param, m: Dict[str, Type]) -> Param:
    if isinstance(p, RequiredParam):
        return RequiredParam(_subst(p.ty, m))
    if isinstance(p, OptionalParam):
        return OptionalParam(_subst(p.ty, m))
    if isinstance(p, VarargParam):
        return VarargParam(_subst(p.ty, m))
    raise TypeError(f"unknown param kind {p!r}")


def resolve_self(t: Type, self_ty: Type) -> Type:
    """Replace ``self`` with the receiver type ``self_ty``."""
    if not (t._facts or type_facts(t))[1]:
        return t
    return _resolve_self(t, self_ty)


def _resolve_self(t: Type, self_ty: Type) -> Type:
    if isinstance(t, SelfType):
        return self_ty
    if isinstance(t, GenericType):
        return GenericType(t.name,
                           tuple(_resolve_self(a, self_ty) for a in t.args))
    if isinstance(t, TupleType):
        return TupleType(tuple(_resolve_self(e, self_ty) for e in t.elems))
    if isinstance(t, FiniteHashType):
        return FiniteHashType(tuple((k, _resolve_self(v, self_ty))
                                    for k, v in t.fields))
    if isinstance(t, UnionType):
        return union_of(*(_resolve_self(a, self_ty) for a in t.arms))
    if isinstance(t, IntersectionType):
        return intersection_of(*(_resolve_self(a, self_ty) for a in t.arms))
    if isinstance(t, MethodType):
        return MethodType(
            tuple(_self_param(p, self_ty) for p in t.params),
            (BlockType(_resolve_self(t.block.sig, self_ty), t.block.optional)
             if t.block is not None else None),
            _resolve_self(t.ret, self_ty))
    return t


def _self_param(p: Param, self_ty: Type) -> Param:
    if isinstance(p, RequiredParam):
        return RequiredParam(_resolve_self(p.ty, self_ty))
    if isinstance(p, OptionalParam):
        return OptionalParam(_resolve_self(p.ty, self_ty))
    if isinstance(p, VarargParam):
        return VarargParam(_resolve_self(p.ty, self_ty))
    raise TypeError(f"unknown param kind {p!r}")


def receiver_bindings(recv: Type, hier: ClassHierarchy) -> Dict[str, Type]:
    """Type-variable bindings induced by a receiver type.

    ``Array<Integer>`` binds ``t := Integer``; a raw ``Array`` binds
    ``t := %any`` (the paper's raw-generic default); non-generic receivers
    bind nothing.
    """
    if isinstance(recv, GenericType):
        names = hier.typevars(recv.name)
        if len(names) == len(recv.args):
            return dict(zip(names, recv.args))
        return {}
    if isinstance(recv, NominalType):
        names = hier.typevars(recv.name)
        return {n: ANY for n in names}
    if isinstance(recv, TupleType):
        # Tuples respond to Array methods; bind t to the element join-as-union.
        if not recv.elems:
            return {"t": ANY}
        return {"t": union_of(*recv.elems)}
    if isinstance(recv, FiniteHashType):
        if not recv.fields:
            return {"k": ANY, "v": ANY}
        keys = union_of(*(SingletonType(k, "Symbol") for k, _ in recv.fields))
        vals = union_of(*(v for _, v in recv.fields))
        return {"k": keys, "v": vals}
    return {}


def instantiate_walk(mt: MethodType, recv: Type,
                     hier: ClassHierarchy) -> MethodType:
    """Instantiate a stored method signature for a concrete receiver type:
    bind the receiver class's type variables and resolve ``self``.  A
    fresh walk every time; :func:`instantiate_for_receiver` memoizes it."""
    resolved = _resolve_self(_subst(mt, receiver_bindings(recv, hier)), recv)
    assert isinstance(resolved, MethodType)
    return resolved


def instantiate_for_receiver(mt: MethodType, recv: Type,
                             hier: ClassHierarchy) -> MethodType:
    """:func:`instantiate_walk`, computed once per (signature, receiver
    type, declared type variables of the receiver's class)."""
    fv, has_self = mt._facts or type_facts(mt)
    if not fv and not has_self:
        return mt
    if isinstance(recv, (GenericType, NominalType)):
        key = (recv, hier.typevars(recv.name))
    elif isinstance(recv, FiniteHashType):
        # Equality ignores field order but printing keeps it; a resolved
        # ``self`` prints as this receiver does.
        key = (recv.fields, None)
    else:
        key = (recv, None)
    memo = mt._instances
    if memo is None:
        memo = {}
        object.__setattr__(mt, "_instances", memo)
    out = memo.get(key)
    if out is None:
        out = memo[key] = instantiate_walk(mt, recv, hier)
    return out

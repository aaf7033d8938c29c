"""Subtyping and least upper bounds for the RDL type language.

The relation follows the paper:

* ``nil <= A`` for every ``A`` (formalism, section 3) — standard for
  languages with ``nil``.
* ``A <= A`` and nominal subtyping through the class hierarchy (the
  implementation handles inheritance even though the formalism omits it).
* ``%any`` is RDL's dynamic type: compatible in both directions.
* Union receivers/arguments use the usual arm-wise rules.
* Method types are contravariant in parameters and blocks, covariant in
  return types.

:func:`join` is the least upper bound used at conditional merges:
``A ⊔ A = A`` and ``nil ⊔ τ = τ`` exactly as in the paper's (TIf); unrelated
types join to a union (more precise than climbing to ``Object``).
"""

from __future__ import annotations

from typing import Callable, Optional

from .hierarchy import ClassHierarchy
from .types import (
    ANY, BOOL, NIL,
    AnyType, BlockType, BoolType, BotType, ClassObjectType, FiniteHashType,
    GenericType, IntersectionType, MethodType, NilType, NominalType,
    OptionalParam, RequiredParam, SelfType, SingletonType, StructuralType,
    TupleType, Type, UnionType, VarType, VarargParam,
    union_of,
)

# Resolves (class name, method name) -> method Type, for structural checks.
MethodResolver = Callable[[str, str], Optional[Type]]


def is_subtype(s: Type, t: Type, hier: ClassHierarchy, *,
               resolver: Optional[MethodResolver] = None) -> bool:
    """True when ``s <= t`` under hierarchy ``hier``.

    Memoized per hierarchy: answers live in ``hier.subtype_cache``, a
    bounded LRU keyed ``(s, t)``.  Each line also records the
    class names whose hierarchy placement the computation consulted, so
    a structural mutation evicts exactly the lines it could have changed
    (dependency-tracked invalidation) and an overflow evicts the
    least-recently-used line instead of the whole table.  This is safe
    because types are immutable (and usually interned, making the key
    hash cheap).  Queries carrying a ``resolver`` bypass the cache —
    structural checks depend on which method table the resolver reads,
    which is not part of the key.
    """
    if s is t:
        return True
    cache = hier.subtype_cache
    if resolver is not None or not cache.enabled:
        return _is_subtype(s, t, hier, resolver)
    key = (s, t)
    line = cache.table.get(key)
    if line is not None:
        cache.hits += 1      # approximate under threads (monotonic)
        cache.touch(key)     # opportunistic LRU recency; never blocks
        answer, reads = line
        if reads:
            # Keep enclosing read traces complete: a memo hit consulted
            # (transitively) everything the original computation did.
            hier.replay_reads(reads)
        return answer
    cache.misses += 1
    # Epoch-guarded store: if a hierarchy mutation invalidates lines
    # while we compute, this answer may predate the mutation and must
    # not be memoized after its eviction wave (lost-invalidation race).
    epoch = cache.epoch
    with hier.trace() as reads:
        result = _is_subtype(s, t, hier, None)
    cache.store(key, result, frozenset(reads), epoch=epoch)
    return result


def _is_subtype(s: Type, t: Type, hier: ClassHierarchy,
                resolver: Optional[MethodResolver]) -> bool:
    """The uncached structural dispatch behind :func:`is_subtype`.

    Recursive positions call back through the public entry point so every
    sub-query lands in (and benefits from) the memo table.
    """
    if s == t:
        return True
    if isinstance(s, BotType):
        return True
    if isinstance(s, AnyType) or isinstance(t, AnyType):
        return True

    # nil <= A (paper).
    if isinstance(s, NilType):
        return True

    # Union / intersection structural rules (left before right).
    if isinstance(s, UnionType):
        return all(is_subtype(arm, t, hier, resolver=resolver)
                   for arm in s.arms)
    if isinstance(t, IntersectionType):
        return all(is_subtype(s, arm, hier, resolver=resolver)
                   for arm in t.arms)
    if isinstance(t, UnionType):
        return any(is_subtype(s, arm, hier, resolver=resolver)
                   for arm in t.arms)
    if isinstance(s, IntersectionType):
        return any(is_subtype(arm, t, hier, resolver=resolver)
                   for arm in s.arms)

    # Everything is an Object.
    if isinstance(t, NominalType) and t.name == "Object":
        return True

    # %bool is interchangeable with the nominal Boolean.
    if isinstance(s, BoolType):
        return _bool_le(t, hier)
    if isinstance(t, BoolType):
        return isinstance(s, NominalType) and s.name == "Boolean"

    if isinstance(s, SingletonType):
        if isinstance(t, SingletonType):
            return s == t
        return is_subtype(NominalType(s.base), t, hier, resolver=resolver)

    if isinstance(t, StructuralType):
        return _le_structural(s, t, hier, resolver)

    if isinstance(s, NominalType):
        if isinstance(t, NominalType):
            return hier.is_subclass(s.name, t.name)
        if isinstance(t, GenericType):
            # Raw generics are treated as instantiated at %any (paper:
            # generic instances get their raw type by default).
            if hier.is_subclass(s.name, t.name):
                return True
        return False

    if isinstance(s, GenericType):
        if isinstance(t, NominalType):
            return hier.is_subclass(s.name, t.name)
        if isinstance(t, GenericType):
            if not hier.is_subclass(s.name, t.name):
                return False
            if len(s.args) != len(t.args):
                return False
            return all(is_subtype(a, b, hier, resolver=resolver)
                       for a, b in zip(s.args, t.args))
        return False

    if isinstance(s, TupleType):
        if isinstance(t, TupleType):
            return (len(s.elems) == len(t.elems)
                    and all(is_subtype(a, b, hier, resolver=resolver)
                            for a, b in zip(s.elems, t.elems)))
        if isinstance(t, GenericType) and t.name == "Array" and len(t.args) == 1:
            return all(is_subtype(e, t.args[0], hier, resolver=resolver)
                       for e in s.elems)
        if isinstance(t, NominalType):
            return hier.is_subclass("Array", t.name)
        return False

    if isinstance(s, FiniteHashType):
        if isinstance(t, FiniteHashType):
            mine = s.field_map()
            return all(k in mine and is_subtype(mine[k], v, hier,
                                                resolver=resolver)
                       for k, v in t.fields)
        if isinstance(t, GenericType) and t.name == "Hash" and len(t.args) == 2:
            key_t, val_t = t.args
            return all(
                is_subtype(SingletonType(k, "Symbol"), key_t, hier,
                           resolver=resolver)
                and is_subtype(v, val_t, hier, resolver=resolver)
                for k, v in s.fields)
        if isinstance(t, NominalType):
            return hier.is_subclass("Hash", t.name)
        return False

    if isinstance(s, ClassObjectType):
        if isinstance(t, ClassObjectType):
            return hier.is_subclass(s.name, t.name)
        return isinstance(t, NominalType) and t.name in ("Class", "Object")

    if isinstance(s, MethodType):
        if isinstance(t, MethodType):
            return _le_method(s, t, hier, resolver)
        return isinstance(t, NominalType) and t.name == "Proc"

    if isinstance(s, (SelfType, VarType)):
        return s == t  # resolved before subtyping in well-formed queries

    # Structural-vs-structural is handled by the `isinstance(t,
    # StructuralType)` dispatch above (via _le_structural); no case
    # remains here.
    return False


def _bool_le(t: Type, hier: ClassHierarchy) -> bool:
    if isinstance(t, BoolType):
        return True
    return isinstance(t, NominalType) and hier.is_subclass("Boolean", t.name)


def _le_method(s: MethodType, t: MethodType, hier: ClassHierarchy,
               resolver: Optional[MethodResolver]) -> bool:
    """``s <= t``: s is usable wherever t is expected (contra/co-variance)."""
    # s must accept every arity t accepts.
    if s.min_arity() > t.min_arity():
        return False
    s_max, t_max = s.max_arity(), t.max_arity()
    if s_max is not None and (t_max is None or t_max > s_max):
        return False
    width = t_max if t_max is not None else max(len(s.params), len(t.params))
    for i in range(width):
        sp, tp = s.param_type_at(i), t.param_type_at(i)
        if tp is None:
            continue
        if sp is None:
            return False
        if not is_subtype(tp, sp, hier, resolver=resolver):  # contravariant
            return False
    if t.block is not None:
        if s.block is None:
            if not t.block.optional:
                return False
        elif not _le_method(t.block.sig, s.block.sig, hier,
                            resolver):  # contravariant
            return False
    elif s.block is not None and not s.block.optional:
        return False
    return is_subtype(s.ret, t.ret, hier, resolver=resolver)


def _le_structural(s: Type, t: StructuralType, hier: ClassHierarchy,
                   resolver: Optional[MethodResolver]) -> bool:
    if isinstance(s, StructuralType):
        mine = s.method_map()
        return all(m in mine and _le_method(mine[m], sig, hier, resolver)
                   for m, sig in t.methods)
    if resolver is None:
        return False
    name = _class_name_of(s)
    if name is None:
        return False
    for meth, want in t.methods:
        got = resolver(name, meth)
        if got is None:
            return False
        arms = got.arms if isinstance(got, IntersectionType) else (got,)
        if not any(isinstance(a, MethodType)
                   and _le_method(a, want, hier, resolver)
                   for a in arms):
            return False
    return True


def _class_name_of(t: Type) -> Optional[str]:
    if isinstance(t, NominalType):
        return t.name
    if isinstance(t, GenericType):
        return t.name
    if isinstance(t, BoolType):
        return "Boolean"
    if isinstance(t, SingletonType):
        return t.base
    if isinstance(t, TupleType):
        return "Array"
    if isinstance(t, FiniteHashType):
        return "Hash"
    return None


def equivalent(s: Type, t: Type, hier: ClassHierarchy) -> bool:
    """Mutual subtyping."""
    return is_subtype(s, t, hier) and is_subtype(t, s, hier)


def join(a: Type, b: Type, hier: ClassHierarchy) -> Type:
    """Least upper bound used at conditional merges.

    Follows the paper's (TIf): ``A ⊔ A = A``, ``nil ⊔ τ = τ`` (nil is a
    universal bottom-ish type); otherwise the union of the two sides, which
    is the most precise upper bound expressible in the language.
    """
    if isinstance(a, NilType):
        return b
    if isinstance(b, NilType):
        return a
    if isinstance(a, BotType):
        return b
    if isinstance(b, BotType):
        return a
    if is_subtype(a, b, hier):
        return b
    if is_subtype(b, a, hier):
        return a
    return union_of(a, b)


def join_all(types, hier: ClassHierarchy) -> Type:
    """Fold :func:`join` over a non-empty iterable of types."""
    it = iter(types)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("join_all requires at least one type") from None
    for t in it:
        acc = join(acc, t, hier)
    return acc

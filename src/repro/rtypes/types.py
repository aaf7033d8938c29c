"""Type object model for the RDL-style type annotation language.

Hummingbird piggybacks on RDL's type language (paper, section 4): nominal
types, union types, intersection types, optional and variable-length
arguments, block (higher-order method) types, singleton types, structural
types, a self type, generics, and heterogeneous arrays and hashes.  This
module defines the object model for all of those; parsing lives in
``repro.rtypes.parser`` and the subtype relation in ``repro.rtypes.subtype``.

All types are immutable and hashable, so they can be used as cache keys and
stored in derivations.  ``str()`` on any type produces concrete syntax that
``repro.rtypes.parser.parse_type`` parses back to an equal type; this
round-trip is property-tested.

The common constructors are *hash-consed*: building ``NominalType("User")``
twice yields the same object, so equal types are usually identity-equal and
the memoized subtype cache (``repro.rtypes.subtype``) can key on them
cheaply.  Interning is an optimization, not an invariant — structural
``__eq__``/``__hash__`` remain authoritative, and un-interned construction
paths (e.g. building a ``UnionType`` directly) still compare correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

#: The hash-consing table shared by every interned constructor.  Keys embed
#: the concrete class, so subclasses (none exist today) would not collide.
#: Unbounded, but bounded in practice by the distinct types a program
#: mentions; entries are tiny immutable objects.
_INTERN: dict = {}


def _intern(cls, key, args):
    """Return the canonical instance for ``cls(*args)``, allocating one on
    first use.  Falls back to a fresh instance when ``key`` is unhashable
    (e.g. a caller passed a list where a tuple was expected).

    Thread-safe without a lock: ``dict.setdefault`` is atomic under the
    GIL, so two threads racing to intern the same key both get the one
    winning instance (identity stays stable, keeping ``s is t`` fast
    paths and memo keys honest)."""
    try:
        cached = _INTERN.get(key)
    except TypeError:
        return object.__new__(cls)
    if cached is None:
        cached = _INTERN.setdefault(key, object.__new__(cls))
    return cached


class Type:
    """Base class for every type in the RDL type language."""

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self})"


@dataclass(frozen=True, repr=False)
class AnyType(Type):
    """``%any`` — the dynamic type, compatible with everything in both
    directions (RDL's escape hatch)."""

    def __str__(self) -> str:
        return "%any"


@dataclass(frozen=True, repr=False)
class BoolType(Type):
    """``%bool`` — the type of booleans.

    RDL uses ``%bool`` rather than TrueClass/FalseClass; we follow suit and
    map the host language's ``bool`` values onto it.
    """

    def __str__(self) -> str:
        return "%bool"


@dataclass(frozen=True, repr=False)
class NilType(Type):
    """``nil`` — the type of ``nil`` (``None`` in the Python host).

    Following the paper's formalism, ``nil <= A`` for every class ``A``.
    """

    def __str__(self) -> str:
        return "nil"


@dataclass(frozen=True, repr=False)
class BotType(Type):
    """``%bot`` — the empty type, used internally for expressions that never
    produce a value (e.g. ``raise``).  Subtype of everything."""

    def __str__(self) -> str:
        return "%bot"


@dataclass(frozen=True, repr=False)
class SelfType(Type):
    """``self`` — the type of the receiver, resolved at lookup time."""

    def __str__(self) -> str:
        return "self"


@dataclass(frozen=True, repr=False)
class NominalType(Type):
    """A class name such as ``User`` or ``String``."""

    name: str

    def __new__(cls, name: str):
        return _intern(cls, (cls, name), (name,))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, repr=False)
class VarType(Type):
    """A type variable — a lowercase identifier such as ``t`` or ``u``.

    Type variables come from generic class declarations (``Array<t>``) and
    are instantiated by ``repro.rtypes.instantiate.substitute``.
    """

    name: str

    def __new__(cls, name: str):
        return _intern(cls, (cls, name), (name,))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, repr=False)
class ClassObjectType(Type):
    """The type of the class object itself, written ``Class<User>``.

    ``User.new`` and other class-level (singleton) methods are looked up on
    this type rather than on instances.
    """

    name: str

    def __new__(cls, name: str):
        return _intern(cls, (cls, name), (name,))

    def __str__(self) -> str:
        return f"Class<{self.name}>"


@dataclass(frozen=True, repr=False)
class GenericType(Type):
    """An instantiated generic such as ``Array<Integer>`` or
    ``Hash<Symbol, String>``."""

    name: str
    args: Tuple[Type, ...]

    def __new__(cls, name: str, args: Tuple[Type, ...]):
        return _intern(cls, (cls, name, args), (name, args))

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return f"{self.name}<{args}>"


@dataclass(frozen=True, repr=False)
class TupleType(Type):
    """A heterogeneous array, written ``[Integer, String]``."""

    elems: Tuple[Type, ...]

    def __new__(cls, elems: Tuple[Type, ...]):
        return _intern(cls, (cls, elems), (elems,))

    def __str__(self) -> str:
        return "[" + ", ".join(str(e) for e in self.elems) + "]"


@dataclass(frozen=True, repr=False)
class FiniteHashType(Type):
    """A heterogeneous hash with known keys, written ``{a: Integer}``.

    Keys are symbols (identifiers); order is preserved for printing but
    ignored for equality.
    """

    fields: Tuple[Tuple[str, Type], ...]

    def __str__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.fields)
        return "{" + inner + "}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteHashType):
            return NotImplemented
        return dict(self.fields) == dict(other.fields)

    def __hash__(self) -> int:
        return hash(frozenset(self.fields))

    def field_map(self) -> dict:
        return dict(self.fields)


@dataclass(frozen=True, repr=False)
class SingletonType(Type):
    """A singleton type: a symbol ``:name`` or an integer literal ``5``.

    ``base`` names the nominal type the singleton belongs to (``Symbol`` or
    ``Integer``).
    """

    value: object
    base: str

    def __new__(cls, value: object, base: str):
        return _intern(cls, (cls, value, base), (value, base))

    def __str__(self) -> str:
        if self.base == "Symbol":
            return f":{self.value}"
        return str(self.value)


class UnionType(Type):
    """A union ``A or B``.  Arms are deduplicated and flattened; equality is
    order-insensitive.  Use :func:`union_of` to construct one."""

    __slots__ = ("arms",)

    def __init__(self, arms: Iterable[Type]):
        flat = _flatten(arms, UnionType)
        if len(flat) < 2:
            raise ValueError("UnionType requires at least two distinct arms")
        object.__setattr__(self, "arms", tuple(flat))

    def __str__(self) -> str:
        return " or ".join(_paren(a) for a in self.arms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnionType):
            return NotImplemented
        return frozenset(self.arms) == frozenset(other.arms)

    def __hash__(self) -> int:
        return hash(("union", frozenset(self.arms)))

    def __repr__(self) -> str:
        return f"UnionType({self})"


class IntersectionType(Type):
    """An intersection ``A and B``.

    In practice intersections arise from repeated ``type`` calls on the same
    method (overloaded signatures, paper section 4); they can also be written
    directly.  Equality is order-insensitive.  Use :func:`intersection_of`.
    """

    __slots__ = ("arms",)

    def __init__(self, arms: Iterable[Type]):
        flat = _flatten(arms, IntersectionType)
        if len(flat) < 2:
            raise ValueError("IntersectionType requires at least two arms")
        object.__setattr__(self, "arms", tuple(flat))

    def __str__(self) -> str:
        return " and ".join(_paren(a) for a in self.arms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntersectionType):
            return NotImplemented
        return frozenset(self.arms) == frozenset(other.arms)

    def __hash__(self) -> int:
        return hash(("inter", frozenset(self.arms)))

    def __repr__(self) -> str:
        return f"IntersectionType({self})"


@dataclass(frozen=True, repr=False)
class StructuralType(Type):
    """A structural type ``[to_s: () -> String]`` — any object with the
    listed methods at the listed types.

    The paper notes Hummingbird itself skipped structural types even though
    RDL has them; we implement them as a documented extension.
    """

    methods: Tuple[Tuple[str, "MethodType"], ...]

    def __str__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.methods)
        return "[" + inner + "]"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructuralType):
            return NotImplemented
        return dict(self.methods) == dict(other.methods)

    def __hash__(self) -> int:
        return hash(frozenset(self.methods))

    def method_map(self) -> dict:
        return dict(self.methods)


# --------------------------------------------------------------------------
# Method types and their parameters
# --------------------------------------------------------------------------


class Param:
    """Base class for formal-parameter kinds inside a method type."""

    ty: Type


@dataclass(frozen=True, repr=False)
class RequiredParam(Param):
    """A required positional parameter: ``T``."""

    ty: Type

    def __str__(self) -> str:
        return str(self.ty)

    def __repr__(self) -> str:
        return f"RequiredParam({self.ty})"


@dataclass(frozen=True, repr=False)
class OptionalParam(Param):
    """An optional parameter, written ``?T`` (may be omitted at a call)."""

    ty: Type

    def __str__(self) -> str:
        return f"?{_paren(self.ty)}"

    def __repr__(self) -> str:
        return f"OptionalParam({self.ty})"


@dataclass(frozen=True, repr=False)
class VarargParam(Param):
    """A rest parameter, written ``*T`` (zero or more arguments)."""

    ty: Type

    def __str__(self) -> str:
        return f"*{_paren(self.ty)}"

    def __repr__(self) -> str:
        return f"VarargParam({self.ty})"


@dataclass(frozen=True, repr=False)
class BlockType:
    """The type of a method's code-block argument: ``{ (T) -> U }``.

    ``optional`` marks a block the method may be called without, written
    ``?{ (T) -> U }``.
    """

    sig: "MethodType"
    optional: bool = False

    def __str__(self) -> str:
        body = "{ " + str(self.sig) + " }"
        return f"?{body}" if self.optional else body


@dataclass(frozen=True, repr=False)
class MethodType(Type):
    """A method type ``(T1, ?T2, *T3) { (B) -> R } -> Ret``."""

    params: Tuple[Param, ...]
    block: Optional[BlockType]
    ret: Type

    def __new__(cls, params: Tuple[Param, ...], block: Optional[BlockType],
                ret: Type):
        return _intern(cls, (cls, params, block, ret), (params, block, ret))

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        block = f" {self.block}" if self.block is not None else ""
        return f"({params}){block} -> {self.ret}"

    def min_arity(self) -> int:
        """Number of required positional parameters."""
        return sum(1 for p in self.params if isinstance(p, RequiredParam))

    def max_arity(self) -> Optional[int]:
        """Maximum number of positional arguments, or ``None`` if vararg."""
        if any(isinstance(p, VarargParam) for p in self.params):
            return None
        return len(self.params)

    def accepts_arity(self, n: int) -> bool:
        hi = self.max_arity()
        return self.min_arity() <= n and (hi is None or n <= hi)

    def param_type_at(self, i: int) -> Optional[Type]:
        """Type expected for the ``i``-th positional argument, or ``None``
        if the method cannot accept an ``i``-th argument."""
        fixed = [p for p in self.params if not isinstance(p, VarargParam)]
        rest = [p for p in self.params if isinstance(p, VarargParam)]
        if i < len(fixed):
            return fixed[i].ty
        if rest:
            return rest[0].ty
        return None


# --------------------------------------------------------------------------
# Constructors and helpers
# --------------------------------------------------------------------------

ANY = AnyType()
BOOL = BoolType()
NIL = NilType()
BOT = BotType()
SELF = SelfType()

OBJECT = NominalType("Object")
INTEGER = NominalType("Integer")
FLOAT = NominalType("Float")
NUMERIC = NominalType("Numeric")
STRING = NominalType("String")
SYMBOL = NominalType("Symbol")


def nominal(name: str) -> NominalType:
    """Shorthand for :class:`NominalType`."""
    return NominalType(name)


def generic(name: str, *args: Type) -> GenericType:
    """Shorthand for :class:`GenericType`."""
    return GenericType(name, tuple(args))


def array_of(elem: Type) -> GenericType:
    return GenericType("Array", (elem,))


def hash_of(key: Type, value: Type) -> GenericType:
    return GenericType("Hash", (key, value))


def symbol(name: str) -> SingletonType:
    return SingletonType(name, "Symbol")


def int_singleton(value: int) -> SingletonType:
    return SingletonType(value, "Integer")


def optional(t: Type) -> Type:
    """``t or nil`` — with the paper's ``nil <= A`` rule this is
    documentation: it admits the same values as ``t``."""
    return union_of(t, NIL)


def union_of(*types: Type) -> Type:
    """Build a union, flattening nested unions and deduplicating arms.

    Returns the single arm unchanged when only one distinct arm remains.
    """
    flat = _flatten(types, UnionType)
    if not flat:
        raise ValueError("union_of requires at least one type")
    if len(flat) == 1:
        return flat[0]
    # Hash-cons by arm *set*: equality is order-insensitive, so two
    # orderings share one canonical instance (the first one built).
    try:
        key = (UnionType, frozenset(flat))
        cached = _INTERN.get(key)
    except TypeError:
        return UnionType(flat)
    if cached is None:
        cached = UnionType(flat)
        _INTERN[key] = cached
    return cached


def intersection_of(*types: Type) -> Type:
    """Build an intersection, flattening and deduplicating arms."""
    flat = _flatten(types, IntersectionType)
    if not flat:
        raise ValueError("intersection_of requires at least one type")
    if len(flat) == 1:
        return flat[0]
    try:
        key = (IntersectionType, frozenset(flat))
        cached = _INTERN.get(key)
    except TypeError:
        return IntersectionType(flat)
    if cached is None:
        cached = IntersectionType(flat)
        _INTERN[key] = cached
    return cached


def method_type(params: Iterable[Type | Param], ret: Type,
                block: Optional[BlockType] = None) -> MethodType:
    """Build a :class:`MethodType`, wrapping bare types as required params."""
    norm = tuple(p if isinstance(p, Param) else RequiredParam(p)
                 for p in params)
    return MethodType(norm, block, ret)


def method_arms(t: Type) -> Tuple[MethodType, ...]:
    """View ``t`` as an overloaded method: the arms of an intersection of
    method types, or a single-element tuple for a plain method type."""
    if isinstance(t, MethodType):
        return (t,)
    if isinstance(t, IntersectionType):
        arms = tuple(a for a in t.arms if isinstance(a, MethodType))
        if len(arms) == len(t.arms):
            return arms
    raise TypeError(f"not a method type: {t}")


def _flatten(types: Iterable[Type], cls: type) -> Tuple[Type, ...]:
    """Flatten nested ``cls`` nodes and drop duplicate arms, keeping order."""
    out: list[Type] = []
    seen: set = set()
    for t in types:
        parts = t.arms if isinstance(t, cls) else (t,)
        for p in parts:
            if p not in seen:
                seen.add(p)
                out.append(p)
    return tuple(out)


def _paren(t: Type) -> str:
    """Parenthesize union/intersection arms so printing round-trips."""
    if isinstance(t, (UnionType, IntersectionType, MethodType)):
        return f"({t})"
    return str(t)

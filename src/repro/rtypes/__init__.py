"""``repro.rtypes`` — the RDL-style type language.

The substrate Hummingbird's checking is built on: type objects
(:mod:`~repro.rtypes.types`), concrete syntax
(:mod:`~repro.rtypes.parser`), the class hierarchy
(:mod:`~repro.rtypes.hierarchy`), subtyping and joins
(:mod:`~repro.rtypes.subtype`), generic instantiation
(:mod:`~repro.rtypes.instantiate`), and run-time value typing
(:mod:`~repro.rtypes.typeof`).
"""

from .hierarchy import (
    ClassHierarchy, UnknownClassError, default_hierarchy,
)
from .instantiate import (
    free_vars, instantiate_for_receiver, instantiate_walk,
    receiver_bindings, resolve_self, substitute,
)
from .lexer import TypeSyntaxError
from .parser import parse_method_type, parse_type
from .subtype import equivalent, is_subtype, join, join_all
from .typeof import (
    Sym, class_name_of, conformance, conforms, is_class_determined, type_of,
    value_conforms,
)
from .types import (
    ANY, BOOL, BOT, NIL, OBJECT, SELF,
    AnyType, BlockType, BoolType, BotType, ClassObjectType, FiniteHashType,
    GenericType, IntersectionType, MethodType, NilType, NominalType,
    OptionalParam, Param, RequiredParam, SelfType, SingletonType,
    StructuralType, TupleType, Type, UnionType, VarType, VarargParam,
    array_of, generic, hash_of, int_singleton, intersection_of, method_arms,
    method_type, nominal, optional, symbol, union_of,
)

__all__ = [
    "ANY", "BOOL", "BOT", "NIL", "OBJECT", "SELF",
    "AnyType", "BlockType", "BoolType", "BotType", "ClassHierarchy",
    "ClassObjectType", "FiniteHashType", "GenericType", "IntersectionType",
    "MethodType", "NilType", "NominalType", "OptionalParam", "Param",
    "RequiredParam", "SelfType", "SingletonType", "StructuralType",
    "Sym",
    "TupleType", "Type", "TypeSyntaxError", "UnionType", "UnknownClassError",
    "VarType", "VarargParam",
    "array_of", "class_name_of", "conformance", "conforms",
    "default_hierarchy", "equivalent",
    "free_vars", "generic", "hash_of", "instantiate_for_receiver",
    "instantiate_walk",
    "int_singleton", "intersection_of", "is_class_determined", "is_subtype",
    "join", "join_all",
    "method_arms", "method_type", "nominal", "optional",
    "parse_method_type", "parse_type", "receiver_bindings", "resolve_self",
    "substitute", "symbol", "type_of", "union_of", "value_conforms",
]

"""The method-IR registry: (class name, method name) -> lowered body.

The paper's pipeline parses each application file with DRuby, emits JSON
CFGs, and at run time keeps "a mapping from class and method names and
positions to the JSON CFG", consulted whenever a wrapped method must be
statically checked.  This module is that mapping for the Python host:

* :meth:`CFGRegistry.register_function` lowers a live function object by
  reading its source (``inspect``), or an explicit ``__hb_source__``
  attribute for methods created from strings (the dev-mode reloader and
  metaprogramming substrates attach one);
* lowering from ``inspect`` source is memoized per code object, process
  wide: every closure a factory returns, every re-registration of an
  unchanged method and every engine loading the same app shares one
  parse and one lowered body;
* closure-captured variables are typed from the closure cells at
  registration time — run-time information feeding the static check, in
  the spirit of the whole system;
* :meth:`CFGRegistry.lookup` walks nothing: module methods mixed into many
  classes are registered per *including* class by the engine, matching the
  paper's per-mixin caching strategy.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import threading
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from types import CodeType
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..rtypes import type_of
from .ir import Node
from .json_io import fingerprint
from .lower import LoweringError, lower_function


@dataclass(frozen=True)
class ParamSpec:
    """A formal parameter of a registered method."""

    name: str
    optional: bool = False  # has a default value
    vararg: bool = False    # *args


@dataclass(frozen=True)
class MethodIR:
    """A lowered method body plus everything the checker needs."""

    owner: str
    name: str
    params: Tuple[ParamSpec, ...]
    body: Node
    source_file: str = "<unknown>"
    source_line: int = 0
    captures: Mapping[str, object] = field(default_factory=dict)
    #: the code object the body was lowered from; None for IR registered
    #: from raw source text or JSON.
    code: Optional[CodeType] = field(default=None, compare=False,
                                     repr=False)

    @cached_property
    def fingerprint(self) -> str:
        return fingerprint(self.body)

    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)


class RegistrationError(ValueError):
    """Raised when a function's source cannot be found or lowered."""


#: (params, body, source file): one code object's lowering.
_Lowered = Tuple[Tuple[ParamSpec, ...], Node, str]
#: (weak ref to the code object the lowering was made from, lowering).
_MemoEntry = Tuple["weakref.ref[CodeType]", _Lowered]

#: fn.__code__ -> (weak ref to that very code object, its lowering from
#: ``inspect`` source).  Code objects compare by value, not identity:
#: two files may hold equal code (same name, line, bytecode) for
#: different source (a default value lives outside the code), so a hit
#: counts only when the stored ref is the caller's own code object.
#: Weak keys: the memo holds only live code objects, so an
#: ``exec``-compiled method's entry goes with it.  Reads are plain gets
#: (GIL-atomic); writes take a lock because WeakKeyDictionary insertion
#: is a multi-step pure-Python operation.  ``__hb_source__`` functions
#: never use it: their text, not their code object, is what the caller
#: asked to check.
_LOWERING_MEMO: "weakref.WeakKeyDictionary[CodeType, _MemoEntry]" = \
    weakref.WeakKeyDictionary()
_LOWERING_MEMO_LOCK = threading.Lock()

#: serializes ``ast.parse``.  CPython 3.11 keeps the AST-to-object
#: recursion depth in per-interpreter state, so two threads parsing at
#: once can fail with ``SystemError: AST constructor recursion depth
#: mismatch``; parsing runs only on a cold lowering.
_PARSE_LOCK = threading.Lock()


class CFGRegistry:
    """Maps (class, method) to :class:`MethodIR`."""

    def __init__(self) -> None:
        self._methods: Dict[Tuple[str, str], MethodIR] = {}
        #: False for the cache-free oracle: always lower from source,
        #: sharing no lowering with other engines.
        self.memo_enabled = True

    def register_function(self, owner: str, name: str, fn: Any,
                          captures: Optional[Mapping[str, object]] = None
                          ) -> MethodIR:
        """Lower ``fn`` and register it under ``owner#name``.

        ``fn`` may be a plain function, a closure produced by
        metaprogramming (free variables are typed from the closure cells),
        or a function with an ``__hb_source__`` attribute carrying its
        source text (for methods created via ``exec``).
        """
        fn = inspect.unwrap(getattr(fn, "__func__", fn))
        code: Optional[CodeType] = getattr(fn, "__code__", None)
        source = getattr(fn, "__hb_source__", None)
        if source is not None:
            # The text's own lines are the ones the lowering reports.
            params, body = _lower(owner, name, source)
            source_file, source_line = _source_file(fn), 0
        else:
            params, body, source_file = self._lower_code(owner, name, fn,
                                                         code)
            source_line = _source_line(fn)
        mir = MethodIR(owner=owner, name=name, params=params, body=body,
                       source_file=source_file, source_line=source_line,
                       captures=dict(captures or _closure_captures(fn)),
                       code=code)
        self._methods[(owner, name)] = mir
        return mir

    def _lower_code(self, owner: str, name: str, fn: Any,
                    code: Optional[CodeType]) -> _Lowered:
        """``fn``'s lowering from its ``inspect`` source, memoized by
        code object."""
        key = code if self.memo_enabled else None
        if key is not None:
            hit = _LOWERING_MEMO.get(key)
            if hit is not None and hit[0]() is key:
                return hit[1]
        try:
            source = inspect.getsource(fn)
        except (OSError, TypeError) as exc:
            raise RegistrationError(
                f"no source available for {owner}#{name}: {exc}") from None
        params, body = _lower(owner, name, source)
        lowered: _Lowered = (params, body, _source_file(fn))
        if key is not None:
            with _LOWERING_MEMO_LOCK:
                _LOWERING_MEMO[key] = (weakref.ref(key), lowered)
        return lowered

    def register_source(self, owner: str, name: str, source: str,
                        captures: Optional[Mapping[str, object]] = None,
                        source_file: str = "<string>") -> MethodIR:
        """Lower and register a method from raw source text."""
        params, body = _lower(owner, name, source)
        mir = MethodIR(owner=owner, name=name, params=params, body=body,
                       source_file=source_file, source_line=0,
                       captures=dict(captures or {}))
        self._methods[(owner, name)] = mir
        return mir

    def register_ir(self, mir: MethodIR) -> MethodIR:
        """Register an already-lowered method (e.g. loaded from JSON)."""
        self._methods[(mir.owner, mir.name)] = mir
        return mir

    # -- queries ------------------------------------------------------------

    def lookup(self, owner: str, name: str) -> Optional[MethodIR]:
        return self._methods.get((owner, name))

    def is_current(self, owner: str, name: str, fn: Any) -> bool:
        """True when ``owner#name`` holds ``fn``'s lowering and the types
        of ``fn``'s closure cells are still the captured ones — so
        registering ``fn`` again would change nothing."""
        fn = inspect.unwrap(getattr(fn, "__func__", fn))
        mir = self._methods.get((owner, name))
        return (mir is not None and mir.code is not None
                and mir.code is getattr(fn, "__code__", None)
                and mir.captures == _closure_captures(fn))

    def forget(self, owner: str, name: str) -> None:
        self._methods.pop((owner, name), None)

    def methods_of(self, owner: str) -> Tuple[MethodIR, ...]:
        return tuple(m for (o, _), m in self._methods.items() if o == owner)

    def keys(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(self._methods)

    def __len__(self) -> int:
        return len(self._methods)


def _lower(owner: str, name: str,
           source: str) -> Tuple[Tuple[ParamSpec, ...], Node]:
    """Parse ``source`` and lower its first function definition."""
    tree = _parse_def(source)
    try:
        body = lower_function(tree)
    except LoweringError as exc:
        raise RegistrationError(
            f"cannot lower {owner}#{name}: {exc}") from exc
    return _params_of(tree), body


def _parse_def(source: str) -> ast.FunctionDef:
    """Parse source text and return its first function definition."""
    text = textwrap.dedent(source)
    try:
        with _PARSE_LOCK:
            module = ast.parse(text)
    except SyntaxError as exc:
        raise RegistrationError(f"cannot parse method source: {exc}") from exc
    for node in ast.walk(module):
        if isinstance(node, ast.FunctionDef):
            return node
    raise RegistrationError("source contains no function definition")


def _params_of(fn: ast.FunctionDef) -> Tuple[ParamSpec, ...]:
    args = fn.args
    specs: List[ParamSpec] = []
    positional = list(args.posonlyargs) + list(args.args)
    n_defaults = len(args.defaults)
    for i, a in enumerate(positional):
        if i == 0 and a.arg in ("self", "cls"):
            continue
        optional = i >= len(positional) - n_defaults
        specs.append(ParamSpec(a.arg, optional=optional))
    if args.vararg is not None:
        specs.append(ParamSpec(args.vararg.arg, vararg=True))
    return tuple(specs)


def _closure_captures(fn: Any) -> Dict[str, object]:
    """Type the function's closure cells at registration time.

    When metaprogramming generates a method as a closure (Fig. 2's
    ``define_dynamic_method``), its free variables (``role_name``) are bound
    by the factory; we record their run-time types so the static check of
    the body has types for them.
    """
    freevars = getattr(fn.__code__, "co_freevars", ())
    cells = getattr(fn, "__closure__", None) or ()
    out: Dict[str, object] = {}
    for name, cell in zip(freevars, cells):
        try:
            out[name] = type_of(cell.cell_contents)
        except ValueError:  # empty cell
            continue
    return out


def _source_file(fn: Any) -> str:
    try:
        return inspect.getfile(fn)
    except TypeError:
        return "<unknown>"


def _source_line(fn: Any) -> int:
    try:
        return fn.__code__.co_firstlineno
    except AttributeError:
        return 0

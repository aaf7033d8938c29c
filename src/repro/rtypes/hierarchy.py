"""Class hierarchy: superclass edges, module mixins, and generic arity.

The formalism omits inheritance for simplicity, but the paper's
implementation handles it (section 3), so we do too.  A
:class:`ClassHierarchy` records, per class name:

* its superclass (every class except ``Object`` has one),
* the modules mixed into it, in inclusion order (paper section 4 "Modules":
  module methods are tracked per *including* class, which is why the
  hierarchy needs mixin edges for method lookup), and
* its generic arity and the names of its type variables
  (``Array`` has one, ``Hash`` two).

``BasicObject``-style roots are not modelled; ``Object`` is the root.

Invalidation contract (the dependency-tracked scheme):

* every structural mutation computes exactly which classes' ancestor
  linearizations it changed — a new leaf class or module changes
  *nobody's*; ``include_module(cls, m)`` changes ``cls`` and every class
  that linearizes through it — and reports that *affected set* to
  registered :meth:`on_change` listeners (the engine maps each name to a
  ``("lin", name)`` dependency edge);
* the per-class linearization, ancestor-set and verdict memos are
  dropped only for affected classes.

Read tracing: while a :meth:`trace` context is active, every hierarchy
query records the class names it consulted — including *negative*
lookups, so registering a previously-unknown class invalidates answers
that observed its absence.  Trace stacks are **thread-local**: one
hierarchy serves many request threads, and an inner trace must merge
into *its own thread's* enclosing trace, never another's.

Concurrency discipline (lock-free read, locked write):

* queries read the edge dicts with bare ``dict.get`` — atomic under the
  GIL, no lock;
* structural mutations hold :attr:`ClassHierarchy.lock` (re-entrant;
  the engine replaces it with its own writer lock so hierarchy
  mutations serialize with every other engine mutation) and mutate
  copy-on-write, so a concurrent reader sees the old edges or the new
  edges, never a half-rewritten list;
* the linearization/ancestor-set memos are *version-guarded*: a reader
  that rebuilt a walk stores it only if no mutation ran meanwhile
  (otherwise the stale walk would be memoized *after* the mutation's
  memo flush — the lost-invalidation race);
* the class-verdict memo behind compiled conformance
  (:func:`repro.rtypes.typeof.conformance`) follows the walk memos:
  version-guarded stores, and a mutation drops the rows of exactly the
  classes it affected.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import (
    Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set,
    Tuple,
)


class UnknownClassError(KeyError):
    """Raised when a class name is not registered in the hierarchy."""


class ClassHierarchy:
    """A registry of class names with superclass, mixin, and generic info.

    Mutations bump :attr:`version` (the memos' store guard) and notify
    :meth:`on_change` listeners with the precise set of classes whose
    linearizations changed, so dependent caches invalidate per key
    instead of wholesale.
    """

    def __init__(self) -> None:
        self._parent: Dict[str, Optional[str]] = {"Object": None}
        self._mixins: Dict[str, List[str]] = {"Object": []}
        self._modules: set = set()
        self._typevars: Dict[str, Tuple[str, ...]] = {}
        #: bumped on every structural change (new class/module/mixin edge);
        #: doubles as the version guard for the walk memos below.
        self.version = 0
        #: writer lock for structural mutations and memo stores.  Public
        #: and replaceable: the engine assigns its own re-entrant writer
        #: lock here so hierarchy mutations serialize with every other
        #: engine mutation under a single lock (no ordering cycles).
        self.lock = threading.RLock()
        #: memoize linearizations/ancestor sets; the cache-disabled
        #: differential oracle turns this off to recompute every walk.
        self.memo_enabled = True
        self._linearizations: Dict[str, Tuple[str, ...]] = {}
        self._ancestor_sets: Dict[str, frozenset] = {}
        #: value class name -> {expected class name -> is_subtype verdict},
        #: read lock-free by compiled conformance predicates and filled
        #: through :meth:`store_verdict`.
        self.verdicts: Dict[str, Dict[str, bool]] = {}
        self._listeners: List[Callable[[FrozenSet[str]], None]] = []
        #: per-thread stacks of active read-trace sets (see :meth:`trace`).
        self._trace_tl = threading.local()

    # -- read tracing ------------------------------------------------------

    def _trace_frames(self) -> List[Set[str]]:
        frames = getattr(self._trace_tl, "frames", None)
        if frames is None:
            frames = self._trace_tl.frames = []
        return frames

    @contextmanager
    def trace(self):
        """Collect the class names consulted while the context is active.

        Traces nest *per thread*: popping an inner trace merges its reads
        into the same thread's enclosing one, so an outer consumer (a
        checked derivation) sees the union of everything its sub-queries
        read — and never another thread's reads.
        """
        reads: Set[str] = set()
        stack = self._trace_frames()
        stack.append(reads)
        try:
            yield reads
        finally:
            stack.pop()
            if stack:
                stack[-1] |= reads

    def _touch(self, name: str) -> None:
        stack = getattr(self._trace_tl, "frames", None)
        if stack:
            stack[-1].add(name)

    # -- change notification -----------------------------------------------

    def on_change(self, listener: Callable[[FrozenSet[str]], None]) -> None:
        """Register a callback fired with the affected class-name set."""
        self._listeners.append(listener)

    def _changed(self, affected: Set[str]) -> None:
        for name in affected:
            self._linearizations.pop(name, None)
            self._ancestor_sets.pop(name, None)
            self.verdicts.pop(name, None)
        # Bumped only after the flushes: a lock-free reader that reads
        # the new version can no longer reach a memo this mutation
        # drops, so a store it makes under that version is fresh.
        self.version += 1
        frozen = frozenset(affected)
        for listener in self._listeners:
            listener(frozen)

    def _classes_linearizing_through(self, name: str) -> Set[str]:
        """Every class whose current linearization mentions ``name``
        (computed *before* a mutation, to know whom it will affect)."""
        affected = {name}
        for cls in self._parent:
            if cls == name or cls in affected:
                continue
            if name in self.linearization(cls):
                affected.add(cls)
        return affected

    # -- registration ------------------------------------------------------

    def add_class(self, name: str, superclass: str = "Object",
                  typevars: Sequence[str] = ()) -> None:
        """Register ``name`` with the given superclass and type variables.

        Re-registering with the same superclass is harmless (mirrors Ruby's
        re-opening of classes); changing the superclass is an error.  A new
        class appears in no existing linearization, so only ``name`` itself
        is reported as affected — warm caches for other classes survive.
        """
        with self.lock:
            if name in self._parent:
                existing = self._parent[name]
                if existing != superclass and name != "Object":
                    raise ValueError(
                        f"class {name} already registered with superclass "
                        f"{existing}, cannot change to {superclass}")
                return
            if superclass not in self._parent:
                # Auto-register unknown superclasses under Object so load
                # order does not matter (Ruby-style open-world loading).
                self.add_class(superclass)
            self._parent[name] = superclass
            self._mixins.setdefault(name, [])
            if typevars:
                self._typevars[name] = tuple(typevars)
            self._changed({name})

    def add_module(self, name: str) -> None:
        """Register a module (mixin); modules have no superclass."""
        with self.lock:
            if name in self._modules:
                return
            self._modules.add(name)
            self._mixins.setdefault(name, [])
            self._parent.setdefault(name, None)
            self._changed({name})

    def include_module(self, cls: str, module: str) -> None:
        """Mix ``module`` into ``cls`` (Ruby ``include``).

        This is the one mutation that rewrites *existing* linearizations:
        ``cls``'s and that of every class inheriting through it.  Exactly
        those classes are reported as affected.
        """
        with self.lock:
            if cls not in self._parent:
                self.add_class(cls)
            if module not in self._modules:
                self.add_module(module)
            mixins = self._mixins.setdefault(cls, [])
            if module not in mixins:
                affected = self._classes_linearizing_through(cls)
                # Copy-on-write (later includes take precedence): a
                # concurrent reader walking the old list sees old-or-new
                # atomically, never a list mutated mid-iteration.
                self._mixins[cls] = [module] + mixins
                self._changed(affected)

    # -- queries -----------------------------------------------------------

    def is_known(self, name: str) -> bool:
        self._touch(name)
        return name in self._parent

    def superclass(self, name: str) -> Optional[str]:
        self._touch(name)
        if name not in self._parent:
            raise UnknownClassError(name)
        return self._parent[name]

    def ancestors(self, name: str) -> Iterator[str]:
        """Linearized lookup order: the class, its mixins, then the
        superclass chain (each with its own mixins) — an MRO-lite."""
        return iter(self.linearization(name))

    def linearization(self, name: str) -> Tuple[str, ...]:
        """The ancestor walk as a cached tuple (signature resolution and
        subtyping are hot; the walk is rebuilt only after mutations that
        actually touched this class's ancestry)."""
        self._touch(name)
        lin = self._linearizations.get(name) if self.memo_enabled else None
        if lin is None:
            if name not in self._parent:
                raise UnknownClassError(name)
            ver = self.version
            out: List[str] = []
            current: Optional[str] = name
            while current is not None:
                out.append(current)
                out.extend(self._mixins.get(current, ()))
                current = self._parent.get(current)
            lin = tuple(out)
            if self.memo_enabled:
                # Version-guarded store: if a mutation ran while we
                # walked, this walk may predate the mutation's memo flush
                # and must not be memoized after it.
                with self.lock:
                    if ver == self.version:
                        self._linearizations[name] = lin
        return lin

    def is_subclass(self, sub: str, sup: str) -> bool:
        """True when ``sup`` appears in ``sub``'s ancestor linearization."""
        if sub == sup:
            return True
        self._touch(sub)
        if sub not in self._parent:
            return False
        ancestors = self._ancestor_sets.get(sub) if self.memo_enabled \
            else None
        if ancestors is None:
            ver = self.version
            ancestors = frozenset(self.linearization(sub))
            if self.memo_enabled:
                with self.lock:  # same version guard as linearization
                    if ver == self.version:
                        self._ancestor_sets[sub] = ancestors
        return sup in ancestors

    def store_verdict(self, sub: str, sup: str, verdict: bool,
                      ver: int) -> None:
        """Memoize ``NominalType(sub) <= NominalType(sup)``, computed
        while :attr:`version` read ``ver``; dropped if a mutation ran
        since, exactly like the linearization memo's store."""
        with self.lock:
            if ver == self.version:
                row = self.verdicts.get(sub)
                if row is None:
                    row = self.verdicts[sub] = {}
                row[sup] = verdict

    def typevars(self, name: str) -> Tuple[str, ...]:
        self._touch(name)
        return self._typevars.get(name, ())

    def generic_arity(self, name: str) -> int:
        self._touch(name)
        return len(self._typevars.get(name, ()))


def default_hierarchy() -> ClassHierarchy:
    """The built-in classes every engine starts from.

    Mirrors the Ruby core classes the paper's annotations cover, mapped onto
    Python host values: ``int`` is ``Integer``, ``float`` is ``Float``,
    ``str`` is ``String``, ``list`` is ``Array``, ``dict`` is ``Hash``.
    The numeric tower is ``Integer <= Numeric`` and ``Float <= Numeric``
    (the Bignum overflow case is omitted, exactly as in paper section 4).
    """
    h = ClassHierarchy()
    h.add_class("Comparable")
    h.add_class("Numeric", "Comparable")
    h.add_class("Integer", "Numeric")
    h.add_class("Float", "Numeric")
    h.add_class("String", "Comparable")
    h.add_class("Symbol")
    h.add_class("Boolean")
    h.add_class("NilClass")
    h.add_class("Array", typevars=("t",))
    h.add_class("Hash", typevars=("k", "v"))
    h.add_class("Range", typevars=("t",))
    h.add_class("Set", typevars=("t",))
    h.add_class("Proc")
    h.add_class("Time", "Comparable")
    h.add_class("Date", "Comparable")
    h.add_class("Regexp")
    h.add_class("IO")
    h.add_class("File", "IO")
    h.add_class("Exception")
    h.add_class("StandardError", "Exception")
    h.add_class("ArgumentError", "StandardError")
    h.add_class("TypeError", "StandardError")
    h.add_class("Struct")
    h.add_class("Kernel")
    return h

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
* the per-class linearization/ancestor-set memos are dropped only for
  affected classes;
* the subtype memo evicts only the lines whose recorded hierarchy reads
  intersect the affected set (see :class:`SubtypeCache`).

Read tracing: while a :meth:`trace` context is active, every hierarchy
query records the class names it consulted — including *negative*
lookups, so registering a previously-unknown class invalidates answers
that observed its absence.  The subtype memo stores each line's read set
and replays it into the active trace on a hit, keeping outer read sets
complete without re-walking.  Trace stacks are **thread-local**: one
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
* the subtype memo's store path is epoch-guarded the same way, and its
  LRU bookkeeping takes an internal leaf lock (never held while calling
  back out).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set,
    Tuple,
)


class UnknownClassError(KeyError):
    """Raised when a class name is not registered in the hierarchy."""


class SubtypeCache:
    """Memoized ``is_subtype`` answers for one hierarchy — a bounded LRU.

    Each line maps ``(s, t)`` to ``(answer, reads)`` where
    ``reads`` is the frozenset of class names whose hierarchy placement
    the computation consulted.  The cache is owned by the hierarchy
    because answers depend on its edges: a structural mutation evicts
    exactly the lines whose reads intersect the affected classes
    (:meth:`invalidate_classes`), so a stored answer is always valid for
    the current hierarchy.  When full, the least-recently-used line is
    evicted (``evictions`` counts them) instead of dropping the table
    wholesale — hot pairs stay resident across overflow.  Queries that
    carry a method resolver (structural-type checks) bypass the cache
    entirely — see ``repro.rtypes.subtype.is_subtype``.
    """

    __slots__ = ("table", "hits", "misses", "evictions", "enabled",
                 "max_entries", "_by_class", "_lock", "epoch")

    def __init__(self, max_entries: int = 16384) -> None:
        #: key -> (answer, reads); ordered oldest-first for LRU eviction.
        self.table: "OrderedDict[tuple, Tuple[bool, FrozenSet[str]]]" = \
            OrderedDict()
        #: hit/miss counters are bumped on the unlocked read path, so
        #: under concurrency they are monotonic but may undercount
        #: (approximate observability; the engine Stats shards are the
        #: exact ones).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.enabled = True
        self.max_entries = max_entries
        #: leaf lock for stores/evictions/invalidation; never held while
        #: calling out, so it cannot participate in a lock cycle.
        self._lock = threading.Lock()
        #: bumped by every invalidation; :meth:`store` discards lines
        #: computed before a concurrent invalidation wave.
        self.epoch = 0
        #: class name -> keys of lines whose reads include it.
        self._by_class: Dict[str, Set[tuple]] = {}

    def store(self, key: tuple, answer: bool, reads: FrozenSet[str],
              epoch: Optional[int] = None) -> bool:
        """Insert a memo line unless the hierarchy was mutated since the
        caller snapshotted ``epoch``.  Returns whether it was stored."""
        with self._lock:
            if epoch is not None and epoch != self.epoch:
                return False
            table = self.table
            if key in table:
                self._unindex(key)
            while len(table) >= self.max_entries:
                old_key, (_, old_reads) = table.popitem(last=False)
                self.evictions += 1
                self._unindex(old_key, old_reads)
            table[key] = (answer, reads)
            by_class = self._by_class
            for name in reads:
                bucket = by_class.get(name)
                if bucket is None:
                    by_class[name] = {key}
                else:
                    bucket.add(key)
            return True

    def touch(self, key: tuple) -> None:
        """Opportunistic LRU recency bump for a hit: contended attempts
        are simply skipped (recency is a heuristic; a read must never
        block on the memo's bookkeeping)."""
        lock = self._lock
        if lock.acquire(blocking=False):
            try:
                if key in self.table:
                    self.table.move_to_end(key)
            finally:
                lock.release()

    def _unindex(self, key: tuple,
                 reads: Optional[FrozenSet[str]] = None) -> None:
        if reads is None:
            line = self.table.get(key)
            if line is None:
                return
            reads = line[1]
        by_class = self._by_class
        for name in reads:
            bucket = by_class.get(name)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del by_class[name]

    def invalidate_classes(self, names) -> int:
        """Evict every line whose reads mention any of ``names``."""
        with self._lock:
            self.epoch += 1
            stale: Set[tuple] = set()
            by_class = self._by_class
            for name in names:
                stale |= by_class.pop(name, set())
            for key in stale:
                line = self.table.pop(key, None)
                if line is not None:
                    self._unindex(key, line[1])
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self.epoch += 1
            self.table.clear()
            self._by_class.clear()


class ClassHierarchy:
    """A registry of class names with superclass, mixin, and generic info.

    Mutations bump :attr:`version` (kept for observability and for
    snapshot comparison) and notify :meth:`on_change` listeners with the
    precise set of classes whose linearizations changed, so dependent
    caches invalidate per key instead of wholesale.
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
        self.subtype_cache = SubtypeCache()
        #: memoize linearizations/ancestor sets; the cache-disabled
        #: differential oracle turns this off to recompute every walk.
        self.memo_enabled = True
        self._linearizations: Dict[str, Tuple[str, ...]] = {}
        self._ancestor_sets: Dict[str, frozenset] = {}
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

    def replay_reads(self, names) -> None:
        """Merge a memoized read set into the active trace (if any)."""
        stack = getattr(self._trace_tl, "frames", None)
        if stack:
            stack[-1] |= names

    # -- change notification -----------------------------------------------

    def on_change(self, listener: Callable[[FrozenSet[str]], None]) -> None:
        """Register a callback fired with the affected class-name set."""
        self._listeners.append(listener)

    def _changed(self, affected: Set[str]) -> None:
        self.version += 1
        for name in affected:
            self._linearizations.pop(name, None)
            self._ancestor_sets.pop(name, None)
        self.subtype_cache.invalidate_classes(affected)
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

    def is_module(self, name: str) -> bool:
        self._touch(name)
        return name in self._modules

    def superclass(self, name: str) -> Optional[str]:
        self._touch(name)
        if name not in self._parent:
            raise UnknownClassError(name)
        return self._parent[name]

    def mixins(self, name: str) -> Tuple[str, ...]:
        self._touch(name)
        return tuple(self._mixins.get(name, ()))

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

    def typevars(self, name: str) -> Tuple[str, ...]:
        self._touch(name)
        return self._typevars.get(name, ())

    def generic_arity(self, name: str) -> int:
        self._touch(name)
        return len(self._typevars.get(name, ()))

    def class_names(self) -> Tuple[str, ...]:
        return tuple(self._parent)

    def snapshot(self) -> "ClassHierarchy":
        """A deep copy, used by engines that must not mutate the default.
        Listeners, memo state, and the lock are deliberately not carried
        over (the copy gets a fresh lock of its own)."""
        with self.lock:
            out = ClassHierarchy()
            out._parent = dict(self._parent)
            out._mixins = {k: list(v) for k, v in self._mixins.items()}
            out._modules = set(self._modules)
            out._typevars = dict(self._typevars)
            out.version = self.version
            return out


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

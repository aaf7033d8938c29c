"""The type-check cache — the X of the formalism.

An entry memoizes a successful static check of ``A#m``'s body.  Each entry
records its *dependencies*: its own ``A#m`` slot, every ``B#m'`` whose
signature the derivation consulted (the (TApp) uses of the formalism),
every field type read, and — the dependency-tracked extension — every
class whose ancestor linearization the derivation's subtype queries
walked (``hier_deps``).  The edges live in a shared
:class:`~repro.core.deps.DepGraph`, and every mutation is one
:meth:`CheckCache.invalidate` over the resources it changed:

* **Definition 1** (signature/body change of ``A#m``): the ``A#m`` slot
  drops the entry keyed ``A#m`` (its own edge) and the entries whose
  derivation consulted it.  This is *one* level, not transitive: if ``C``
  calls ``B`` calls ``A``, changing ``A`` invalidates ``B`` (whose
  derivation used ``A``'s signature) but not ``C`` (whose derivation used
  only ``B``'s signature, which did not change).  Entries storing a
  derivation of an *ancestor's* body under a descendant receiver record
  an explicit edge to the ancestor slot (the engine adds the
  body/signature owner to ``deps``), so retyping or redefining the
  ancestor invalidates exactly the receiver-keyed descendants.
* **field change**: entries whose derivations read the field type.
* **hierarchy change**: the ``("lin", C)`` resources of the hierarchy's
  affected classes drop entries whose subtype reasoning consulted a
  changed linearization.

Definition 2 (upgrading the surviving entries to the new table) needs no
work: invalidation removed every entry that mentioned the changed slot,
and an entry carries nothing else that depends on the table.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .deps import (
    DepGraph, Resource, field_resource, lin_resource, sig_resource,
)

Key = Tuple[str, str]  # (class name, method name)


class CacheEntry:
    """A memoized derivation: what was checked and what it relied on."""

    __slots__ = ("key", "deps", "field_deps", "hier_deps")

    def __init__(self, key: Key, deps: Iterable[Key],
                 field_deps: Iterable[Key] = (),
                 hier_deps: Iterable[str] = ()) -> None:
        self.key = key
        self.deps = frozenset(deps)
        self.field_deps = frozenset(field_deps)  # (owner, field name) reads
        self.hier_deps = frozenset(hier_deps)    # class linearization reads

    def __repr__(self) -> str:
        return f"CacheEntry({self.key}, deps={sorted(self.deps)})"


class CheckCache:
    """Memoized type-check derivations with dependency-based invalidation.

    Thread discipline: membership and entry reads (the warm path) are
    bare dict operations — no lock.  Mutations hold the internal lock so
    the DepGraph's multi-step record/invalidate sequences are atomic.
    Stores only ever happen under the engine's writer lock (inside
    ``jit_check``), which also serializes them against the invalidation
    waves; the internal lock additionally covers direct users such as
    the dev-mode reloader's :meth:`remove` calls.
    """

    def __init__(self) -> None:
        self._entries: Dict[Key, CacheEntry] = {}
        self._deps = DepGraph()
        self._lock = threading.RLock()

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Key) -> Optional[CacheEntry]:
        return self._entries.get(key)

    def store(self, key: Key, deps: Iterable[Key],
              field_deps: Iterable[Key] = (),
              hier_deps: Iterable[str] = ()) -> CacheEntry:
        with self._lock:
            entry = CacheEntry(key, deps, field_deps, hier_deps)
            self._entries[key] = entry
            resources = [sig_resource(*key)]
            resources += [sig_resource(*dep) for dep in entry.deps]
            resources += [field_resource(*fdep) for fdep in entry.field_deps]
            resources += [lin_resource(cls) for cls in entry.hier_deps]
            self._deps.record(key, resources)
            return entry

    def remove(self, key: Key) -> None:
        with self._lock:
            if self._entries.pop(key, None) is not None:
                self._deps.forget(key)

    def dependents(self, key: Key) -> Set[Key]:
        """Cached methods other than ``key`` whose derivations consulted
        ``key``'s signature."""
        with self._lock:
            return self._deps.dependents(sig_resource(*key)) - {key}

    def invalidate(self, resources: Iterable[Resource]) -> Set[Key]:
        """Drop every entry that read any of ``resources``; an entry's
        own ``("sig", owner, name)`` slot counts (Definition 1)."""
        with self._lock:
            removed = self._deps.invalidate_many(resources)
            for key in removed:
                del self._entries[key]
            return removed

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._deps.clear()

    def keys(self) -> Set[Key]:
        return set(self._entries)

    def entries(self) -> List[CacheEntry]:
        """A consistent point-in-time view of every memoized derivation
        (the warm-state snapshot walks this to serialize verdicts)."""
        with self._lock:
            return list(self._entries.values())

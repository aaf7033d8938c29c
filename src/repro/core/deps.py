"""The invalidation dependency graph — fine-grained edges for every cache.

PR 1's hot-path caches were guarded by two *coarse* version counters: any
type-table or hierarchy mutation made every call plan unusable, and a
body redefinition flushed plans by method *name* across all receivers.
That is sound but hostile to dev-mode reload churn — one retyped method
evicted every warm call site in the process.

This module replaces the counters with explicit dependency edges.  A
:class:`DepGraph` is a bipartite map between *resources* (the mutable
facts a cached judgment read) and *tokens* (the cache entries that read
them).  Mutating a resource pops exactly its dependents — per key, not
per name, and never "everything".

Resource taxonomy (plain tuples, so they hash fast and print readably):

``("sig", owner, name)``
    a method-signature slot.  Recorded for every slot a resolution walk
    *consulted* — including negative lookups, so a signature appearing on
    a closer ancestor correctly invalidates plans that previously
    resolved past it.  Each check-cache entry also records its own slot
    and the (TApp) dependency keys its derivation consulted, and each
    call plan records the slot of the entry it replays.  The slot has no
    method kind: the check cache keys entries by ``(owner, name)``, and
    every signature wave drops both kinds of the name.

``("lin", class_name)``
    the ancestor linearization of ``class_name``.  Recorded by anything
    that walked or consulted the class's place in the hierarchy; the
    hierarchy reports exactly which classes' linearizations a structural
    mutation changed (a new leaf class changes nobody's).

``("field", owner, field_name)``
    an instance/class field type read by a checked derivation.

Users: the :class:`~repro.core.cache.CheckCache` (per-derivation
signature/field/hierarchy edges) and the engine's
:class:`~repro.core.plans.CallPlanCache` (per-plan resolution edges).
Each mutation is one engine wave (``Engine._wave``): one
``invalidate`` pass over the check cache's graph, then one over the
plan cache's, given the changed resources plus the slots of the check
entries the first pass removed.

Locking contract: a :class:`DepGraph` is **not** internally
synchronized — ``record``/``forget``/``invalidate`` are multi-step
mutations of two dicts.  Every owner wraps its graph in its own lock
(the plan cache's and check cache's internal locks); keeping the graph
lock-free avoids double-locking on the owners' already-serialized
mutation paths.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Set, Tuple

Resource = Tuple
Token = Hashable


def sig_resource(owner: str, name: str) -> Resource:
    """The resource key for a signature slot."""
    return ("sig", owner, name)


def lin_resource(class_name: str) -> Resource:
    """The resource key for a class's ancestor linearization."""
    return ("lin", class_name)


def field_resource(owner: str, field_name: str) -> Resource:
    """The resource key for a field-type slot."""
    return ("field", owner, field_name)


class DepGraph:
    """A bipartite dependency graph: resources -> dependent tokens.

    ``record`` replaces a token's edge set wholesale (a rebuilt cache
    entry re-reads its world from scratch); ``invalidate`` pops a
    resource's dependents and severs all their edges, so a token is
    returned at most once per invalidation wave.
    """

    __slots__ = ("_fwd", "_rev")

    def __init__(self) -> None:
        self._fwd: Dict[Token, Tuple[Resource, ...]] = {}
        self._rev: Dict[Resource, Set[Token]] = {}

    def __len__(self) -> int:
        return len(self._fwd)

    def resource_count(self) -> int:
        return len(self._rev)

    def record(self, token: Token, resources: Iterable[Resource]) -> None:
        """Set ``token``'s dependencies, replacing any previous edges."""
        if token in self._fwd:
            self.forget(token)
        deduped = tuple(dict.fromkeys(resources))
        self._fwd[token] = deduped
        rev = self._rev
        for resource in deduped:
            bucket = rev.get(resource)
            if bucket is None:
                rev[resource] = {token}
            else:
                bucket.add(token)

    def forget(self, token: Token) -> None:
        """Drop ``token`` and its edges (the entry was removed directly)."""
        resources = self._fwd.pop(token, None)
        if resources is None:
            return
        rev = self._rev
        for resource in resources:
            bucket = rev.get(resource)
            if bucket is not None:
                bucket.discard(token)
                if not bucket:
                    del rev[resource]

    def dependents(self, resource: Resource) -> Set[Token]:
        """The tokens currently depending on ``resource`` (a copy)."""
        return set(self._rev.get(resource, ()))

    def invalidate(self, resource: Resource) -> Set[Token]:
        """Pop ``resource``'s dependents, severing all their edges."""
        tokens = self._rev.pop(resource, None)
        if not tokens:
            return set()
        popped = set(tokens)
        for token in popped:
            self.forget(token)
        return popped

    def invalidate_many(self, resources: Iterable[Resource]) -> Set[Token]:
        """Union of :meth:`invalidate` over ``resources``."""
        popped: Set[Token] = set()
        for resource in resources:
            popped |= self.invalidate(resource)
        return popped

    def clear(self) -> None:
        self._fwd.clear()
        self._rev.clear()

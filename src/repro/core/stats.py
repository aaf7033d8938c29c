"""Statistics the evaluation needs (everything in Table 1 and Table 2).

* annotation counts, split into statically-checked app methods ("Chk'd"),
  trusted app methods ("App"), and everything incl. library sigs ("All");
* dynamically generated types ("Gen'd") and how many were consulted during
  checking ("Used");
* distinct run-time cast sites ("Casts");
* phases ("Phs"): a phase is "a sequence of type annotation calls with no
  intervening static type checks, followed by a sequence of static type
  checks with no intervening annotations" — counted from the event stream;
* per-method check counts (Table 2 "Chk'd", and the no-cache recheck
  claim for Pubs), plus every engine counter in :data:`COUNTERS`.

Concurrency discipline: the counters bumped on the *unlocked* hot path
(every intercepted call) are sharded per thread — ``Stats.local()``
returns the calling thread's :class:`HotCounters` shard, and the public
attributes aggregate across shards on read.  A plain ``self.x += 1``
from many threads loses updates (the read-modify-write is three
bytecodes, and the GIL can switch between them); per-thread shards make
every total *exact* with no lock and no contention.  Counters mutated
only under a lock stay plain attributes.

Counters by derivation: a tier-2 wrapper bumps one :data:`SHAPES` slot
per call instead of one shard counter per row it affects.  Each slot
carries a static contribution vector, and an aggregate is its own shard
bumps plus the sum of slot times vector, so the totals are the same
numbers the per-counter bumps gave.
"""

from __future__ import annotations

import threading
import weakref
from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

Key = Tuple[str, str]

#: counter kinds: bumped lock-free on the intercepted-call path into the
#: calling thread's shard, or bumped only while the engine's writer lock
#: (or the specializer's lock) is held.
SHARDED, LOCKED = "sharded", "locked"

#: Every engine counter, declared once: name, kind, whether a serving run
#: reports it per phase and per worker, and what it counts.  The shards,
#: the aggregate properties, the snapshot and the field lists below are
#: all derived from this table.
COUNTERS = (
    ("calls_intercepted", SHARDED, True,
     "intercepted calls, in every tier"),
    ("fast_path_hits", SHARDED, True,
     "calls served by a warm call plan, tier-2 wrappers included"),
    ("specialized_hits", SHARDED, False,
     "the share of fast_path_hits served by a tier-2 wrapper (keyword "
     "calls and other receiver classes bail to the generic tier)"),
    ("static_checks", LOCKED, True,
     "JIT static checks of a method body"),
    ("cache_hits", SHARDED, True,
     "checked calls whose derivation was found in the check cache"),
    ("cache_misses", SHARDED, True,
     "check-cache lookups that went on to a static check"),
    ("dynamic_arg_checks", SHARDED, False,
     "argument checks run at an unchecked-to-checked boundary (§4)"),
    ("dynamic_arg_checks_skipped", SHARDED, False,
     "argument checks skipped because the caller is a checked frame"),
    ("checks_elided", SHARDED, False,
     "per-call check ops a promoted wrapper omitted"),
    ("casts", SHARDED, False,
     "rdl_cast calls (Table 1's Casts is the cast_sites view)"),
    ("promotions", LOCKED, True,
     "call sites compiled to a tier-2 wrapper"),
    ("repromotions", LOCKED, True,
     "promotions at the reduced re-warm threshold after a deopt"),
    ("deopts", LOCKED, True,
     "tier-2 wrappers actually displaced from a live slot"),
    ("elide_promotions", LOCKED, True,
     "promotions whose wrapper omits at least one check op"),
    ("elide_deopts", LOCKED, True,
     "deopts of wrappers that omitted at least one check op"),
    ("plan_invalidations", LOCKED, True,
     "call plans dropped by invalidation"),
    ("invalidations", LOCKED, True,
     "check-cache entries dropped by invalidation"),
    ("annotations_total", LOCKED, True,
     "type annotations recorded"),
    ("annotations_checked", LOCKED, False,
     "annotations of app methods whose bodies are checked (Chk'd)"),
    ("annotations_app_trusted", LOCKED, False,
     "trusted annotations of app methods (App = checked + trusted)"),
    ("annotations_generated", LOCKED, False,
     "annotations made by metaprogramming hooks (Gen'd)"),
    ("retype_edge_invalidations", LOCKED, False,
     "invalidated entries other than the mutated key (ancestor retypes)"),
    ("hier_edge_invalidations", LOCKED, False,
     "invalidated entries whose consulted linearization changed"),
)

#: counters bumped on the lock-free intercepted-call path; these live in
#: per-thread shards and are summed on read.
HOT_COUNTER_FIELDS = tuple(name for name, kind, _, _ in COUNTERS
                           if kind == SHARDED)

#: the counters a serving run reports per phase and per worker: the tier
#: transitions, the cold-start work a worker pays, and how much of the
#: traffic rode call plans.
TRANSITION_FIELDS = tuple(name for name, _, per_phase, _ in COUNTERS
                          if per_phase)

#: the argument branch a tier-2 call took: checked at an
#: unchecked-to-checked boundary, skipped under a checked caller, or no
#: signature to check against.
ARG_BRANCHES = ("args", "skip", "nosig")


def shape_slot(checked: bool, branch: str, elided: int) -> str:
    """The shard slot a tier-2 wrapper bumps, once, per call of this
    shape: plan checked or not, argument branch, check ops omitted."""
    return f"shape_{'c' if checked else 'u'}_{branch}_{elided}"


def _shape_vector(checked: bool, branch: str,
                  elided: int) -> Dict[str, int]:
    """What one call of a shape adds to each counter: exactly what the
    generic tier's per-counter bumps would add, plus the omitted ops."""
    vector = {"calls_intercepted": 1, "fast_path_hits": 1,
              "specialized_hits": 1}
    if checked:
        vector["cache_hits"] = 1
    if branch == "args":
        vector["dynamic_arg_checks"] = 1
    elif branch == "skip":
        vector["dynamic_arg_checks_skipped"] = 1
    if elided:
        vector["checks_elided"] = elided
    return vector


#: every tier-2 call shape as (slot, contribution vector); an elision
#: omits at most the cache probe and the argument test.
SHAPES = tuple((shape_slot(c, b, e), _shape_vector(c, b, e))
               for c in (False, True) for b in ARG_BRANCHES
               for e in range(3))
SHAPE_SLOTS = tuple(slot for slot, _ in SHAPES)

#: every int a shard holds: the sharded counters, then the shape slots.
_SHARD_INTS = HOT_COUNTER_FIELDS + SHAPE_SLOTS


class HotCounters:
    """One thread's shard of the hot-path counters (plain ints, no lock:
    only the owning thread ever writes them), plus that thread's
    checked-frame slot, so the intercepted-call path reaches both with
    one thread-local fetch."""

    __slots__ = _SHARD_INTS + ("top",)

    def __init__(self) -> None:
        for field in _SHARD_INTS:
            setattr(self, field, 0)
        #: is the active intercepted frame statically checked?  Section
        #: 4 reads only the immediate caller's flag, so each call saves
        #: it, sets its own and restores the saved one on the way out.
        self.top = False


class _ShardLocal(threading.local):
    """One engine's thread-local state: ``counters`` is the calling
    thread's :class:`HotCounters` shard.  ``threading.local`` re-runs
    ``__init__`` in every thread that touches the object, so each thread
    creates and registers exactly one shard, on first use."""

    def __init__(self, stats: "Stats") -> None:
        shard = HotCounters()
        ref = weakref.ref(threading.current_thread())
        with stats._shard_lock:
            # Shard creation doubles as the pruning point: dead threads'
            # shards are folded into the base counters then dropped,
            # bounding the shard list by the live threads.
            stats._fold_dead_locked()
            stats._shards.append((ref, shard))
        self.counters = shard


class PhaseTracker:
    """Counts annotation/check phases as events arrive: a new phase
    starts with the first event and with every annotation that follows
    a check."""

    def __init__(self) -> None:
        self.reset()

    def annotation(self) -> None:
        self._event("A")

    def check(self) -> None:
        self._event("C")

    def _event(self, kind: str) -> None:
        if self._last is None or (self._last == "C" and kind == "A"):
            self._count += 1
        self._last = kind

    def phases(self) -> int:
        """Number of maximal annotation-run + check-run blocks."""
        return self._count

    def reset(self) -> None:
        self._count = 0
        self._last: Optional[str] = None  # 'A' (annotation) or 'C' (check)


class Stats:
    """Mutable counters owned by one engine.

    Hot-path counters (:data:`HOT_COUNTER_FIELDS`) are per-thread shards
    reached through :meth:`local`; everything else is mutated only while
    a lock is held.
    """

    def __init__(self) -> None:
        #: (thread weakref, shard) pairs for live threads; dead threads'
        #: shards are folded into ``_folded`` so a long-lived server with
        #: request-thread churn does not accumulate a shard per thread
        #: ever created.
        self._shards: List[tuple] = []
        self._folded = HotCounters()
        self._shard_lock = threading.Lock()
        #: the per-thread state; ``tls.counters`` is the calling
        #: thread's shard (the engine's codegen reads it directly).
        self.tls = _ShardLocal(self)
        self.phase = PhaseTracker()
        for name, kind, _, _ in COUNTERS:
            if kind == LOCKED:
                setattr(self, name, 0)
        # Table 1's sets and Table 2's per-method check counts
        self.generated_keys: Set[Key] = set()
        self.used_generated: Set[Key] = set()
        self.app_annotation_keys: Set[Key] = set()
        self.consulted_keys: Set[Key] = set()  # sigs looked up during checks
        self.cast_sites: Set[Tuple[str, str, int]] = set()
        self.check_counts: Counter = Counter()   # key -> times checked

    # -- per-thread hot counters ----------------------------------------------

    def local(self) -> HotCounters:
        """The calling thread's hot-counter shard (created on first use)."""
        return self.tls.counters

    def _fold_dead_locked(self) -> None:
        alive = []
        folded = self._folded
        for ref, shard in self._shards:
            thread = ref()
            if thread is None or not thread.is_alive():
                for field in _SHARD_INTS:
                    setattr(folded, field,
                            getattr(folded, field) + getattr(shard, field))
            else:
                alive.append((ref, shard))
        self._shards[:] = alive

    # -- recording -----------------------------------------------------------

    def record_annotation(self, *, check: bool, generated: bool,
                          app_level: bool, key: Key) -> None:
        self.annotations_total += 1
        self.phase.annotation()
        if generated:
            self.annotations_generated += 1
            self.generated_keys.add(key)
        if check:
            self.annotations_checked += 1
        elif app_level:
            self.annotations_app_trusted += 1
        if app_level and not generated:
            self.app_annotation_keys.add(key)

    def record_static_check(self, key: Key) -> None:
        self.static_checks += 1
        self.check_counts[key] += 1
        self.phase.check()

    def record_consulted(self, keys) -> None:
        self.consulted_keys |= set(keys)

    def record_generated_use(self, key: Key) -> None:
        if key in self.generated_keys:
            self.used_generated.add(key)

    # -- Table 1 views ---------------------------------------------------------

    def chkd(self) -> int:
        """'Chk'd': annotations for app methods whose bodies we check."""
        return self.annotations_checked

    def app_count(self) -> int:
        """'App': checked + trusted app-specific annotations."""
        return self.annotations_checked + self.annotations_app_trusted

    def all_count(self) -> int:
        """'All': the 'App' count plus library annotations for methods
        actually referred to during type checking (paper's definition)."""
        library = {k for k in self.consulted_keys
                   if k not in self.app_annotation_keys
                   and k not in self.generated_keys}
        return self.app_count() + len(library)

    def cast_site_count(self) -> int:
        """'Casts': distinct cast sites encountered during checking."""
        return len(self.cast_sites)

    def generated_count(self) -> int:
        return self.annotations_generated

    def used_generated_count(self) -> int:
        return len(self.used_generated)

    def phases(self) -> int:
        return self.phase.phases()

    def methods_checked(self) -> int:
        """Distinct methods checked at least once (Table 2 'Chk'd')."""
        return len(self.check_counts)

    def max_rechecks(self) -> int:
        """The hottest method's check count (the Pubs ~13,000 claim)."""
        return max(self.check_counts.values(), default=0)

    def snapshot(self) -> dict:
        """Table 1's views, then every :data:`COUNTERS` row by name."""
        snap = {
            "chkd": self.chkd(),
            "app": self.app_count(),
            "all": self.all_count(),
            "generated": self.generated_count(),
            "used": self.used_generated_count(),
            "cast_sites": self.cast_site_count(),
            "phases": self.phases(),
        }
        for name, _, _, _ in COUNTERS:
            snap[name] = getattr(self, name)
        return snap

    def transitions(self) -> Dict[str, int]:
        """The :data:`TRANSITION_FIELDS` counters by name: what a serving
        run diffs per phase and per worker."""
        return {name: getattr(self, name) for name in TRANSITION_FIELDS}


def _aggregate(field: str, doc: str) -> property:
    # The counter's own bumps, then each shape slot times its weight.
    terms = ((field, 1),) + tuple((slot, vector[field])
                                  for slot, vector in SHAPES
                                  if field in vector)

    def total(self: Stats) -> int:
        # Under the shard lock so a concurrent fold (dead shard moving
        # into the base counters) can neither double-count nor drop it.
        # Aggregate reads are snapshot/assertion paths, never the
        # per-call hot path, so the lock costs nothing that matters.
        with self._shard_lock:
            shards = [self._folded, *(shard for _, shard in self._shards)]
            return sum(weight * getattr(shard, slot)
                       for slot, weight in terms for shard in shards)
    total.__name__ = field
    total.__doc__ = (f"Total {doc}, summed over every thread's shard "
                     "(tier-2 shape slots weighted by their vectors).")
    return property(total)


for _name, _kind, _, _doc in COUNTERS:
    if _kind == SHARDED:
        setattr(Stats, _name, _aggregate(_name, _doc))
del _name, _kind, _doc

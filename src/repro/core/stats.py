"""Statistics the evaluation needs (everything in Table 1 and Table 2).

* annotation counts, split into statically-checked app methods ("Chk'd"),
  trusted app methods ("App"), and everything incl. library sigs ("All");
* dynamically generated types ("Gen'd") and how many were consulted during
  checking ("Used");
* run-time casts ("Casts");
* phases ("Phs"): a phase is "a sequence of type annotation calls with no
  intervening static type checks, followed by a sequence of static type
  checks with no intervening annotations" — computed from the event stream;
* cache hits/misses, per-method check counts (Table 2 "Chk'd", and the
  no-cache recheck claim for Pubs), invalidation counts.

Concurrency discipline: the counters bumped on the *unlocked* hot path
(every intercepted call) are sharded per thread — ``Stats.local()``
returns the calling thread's :class:`HotCounters` shard, and the public
attributes aggregate across shards on read.  A plain ``self.x += 1``
from many threads loses updates (the read-modify-write is three
bytecodes, and the GIL can switch between them); per-thread shards make
every total *exact* with no lock and no contention.  Counters mutated
only under the engine's writer lock (annotation records, check counts,
invalidation sets) stay plain attributes.
"""

from __future__ import annotations

import threading
import weakref
from collections import Counter
from typing import List, Set, Tuple

Key = Tuple[str, str]

#: counters bumped on the lock-free intercepted-call path; these live in
#: per-thread shards and are summed on read.
HOT_COUNTER_FIELDS = (
    "calls_intercepted",
    "fast_path_hits",
    "specialized_hits",
    "cache_hits",
    "cache_misses",
    "dynamic_arg_checks",
    "dynamic_arg_checks_skipped",
    "checks_elided",
    "casts",
)


#: the counters a serving run reports per phase and per worker: the tier
#: transitions (promotion and deopt waves), the cold-start work (static
#: checks, check-cache traffic) a worker pays, and how much of the
#: traffic rode call plans.
TRANSITION_FIELDS = (
    "calls_intercepted",
    "fast_path_hits",
    "static_checks",
    "cache_hits",
    "cache_misses",
    "promotions",
    "repromotions",
    "deopts",
    "elide_promotions",
    "elide_deopts",
    "plan_invalidations",
    "invalidations",
    "annotations_total",
)


class HotCounters:
    """One thread's shard of the hot-path counters (plain ints, no lock:
    only the owning thread ever writes them)."""

    __slots__ = HOT_COUNTER_FIELDS

    def __init__(self) -> None:
        for field in HOT_COUNTER_FIELDS:
            setattr(self, field, 0)


class PhaseTracker:
    """Counts annotation/check phases from an event stream."""

    def __init__(self) -> None:
        self._events: List[str] = []  # 'A' (annotation) or 'C' (check)

    def annotation(self) -> None:
        self._events.append("A")

    def check(self) -> None:
        self._events.append("C")

    def phases(self) -> int:
        """Number of maximal annotation-run + check-run blocks."""
        if not self._events:
            return 0
        count = 1
        for prev, cur in zip(self._events, self._events[1:]):
            if prev == "C" and cur == "A":
                count += 1
        return count

    def reset(self) -> None:
        self._events.clear()


class Stats:
    """Mutable counters owned by one engine.

    Hot-path counters (:data:`HOT_COUNTER_FIELDS`) are per-thread shards
    reached through :meth:`local`; everything else is mutated only while
    the engine's writer lock is held.
    """

    def __init__(self) -> None:
        #: (thread weakref, shard) pairs for live threads; dead threads'
        #: shards are folded into ``_folded`` so a long-lived server with
        #: request-thread churn does not accumulate a shard per thread
        #: ever created.
        self._shards: List[tuple] = []
        self._folded = HotCounters()
        self._shard_lock = threading.Lock()
        self._shard_tl = threading.local()
        self.phase = PhaseTracker()
        # annotations
        self.annotations_total = 0
        self.annotations_checked = 0       # app methods we statically check
        self.annotations_app_trusted = 0   # app methods with trusted sigs
        self.annotations_generated = 0     # created by metaprogramming hooks
        self.generated_keys: Set[Key] = set()
        self.used_generated: Set[Key] = set()
        self.app_annotation_keys: Set[Key] = set()
        self.consulted_keys: Set[Key] = set()  # sigs looked up during checks
        self.cast_sites: Set[Tuple[str, str, int]] = set()
        # checking (cache_hits / cache_misses live in the thread shards)
        self.static_checks = 0
        self.check_counts: Counter = Counter()   # key -> times checked
        self.invalidations = 0
        self.invalidated_keys: Set[Key] = set()
        # dynamic checks and the call-plan fast path are all sharded:
        # casts, dynamic_arg_checks(_skipped), calls_intercepted and
        # fast_path_hits are aggregate properties over the per-thread
        # HotCounters.
        self.plan_invalidations = 0      # plans dropped by invalidation
        # tiered execution (the tier-2 specializer); promotions happen
        # under the writer lock and deopts under the specializer's lock,
        # so plain attributes suffice (specialized_hits is sharded).
        self.promotions = 0              # call sites compiled to tier 2
        self.deopts = 0                  # specialized entries actually
        #                                  displaced from a live slot
        #: promotions that fired at the reduced re-promotion threshold
        #: (the site deopted before and re-warmed).
        self.repromotions = 0
        #: promotions whose wrapper omits at least one per-call check
        #: op (signature-fact elision; checks_elided shards count the
        #: per-call ops actually skipped).
        self.elide_promotions = 0
        #: elided entries among the displaced deopt counts — elided
        #: wrappers torn down by an invalidation wave.
        self.elide_deopts = 0
        #: circuit-breaker activations: per-site flap trips plus
        #: engine-wide promotion pauses (see core/specialize.py).
        self.breaker_trips = 0
        #: chronic flappers demoted to tier 1 with a cooldown — the
        #: per-site subset of breaker_trips.
        self.breaker_demotions = 0
        #: requests completed on a retry attempt after their original
        #: worker crashed or hung (bumped by the supervised driver).
        self.requests_replayed = 0
        #: worker processes respawned by the supervisor.
        self.workers_restarted = 0
        self.subtype_cache_hits = 0      # synced by Engine.stats_snapshot
        self.subtype_cache_misses = 0
        # dependency-tracked invalidation (the deps.DepGraph subsystem)
        #: cache entries/plans invalidated through an edge whose key is
        #: *not* the mutated method itself — e.g. retyping an ancestor
        #: signature removing a descendant's receiver-keyed derivation.
        self.retype_edge_invalidations = 0
        #: subtype-memo lines evicted by LRU overflow (not invalidation);
        #: synced from the hierarchy by Engine.stats_snapshot.
        self.subtype_lru_evictions = 0
        #: cache entries removed because a consulted linearization changed.
        self.hier_edge_invalidations = 0

    # -- per-thread hot counters ----------------------------------------------

    def local(self) -> HotCounters:
        """The calling thread's hot-counter shard (created on first use).

        Shard creation doubles as the pruning point: dead threads'
        shards are folded into the base counters then dropped, bounding
        the shard list by the number of *concurrently live* threads.
        """
        shard = getattr(self._shard_tl, "shard", None)
        if shard is None:
            shard = HotCounters()
            ref = weakref.ref(threading.current_thread())
            with self._shard_lock:
                self._fold_dead_locked()
                self._shards.append((ref, shard))
            self._shard_tl.shard = shard
        return shard

    def _fold_dead_locked(self) -> None:
        alive = []
        folded = self._folded
        for ref, shard in self._shards:
            thread = ref()
            if thread is None or not thread.is_alive():
                for field in HOT_COUNTER_FIELDS:
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

    def record_invalidation(self, keys) -> None:
        keys = set(keys)
        self.invalidations += len(keys)
        self.invalidated_keys |= keys

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
        """A plain-dict summary for harness printing."""
        return {
            "chkd": self.chkd(),
            "app": self.app_count(),
            "all": self.all_count(),
            "generated": self.generated_count(),
            "used": self.used_generated_count(),
            "casts": self.cast_site_count(),
            "phases": self.phases(),
            "static_checks": self.static_checks,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "calls_intercepted": self.calls_intercepted,
            "fast_path_hits": self.fast_path_hits,
            "specialized_hits": self.specialized_hits,
            "dynamic_arg_checks": self.dynamic_arg_checks,
            "dynamic_arg_checks_skipped": self.dynamic_arg_checks_skipped,
            "promotions": self.promotions,
            "repromotions": self.repromotions,
            "deopts": self.deopts,
            "checks_elided": self.checks_elided,
            "elide_promotions": self.elide_promotions,
            "elide_deopts": self.elide_deopts,
            "plan_invalidations": self.plan_invalidations,
            "breaker_trips": self.breaker_trips,
            "breaker_demotions": self.breaker_demotions,
            "requests_replayed": self.requests_replayed,
            "workers_restarted": self.workers_restarted,
            "subtype_cache_hits": self.subtype_cache_hits,
            "subtype_cache_misses": self.subtype_cache_misses,
            "subtype_lru_evictions": self.subtype_lru_evictions,
            "retype_edge_invalidations": self.retype_edge_invalidations,
            "hier_edge_invalidations": self.hier_edge_invalidations,
        }


def _aggregate(field: str) -> property:
    def total(self: Stats) -> int:
        # Under the shard lock so a concurrent fold (dead shard moving
        # into the base counters) can neither double-count nor drop it.
        # Aggregate reads are snapshot/assertion paths, never the
        # per-call hot path, so the lock costs nothing that matters.
        with self._shard_lock:
            return getattr(self._folded, field) + sum(
                getattr(shard, field) for _, shard in self._shards)
    total.__name__ = field
    total.__doc__ = f"Total {field} across live shards + folded dead ones."
    return property(total)


for _field in HOT_COUNTER_FIELDS:
    setattr(Stats, _field, _aggregate(_field))
del _field

"""Call plans — per-call-site inline caches for the steady-state JIT path.

The paper's headline performance result (Orig < Hum << No$) rests on the
intercepted-call path being cheap once a method is warm.  Without plans,
every call re-resolves the signature through the ancestor linearization,
re-enters ``jit_check`` (to discover the check is already cached), and
re-derives the argument-check decision.  A :class:`CallPlan` memoizes the
outcome of one warm call per ``(defining class, receiver class, method,
kind)`` site so the hot loop collapses to a guard plus a dict hit — the
same move as the polymorphic inline caches of "Transient Typechecks are
(Almost) Free" (Roberts et al.) and the shape tests of lazy basic block
versioning (Chevalier-Boisvert & Feeley).

Soundness / invalidation (the dependency-tracked scheme):

* while a plan is built, the cold path records every resource the
  resolution consulted — the ``("sig", C, name)`` slot of each
  ancestor it probed (negative probes included) and the ``("lin", C)``
  linearization it walked — and :meth:`CallPlanCache.store` adds the
  plan's check-cache slot, ``("sig", receiver, name)``.
  The cache keeps those edges in a :class:`~repro.core.deps.DepGraph`;
  one :meth:`CallPlanCache.invalidate` per mutation pops exactly the
  dependent plans, instead of the old scheme's global version counters
  that made *every* plan unusable after *any* table or hierarchy change;
* the engine passes that wave the slots of the check-cache entries it
  just removed (body redefinitions, field retypes, Definition 1 removal
  sets), so a plan replaying a removed derivation falls per *(receiver,
  method)* key, not per method name — redefining ``A#m`` leaves ``B#m``
  plans warm.  The one removal outside a wave, ``Engine.recheck`` (the
  Rails helper quirk), runs the plan pass on the removed entry's slot,
  so a live checked plan always has its derivation in the check cache
  and a warm call never probes for it;
* ``No$`` mode (``caching=False``) never builds plans for statically
  checked methods — re-checking on every call is that mode's point.

Argument-class profiles: when every signature arm is *class-determined*
(:func:`repro.rtypes.typeof.is_class_determined` — conformance depends only
on each argument's host class), a plan additionally remembers the argument
class tuples that already passed the dynamic check.  A repeat call with the
same classes skips the conformance walk entirely: guard + set hit.

Profiles are **copy-on-write frozensets**: the lock-free warm path reads
``plan.profiles`` (one attribute load of an immutable set) and learners
publish ``plan.profiles = profiles | {new}`` — an atomic reference swap.
Concurrent learners may lose each other's update (the next identical
call just re-runs the conformance walk and re-learns), but no thread
can ever observe a set mid-mutation, which a shared ``set.add`` from
many threads would permit.

Keyword calls are not profiled: they always take the full dynamic
check, which binds them onto the declared parameters.  No benchmark
workload makes a keyword call through an intercepted method.

Tiering: a plan also carries the tier-2 promotion state — ``hits``, a
heuristic warm-call counter (racy increments only delay promotion),
``promote_at``, the per-site threshold the engine stamps at build time
(reduced for sites the specializer saw deoptimize), ``profile_hits``,
the pre-promotion per-profile counts the dominant-profile guard is
compiled from, and ``promoted``, set once the specializer has attempted
to compile the site (:mod:`repro.core.specialize`).  A promoted site
*is* its plan: the promotion writes the plan's key, the class whose
slot it took, the slot values it displaced and installed, and its
elision verdict onto the plan, and a deopt reads them back.  The
cache's ``on_drop`` callback reports every explicitly dropped plan so
the specializer can restore the slots those plans hold before the wave
returns.
"""

from __future__ import annotations

import threading
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple,
)

from .deps import DepGraph, Resource, sig_resource

PlanKey = Tuple[str, str, str, str]  # (def_owner, recv class, method, kind)

#: Cap on remembered passing argument-class profiles per plan; beyond it
#: the dynamic check still runs, it just stops learning new profiles.
MAX_PROFILES = 64


class CallPlan:
    """The fully-resolved outcome of one warm intercepted call."""

    __slots__ = ("sig_owner", "sig", "checked", "profile_eligible",
                 "profiles", "profile_hits", "hits", "promote_at",
                 "promoted", "key", "slot_cls", "displaced", "installed",
                 "elision")

    def __init__(self, sig_owner: Optional[str], sig, checked: bool,
                 profile_eligible: bool) -> None:
        #: ancestor the signature was found on (None when unannotated).
        self.sig_owner = sig_owner
        #: the resolved MethodSig, or None for wrapped-but-unannotated.
        self.sig = sig
        #: the JIT static check is satisfied and memoized in the check
        #: cache; also what the checked-frame slot holds for callees.
        self.checked = checked
        self.profile_eligible = profile_eligible
        #: copy-on-write: always reassigned (never mutated in place) so
        #: lock-free readers see a complete set or the previous one.
        self.profiles: FrozenSet[tuple] = frozenset()
        #: pre-promotion warm-hit counts per passing profile, so the
        #: specializer's dominant-profile guard targets the *hottest*
        #: shape, not an arbitrary frozenset-iteration-first one.  Racy
        #: per-key increments (lost updates only skew the heuristic);
        #: only bumped while the plan is unpromoted, so the steady state
        #: pays nothing.
        self.profile_hits: Dict[tuple, int] = {}
        #: warm-hit counter driving tier-2 promotion; bumped lock-free,
        #: so lost increments merely postpone the threshold.
        self.hits = 0
        #: per-site promotion threshold (the engine sets it at plan
        #: build: the full ``specialize_threshold``, or the specializer's
        #: reduced re-promotion threshold for sites that deopted before).
        self.promote_at = 0
        #: the specializer attempted (or declined) to compile this plan;
        #: one attempt per plan generation — a dropped-and-rebuilt plan
        #: starts fresh.
        self.promoted = False
        #: the site, written by a promotion: the plan key, the class
        #: whose slot holds the compiled wrapper, and the slot values
        #: (classmethod objects included) it displaced and installed.
        #: ``installed`` is None while the plan has no site.
        self.key: Optional[PlanKey] = None
        self.slot_cls: Optional[type] = None
        self.displaced = None
        self.installed = None
        #: the elision verdict: the arity the compiled code guards in
        #: place of its argument test, or None (the test is emitted).
        self.elision: Optional[int] = None

    def learn_profile(self, profile: tuple) -> None:
        """COW-publish a passing argument-class tuple (capped)."""
        profiles = self.profiles
        if len(profiles) < MAX_PROFILES:
            self.profiles = profiles | {profile}

    def note_profile_hit(self, profile: tuple) -> None:
        """Count a warm profile hit (pre-promotion only — the caller
        gates on ``promoted``).  Plain-dict read-modify-write: racy
        under threads, but the count is a compile-time heuristic and a
        lost increment cannot affect soundness."""
        hits = self.profile_hits
        hits[profile] = hits.get(profile, 0) + 1

    def dominant_profile(self) -> Optional[tuple]:
        """The hottest passing profile by pre-promotion hit counts
        (falling back to any profile when nothing was counted — e.g.
        every caller was statically checked, so no call ran the
        argument check)."""
        profiles = self.profiles
        if not profiles:
            return None
        counts = dict(self.profile_hits)  # snapshot vs racy writers
        return max(profiles, key=lambda p: counts.get(p, 0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CallPlan(owner={self.sig_owner!r}, checked={self.checked}, "
                f"profiles={len(self.profiles)})")


class CallPlanCache:
    """Per-engine map of call sites to :class:`CallPlan`, with the
    dependency edges that invalidate them.

    Thread discipline: :meth:`get` (the warm path) is a bare dict read —
    no lock.  Every mutation (store, the invalidation wave, clear)
    holds the internal lock, because a cold plan build stores outside
    the engine's writer lock, and each wave bumps :attr:`epoch` once,
    whether or not it drops a plan.  A cold plan build snapshots
    the epoch *before* resolving and passes it to :meth:`store`; if any
    wave ran in between, the store is discarded — otherwise a plan
    resolved against the pre-mutation world could be memoized *after*
    the wave that should have flushed it (the lost-invalidation race).

    :attr:`on_drop` (set by the engine) is called with the plans an
    invalidation wave explicitly dropped, *after* the internal lock is
    released but before the wave returns — the tier-2 deopt hook: any
    specialized wrapper compiled from a dropped plan is swapped back to
    the generic wrapper before the mutation wave completes.
    """

    def __init__(self) -> None:
        self._plans: Dict[PlanKey, CallPlan] = {}
        self._deps = DepGraph()
        self._lock = threading.Lock()
        #: bumped (under the lock) by every invalidation wave; stale
        #: epoch => a concurrent mutation => the plan must not be stored.
        self.epoch = 0
        #: deopt listener: called (outside the lock) with each wave's
        #: dropped plans.
        self.on_drop: Optional[Callable[[Tuple[CallPlan, ...]], None]] = None

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key: PlanKey) -> Optional[CallPlan]:
        return self._plans.get(key)

    def items(self) -> List[Tuple[PlanKey, CallPlan]]:
        """A consistent point-in-time view of every live plan (the
        warm-state snapshot walks this to serialize call sites)."""
        with self._lock:
            return list(self._plans.items())

    def store(self, key: PlanKey, plan: CallPlan,
              resources: Iterable[Resource] = (),
              epoch: Optional[int] = None) -> bool:
        """Memoize ``plan`` unless an invalidation wave ran since the
        caller snapshotted ``epoch``, or ``key`` already has a live plan.
        Returns whether it was stored.

        A plan is built only on a miss, so a live plan at ``key`` was
        stored by a racing twin build; it stays, with whatever
        promotion it earned, and ``plan`` serves its one call.
        """
        with self._lock:
            if ((epoch is not None and epoch != self.epoch)
                    or key in self._plans):
                return False
            self._plans[key] = plan
            self._deps.record(key, [*resources,
                                    sig_resource(key[1], key[2])])
        return True

    def invalidate(self, resources: Iterable[Resource]) -> int:
        """Drop every plan depending on any of ``resources``; a plan's
        check-cache slot ``("sig", receiver, name)`` counts.  Bumps the
        epoch even when nothing drops: in-flight plan builds may have
        read mid-mutation and must discard."""
        with self._lock:
            self.epoch += 1
            if not self._deps.reads_any(resources):
                return 0
            dropped = [self._plans.pop(key)
                       for key in self._deps.invalidate_many(resources)]
        self._notify_drop(dropped)
        return len(dropped)

    def clear(self) -> int:
        with self._lock:
            self.epoch += 1
            dropped = list(self._plans.values())
            self._plans.clear()
            self._deps.clear()
        self._notify_drop(dropped)
        return len(dropped)

    def _notify_drop(self, plans: List[CallPlan]) -> None:
        """Fire the deopt listener outside the internal lock, which
        guards only the plan map and its graph (the listener rebinds
        class attributes)."""
        if plans and self.on_drop is not None:
            self.on_drop(tuple(plans))

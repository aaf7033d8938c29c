"""Tier-2 specialization — compiling warm call plans into per-site wrappers.

Tier 1 (:mod:`repro.core.plans`) made the steady state "a guard plus a
cache hit", but the guard itself is still ~30 lines of interpreted Python
per call inside ``Engine.invoke``: build the plan key tuple, run
``class_name_of``, fetch thread-locals, decide the boundary argument
check, push/pop the checked frame.  Lazy basic block versioning
(Chevalier-Boisvert & Feeley) and "Transient Typechecks are (Almost)
Free" (Roberts et al.) both make the same observation: type guards only
become near-free when they are *compiled into the call site* as
straight-line code.  This module is that move for the CPython substrate.

**Promotion.**  Once a :class:`~repro.core.plans.CallPlan` has served
``plan.promote_at`` warm hits (the engine's ``specialize_threshold``,
or the reduced re-promotion threshold for sites that deopted before),
the :class:`Specializer` generates a wrapper function specialized to
exactly that plan: the receiver-class identity guard, the
dominant argument-profile test (the *hottest* profile by pre-promotion
hit counts) and the checked-frame push/pop are emitted as straight-line
local-variable operations, ``exec``-compiled once, closing over the
original function, the plan (whose COW profile sets it re-reads each
call), and the engine's per-thread state.  ``rdl.wrap``'s generic
wrapper is then atomically displaced: one ``setattr`` rebinds the class
attribute, so promotion needs no cooperation from in-flight calls.

**One shape per site.**  A promoted slot compiles exactly one shape: one
receiver class and positional calls of one arity when the site fixes
it (the elided arity, the dominant profile's, or the function's own),
so the call is ``_fn(recv, args[0], ...)`` with no re-splat.  Keyword
calls, other arities and other receiver classes take the generic tier,
which binds them through the full dynamic check.  No benchmark workload
(each past warm-up, seed 1) made a keyword call through an intercepted
method or grew a second hot receiver class on a promoted slot, so
compiled versions for those shapes would be guards no call runs.

**Counters by derivation.**  Each call bumps one slot of its thread's
counter shard, named by its shape (plan checked or not, argument
branch, check ops omitted).  ``Stats`` derives the totals from the
slots' contribution vectors (:data:`~repro.core.stats.SHAPES`), so a
wrapper reports what the generic tier would have, plus
``checks_elided``.

**Signature-fact elision.**  At promotion time the
:class:`~repro.core.elide.Elider` reads two facts off the plan
(:class:`~repro.core.elide.Elision`), and the codegen here **omits** the
check ops they make redundant instead of partially evaluating them: the
check-cache membership probe of a checked plan, and the argument-profile
test where some arm's parameter types are all vacuous (only the arity
is guarded).  The checked-frame push/pop is always emitted.  Both facts
read only the plan, so the plan's own dependency edges deopt an elided
site exactly like any other.

**Adaptive re-promotion.**  Deoptimizing a site records its plan key in
a bounded re-warm registry; when the plan is rebuilt, the engine stamps
it with the reduced threshold (``specialize_threshold // 4``), so
dev-mode reload churn re-reaches tier 2 in a fraction of the warmup
(``Stats.repromotions`` counts these).

**Deopt-storm circuit breakers.**  Adaptive re-promotion cuts both
ways: a site whose guard assumptions are invalidated *continuously* —
adversarial reload churn retyping the same method every few
milliseconds — would otherwise cycle promote/deopt forever, paying
wrapper compilation and teardown on every lap.  Two breakers, always
armed, gate the cycle; their limits are the module constants below:

* **per-site**: each deopt of a key is a *flap*; ``BREAKER_FLAP_LIMIT``
  flaps inside ``BREAKER_WINDOW_S`` trip the site — its re-warm
  discount is revoked, promotion is refused for
  ``BREAKER_COOLDOWN_S``, and the site serves tier 1 (sound, just
  unspecialized).  A flap during the cooldown restarts the quiet
  timer; a flap after it re-arms the site fresh.
  ``Stats.breaker_demotions`` counts trips;
* **engine-wide**: ``BREAKER_WAVE_LIMIT`` displacing invalidation
  waves inside the window pause *all* promotion for the cooldown —
  during a storm, compiling wrappers the next wave will tear down is
  pure overhead.

Both are perf governors, never soundness: a blocked promotion leaves
the generic tier-1 wrapper serving every call, and deopt itself is
never gated.  ``Stats.breaker_trips`` counts activations of either.
The breaker engages on the benchmark: perfbench's ``metaprog_churn``
workload trips it.

**Guard failure falls back, never raises.**  Any situation the
straight-line code does not cover — another receiver class, a keyword
call, another arity, an unseen argument-class tuple, a missing
check-cache entry — bails into ``Engine.invoke`` *before touching any
counter*, so the generic tier observes exactly the call it
would have seen without specialization (including raising the right
``ArgumentTypeError`` and learning new profiles).  A specialized
wrapper is therefore a pure fast-path overlay: it can be wrong about
the future, never about the call it accepts.

**Deoptimization.**  Soundness rides the PR 2 dependency machinery: a
specialized wrapper lives exactly as long as the plan it was compiled
from.  Every invalidation wave that drops a plan
(:meth:`CallPlanCache.invalidate_resources`,
:meth:`~repro.core.plans.CallPlanCache.invalidate_cache_keys`,
:meth:`~repro.core.plans.CallPlanCache.clear`, and store-overwrites)
reports the dropped keys through ``CallPlanCache.on_drop``, and the
engine restores the displaced generic wrapper *before the wave
returns*.  So by the time a mutation's caller regains control, no specialized code
embodying the pre-mutation world is reachable from the class.  Epoch
bumps that drop nothing (e.g. a field-type wave whose removal set is
empty) deoptimize nothing: a surviving plan's dependencies were, by
construction of the wave, untouched, so its compiled form is still
valid.  Three further guards close the remaining corners:

* every wrapper carries a per-call **liveness guard** — a
  constant-key identity probe that its plan is still the one in the
  plan cache.  Rebinding the class attribute cannot reach bound methods
  Python callers hoisted before the swap; the liveness guard makes
  those references self-invalidating, so deopt-by-rebinding is purely a
  performance recovery, never load-bearing for soundness;
* checked sites additionally test their ``(receiver, method)``
  membership in the check cache per call, so even a direct
  ``CheckCache.clear()`` that bypasses ``Engine.invalidate`` degrades
  the site to the generic path instead of replaying a removed
  derivation — mirroring the tier-1 plan guard;
* promotion re-verifies (after publishing the wrapper) that its plan
  is still live, self-deoptimizing if a wave raced the
  install through a direct cache call that did not hold the engine's
  writer lock.

Contracts (``rdl.wrap`` pre/post hooks) always run in the generic
wrapper; registering a contract deoptimizes every site, and promotion
stays blocked — per method *name* — while a contract on that name
exists anywhere (contract hooks resolve per receiver class, so any
same-named contract may fire for some receiver).  Unrelated names
re-promote freely.

``REPRO_DISABLE_SPECIALIZE=1`` (or ``EngineConfig(specialize=False)``)
turns the tier off — the ``tier1-nospec`` CI job runs the whole suite
that way, and the differential harnesses prove outcome equality between
tier-2, tier-1, and the cache-free oracle.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from inspect import CO_VARARGS
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional, \
    Tuple

from ..rdl.registry import CLASS
from .elide import _contract_blocks
from .plans import CallPlan, PlanKey
from .stats import shape_slot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .elide import Elision
    from .engine import Engine

#: divisor applied to ``specialize_threshold`` for the re-promotion
#: threshold of sites that deopted and re-warmed.
REWARM_DIVISOR = 4

#: bound on the re-warm registry: reload churn in a long-lived dev
#: server must not accumulate plan keys without limit.
_REWARM_MAX = 4096

#: deopts of one site inside ``BREAKER_WINDOW_S`` that trip its breaker.
BREAKER_FLAP_LIMIT = 8

#: sliding window (seconds) for both the per-site flap count and the
#: engine-wide displacing-wave count.
BREAKER_WINDOW_S = 1.0

#: how long (seconds) a tripped site, or the whole engine, stays demoted
#: before the breaker re-arms.
BREAKER_COOLDOWN_S = 2.0

#: displacing invalidation waves inside ``BREAKER_WINDOW_S`` that pause
#: all promotion.
BREAKER_WAVE_LIMIT = 32

#: bound on the breaker's per-site flap/cooldown tracking maps.
_FLAP_TRACK_MAX = 1024


def specialize_disabled_by_env() -> bool:
    """True when ``REPRO_DISABLE_SPECIALIZE`` forces tier-1-only mode."""
    return os.environ.get("REPRO_DISABLE_SPECIALIZE", "") not in (
        "", "0", "false", "no")


class _Site:
    """One promoted slot: the plan key it was compiled from, what it
    displaced, and what displaced it."""

    __slots__ = ("key", "name", "elision", "def_cls", "generic",
                 "specialized", "was_classmethod")

    def __init__(self, key: PlanKey, elision: Optional["Elision"],
                 def_cls: type, generic, specialized,
                 was_classmethod: bool) -> None:
        self.key = key
        self.name = key[2]
        #: the elision verdict: which per-call check operations the
        #: compiled code omits, or None (every check op emitted).
        self.elision = elision
        self.def_cls = def_cls
        self.generic = generic
        self.specialized = specialized
        self.was_classmethod = was_classmethod

    def install(self, fn) -> None:
        """Bind ``fn`` into the slot, re-wrapping classmethods."""
        setattr(self.def_cls, self.name,
                classmethod(fn) if self.was_classmethod else fn)

    def is_live(self) -> bool:
        """Whether the slot still holds this site's compiled wrapper (a
        direct ``setattr`` bypassing wrap/unwrap may have rebound it)."""
        raw = self.def_cls.__dict__.get(self.name)
        inner = raw.__func__ if isinstance(raw, classmethod) else raw
        return inner is self.specialized


Slot = Tuple[type, str]


class Specializer:
    """The tier-2 compiler + deopt registry for one engine.

    Locking: :meth:`maybe_promote` runs under the engine's writer lock
    (promotion is a mutation of the class, and serializing with
    invalidation waves makes the is-my-plan-still-live check race-free);
    the internal lock additionally serializes the site registry against
    deopt callbacks arriving from direct ``CallPlanCache`` calls that
    bypass the writer lock.  The specializer never acquires any other
    lock while holding its own.
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._lock = threading.Lock()
        #: (defining class, method name) -> the live promoted site.
        self._sites: Dict[Slot, _Site] = {}
        #: plan key -> the slot its site was compiled into.
        self._by_key: Dict[PlanKey, Slot] = {}
        #: plan keys whose sites were deoptimized at least once — these
        #: re-promote at the reduced threshold.  Bounded; read lock-free
        #: on the cold plan-build path, mutated under the internal lock.
        self._rewarm: Dict[PlanKey, bool] = {}
        # The engine's clamped threshold is the single source of truth;
        # re-deriving the clamp here would let the two drift.
        threshold = engine._spec_threshold
        self._threshold = threshold
        self._rewarm_threshold = max(1, threshold // REWARM_DIVISOR)
        # Circuit-breaker state (all mutated under the internal lock;
        # the promotion-path probes are lock-free dict reads).
        self._clock = time.monotonic
        #: plan key -> deopt timestamps inside the sliding window.
        self._flaps: Dict[PlanKey, List[float]] = {}
        #: tripped plan key -> when its cooldown lapses (re-arm time).
        self._cooling: Dict[PlanKey, float] = {}
        #: timestamps of recent displacing invalidation waves.
        self._wave_times: Deque[float] = deque()
        #: engine-wide promotion pause deadline (0.0 = not paused).
        self._pause_until = 0.0

    def __len__(self) -> int:
        """Live promoted sites."""
        return len(self._by_key)

    def promote_threshold(self, key: PlanKey) -> int:
        """The per-site promotion threshold the engine stamps onto a
        freshly built plan: reduced for sites that deopted before (so
        reload churn re-reaches tier 2 quickly), full otherwise.  A
        tripped site lost its discount — the breaker revoked the
        re-warm entry — so it pays the full threshold again."""
        return (self._rewarm_threshold if key in self._rewarm
                else self._threshold)

    # -- circuit breaker ----------------------------------------------------

    def breaker_blocked(self, key: PlanKey) -> bool:
        """Lock-free probe on the promotion path: True while the
        engine-wide pause or this site's cooldown is active.  A cooldown
        found expired re-arms the site (pruning its entry)."""
        now = self._clock()
        if now < self._pause_until:
            return True
        cooling = self._cooling
        until = cooling.get(key)
        if until is None:
            return False
        if now < until:
            return True
        with self._lock:
            # Re-arm after quiet time; compare the deadline so a trip
            # that raced this probe keeps its fresh cooldown.
            if cooling.get(key) == until:
                del cooling[key]
        return False

    def _note_flap_locked(self, key: PlanKey) -> None:
        """Record one deopt of ``key`` for the per-site breaker; trips
        it at ``BREAKER_FLAP_LIMIT`` flaps inside the window.  Caller
        holds the internal lock."""
        now = self._clock()
        cooling = self._cooling
        until = cooling.get(key)
        if until is not None:
            if now < until:
                # Still cooling and still flapping: restart the quiet
                # timer, and keep the re-warm discount revoked.
                cooling[key] = now + BREAKER_COOLDOWN_S
                self._rewarm.pop(key, None)
                return
            del cooling[key]  # quiet time served; count flaps fresh
        flaps = self._flaps
        times = flaps.get(key)
        if times is None:
            if len(flaps) >= _FLAP_TRACK_MAX:
                self._prune_flaps_locked(now)
            times = flaps[key] = []
        else:
            times[:] = [t for t in times if now - t < BREAKER_WINDOW_S]
        times.append(now)
        if len(times) >= BREAKER_FLAP_LIMIT:
            del flaps[key]
            cooling[key] = now + BREAKER_COOLDOWN_S
            # Revoke the reduced threshold: a chronic flapper must
            # re-earn promotion at the full threshold after cooldown.
            self._rewarm.pop(key, None)
            if len(cooling) > _FLAP_TRACK_MAX:
                self._prune_cooling_locked(now)
            stats = self.engine.stats
            stats.breaker_trips += 1
            stats.breaker_demotions += 1

    def _note_wave_locked(self) -> None:
        """Record one displacing invalidation wave for the engine-wide
        breaker; trips the all-promotion pause at ``BREAKER_WAVE_LIMIT``
        waves inside the window.  Caller holds the internal lock."""
        now = self._clock()
        waves = self._wave_times
        waves.append(now)
        while waves and now - waves[0] >= BREAKER_WINDOW_S:
            waves.popleft()
        if len(waves) >= BREAKER_WAVE_LIMIT and now >= self._pause_until:
            self._pause_until = now + BREAKER_COOLDOWN_S
            self.engine.stats.breaker_trips += 1

    def _prune_flaps_locked(self, now: float) -> None:
        flaps = self._flaps
        for key in [k for k, ts in flaps.items()
                    if not ts or now - ts[-1] >= BREAKER_WINDOW_S]:
            del flaps[key]
        if len(flaps) >= _FLAP_TRACK_MAX:  # all still in-window: drop LRU
            for key in list(flaps)[:_FLAP_TRACK_MAX // 2]:
                del flaps[key]

    def _prune_cooling_locked(self, now: float) -> None:
        cooling = self._cooling
        for key in [k for k, until in cooling.items() if now >= until]:
            del cooling[key]

    def breaker_paused(self) -> bool:
        """Whether the engine-wide promotion pause is currently active
        (introspection for tests)."""
        return self._clock() < self._pause_until

    # -- promotion ----------------------------------------------------------

    def maybe_promote(self, key: PlanKey, plan: CallPlan, fn, recv,
                      guard_cls: Optional[type] = None) -> bool:
        """Compile ``plan`` into a specialized wrapper and install it.

        Called from the warm path when the plan crosses its hit
        threshold.  Marks the plan ``promoted`` whatever happens — one
        attempt per plan generation; a plan dropped by invalidation and
        rebuilt cold gets a fresh attempt.  A slot already promoted (for
        another receiver class) refuses: one shape per site.

        ``guard_cls`` overrides the receiver-derived guard class: the
        warm-state snapshot restore promotes eagerly, before any request
        has produced a live receiver, and passes the host class of the
        plan's receiver owner instead.
        """
        if self.breaker_blocked(key):
            # Graceful degradation: refuse without consuming the plan's
            # promotion attempt, and push the retry out by a full
            # threshold of warm hits so a cooling site pays one dict
            # probe per threshold window, not per call.
            plan.promote_at = plan.hits + self._threshold
            return False
        plan.promoted = True
        engine = self.engine
        if _contract_blocks(engine, key[2]):
            return False  # contracts only run in the generic wrapper
        def_owner, recv_owner, name, kind = key
        if guard_cls is None:
            if kind == CLASS:
                if not isinstance(recv, type):
                    return False
                guard_cls = recv
            else:
                guard_cls = type(recv)
        def_cls = engine.host_class(def_owner)
        if def_cls is None:
            return False
        raw = def_cls.__dict__.get(name)
        was_classmethod = isinstance(raw, classmethod)
        inner = raw.__func__ if was_classmethod else raw
        # Only displace the current-generation generic wrapper for this
        # very function: a stale fn, a foreign wrapper or a slot that is
        # already specialized refuses.
        if (inner is None or getattr(inner, "__hb_specialized__", False)
                or getattr(inner, "__hb_original__", None) is not fn):
            return False
        with engine.write_lock:
            if _contract_blocks(engine, name):
                # Re-validated under the lock: a contract registered
                # between the lock-free probe above and here must win —
                # contract registration serializes on the same lock.
                return False
            plans = engine._plans
            if plans is None or plans.get(key) is not plan:
                return False  # a wave dropped the plan while we raced here
            if def_cls.__dict__.get(name) is not raw:
                return False  # the slot changed under us; stay generic
            elider = engine._elider
            elision = (elider.analyze(key, plan)
                       if elider is not None else None)
            slot = (def_cls, name)
            with self._lock:
                if key in self._by_key or slot in self._sites:
                    return False
                wrapper = _compile_wrapper(engine, key, guard_cls, plan, fn,
                                           elision)
                site = _Site(key, elision, def_cls, inner, wrapper,
                             was_classmethod)
                site.install(wrapper)
                self._sites[slot] = site
                self._by_key[key] = slot
                rewarmed = key in self._rewarm
            stats = engine.stats
            stats.promotions += 1
            if rewarmed:
                stats.repromotions += 1
            if elision is not None:
                stats.elide_promotions += 1
            stale = plans.get(key) is not plan
        if stale:
            # A direct cache call (no writer lock) dropped the plan
            # between the liveness check and the install racing its
            # on_drop callback; undo — the callback may have run before
            # the site existed.
            self.deoptimize_keys((key,))
            return False
        return True

    # -- deoptimization -----------------------------------------------------

    def deoptimize_keys(self, keys: Iterable[PlanKey]) -> int:
        """Restore the displaced generic wrapper at each promoted ``key``.

        Only sites whose compiled code was actually displaced from the
        live slot are counted (and reported through ``Stats.deopts``): a
        slot rebound by a re-wrap or unwrap in the meantime must neither
        be clobbered with a resurrected wrapper nor counted as a deopt.
        """
        engine = self.engine
        displaced = 0
        elided = 0
        with self._lock:
            for key in keys:
                slot = self._by_key.pop(key, None)
                if slot is None:
                    continue
                site = self._sites.pop(slot, None)
                if site is None:
                    continue
                self._note_rewarm(key)
                if not site.is_live():
                    # The slot was rebound behind our back (a direct
                    # setattr bypassing wrap/unwrap): the compiled code
                    # is already unreachable from the class.  Forget the
                    # site, restore nothing, count nothing.
                    continue
                displaced += 1
                if site.elision is not None:
                    elided += 1
                site.install(site.generic)
            if displaced:
                engine.stats.deopts += displaced
                self._note_wave_locked()
            if elided:
                engine.stats.elide_deopts += elided
        return displaced

    def deoptimize_all(self) -> int:
        """Deoptimize every promoted site (contract registration, tests)."""
        with self._lock:
            keys = tuple(self._by_key)
        return self.deoptimize_keys(keys)

    def discard_slot(self, def_cls: type, name: str) -> None:
        """Forget (without restoring) the site watching ``def_cls.name``.

        Called by ``wrap_method``/``unwrap_method`` just before they
        rebind the slot themselves: the displaced generic wrapper is
        obsolete, so restoring it later would resurrect a superseded
        function.  The rebind displaces the compiled wrapper, so it
        counts as a deopt and its key enters the re-warm registry.
        """
        with self._lock:
            site = self._sites.pop((def_cls, name), None)
            if site is None:
                return
            self._by_key.pop(site.key, None)
            self._note_rewarm(site.key)
            stats = self.engine.stats
            stats.deopts += 1
            if site.elision is not None:
                stats.elide_deopts += 1
            self._note_wave_locked()

    def _note_rewarm(self, key: PlanKey) -> None:
        """Grant ``key`` the reduced re-promotion threshold, evicting
        the least-recently-deopted entry at the bound — never the whole
        registry, which would forget every discount at once and trigger
        a synchronized full-threshold re-promotion wave.  Also feeds the
        per-site breaker, which may immediately revoke the discount."""
        rewarm = self._rewarm
        if key in rewarm:
            del rewarm[key]  # re-insert below: dict order is recency
        elif len(rewarm) >= _REWARM_MAX:
            del rewarm[next(iter(rewarm))]
        rewarm[key] = True
        self._note_flap_locked(key)

    def is_promoted(self, key: PlanKey) -> bool:
        return key in self._by_key

    def promoted_entries(self):
        """Point-in-time view of every promoted site as
        ``(key, elision-or-None)`` pairs — the warm-state snapshot uses
        this to record which sites were promoted, so a warm-started
        worker can re-promote eagerly."""
        with self._lock:
            return [(site.key, site.elision)
                    for site in self._sites.values()]


#: synthetic filename stem for compiled wrappers (visible in tracebacks).
_CODEGEN_FILE = "<hb-specialized {owner}#{name}>"


def _compile_wrapper(engine: "Engine", key: PlanKey, guard_cls: type,
                     plan: CallPlan, fn, elision: Optional["Elision"]):
    """``exec``-compile the straight-line wrapper for one promoted site.

    The emitted code is the tier-1 warm path partially evaluated against
    the site's plan: every branch the plan decides is resolved at
    compile time, every engine attribute chase becomes a closed-over
    local, and each call bumps the one shard slot whose contribution
    vector is what the generic path would have counted (the
    stats-exactness suite runs with promotion active).  A receiver
    that fails the class guard bails to the generic tier.
    """
    def_owner, _, name, kind = key
    bail = ("return _invoke(_def_owner, _name, _kind, _fn, recv, "
            "args, kwargs)")
    guard = "recv is _cls0" if kind == CLASS else "type(recv) is _cls0"
    body, namespace = _body_lines(key, plan, fn, elision, bail)
    lines = ["def _specialized(recv, *args, **kwargs):",
             f"    if {guard}:",
             *["        " + ln for ln in body],
             f"    {bail}"]
    namespace.update({
        "_fn": fn,
        "_tls": engine._tls,
        "_invoke": engine.invoke,
        "_def_owner": def_owner,
        "_name": name,
        "_kind": kind,
        "_entries": engine.cache._entries,
        "_live": engine._plans._plans,
        "_cls0": guard_cls,
    })
    source = "\n".join(lines) + "\n"
    filename = _CODEGEN_FILE.format(owner=def_owner, name=name)
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    wrapper = namespace["_specialized"]
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__module__ = getattr(fn, "__module__", __name__)
    wrapper.__hb_original__ = fn
    wrapper.__hb_engine__ = engine
    wrapper.__hb_kind__ = kind
    wrapper.__hb_specialized__ = True
    wrapper.__hb_source__ = source  # introspection for tests/debugging
    wrapper.__hb_entry_keys__ = (key,)
    return wrapper


def _body_lines(key: PlanKey, plan: CallPlan, fn, el: Optional["Elision"],
                bail: str) -> Tuple[list, dict]:
    """The guarded body (unindented), all paths returning.

    When the site carries an :class:`Elision`, the corresponding check
    operations are *not emitted*; the shape slot a call bumps still
    names the argument branch it took, plus how many check operations
    the wrapper omits."""
    sig = plan.sig
    checked = plan.checked
    elided = el.count if el is not None else 0
    dominant = (plan.dominant_profile()
                if sig is not None and plan.profile_eligible else None)
    arity = _site_arity(fn, el, dominant)
    ns: dict = {"_key0": key, "_plan0": plan}
    if arity is None:  # no fixed arity: keep the re-splat
        guard, call = "kwargs", "_fn(recv, *args)"
    else:  # another arity, or a keyword, binds in the generic tier
        guard = f"kwargs or len(args) != {arity}"
        call = "_fn(" + ", ".join(
            ["recv"] + [f"args[{j}]" for j in range(arity)]) + ")"
    lines = [
        f"if {guard}:",
        f"    {bail}",
        # Liveness guard: the wrapper is only valid while the exact plan
        # it was compiled from is still in the plan cache.  Deopt swaps
        # the class attribute, but Python callers may have *hoisted* a
        # bound method before the swap — those references bypass the
        # rebinding, and without this per-call identity probe they would
        # replay the dropped plan's assumptions (e.g. admit an argument
        # profile a retype just outlawed).  One constant-key dict get.
        "if _live.get(_key0) is not _plan0:",
        f"    {bail}",
    ]
    if checked and not (el is not None and el.cache_guard):
        # Mirrors the tier-1 guard against direct CheckCache flushes
        # that bypass Engine.invalidate: no entry, no fast path.
        lines += ["if _ckey0 not in _entries:", f"    {bail}"]
        ns["_ckey0"] = (key[1], key[2])
    lines += ["c = _tls.counters", "stack = c.stack"]
    if sig is None:
        lines.append(f"c.{shape_slot(checked, 'nosig', elided)} += 1")
    else:
        # Every matching parameter type vacuous: only the arity, guarded
        # above, needed checking.
        profile_test = [] if el is not None and el.arg_check else \
            _profile_test_lines(plan, dominant, bail, ns)
        lines += [
            "if stack and stack[-1]:",
            f"    c.{shape_slot(checked, 'skip', elided)} += 1",
            "else:",
            *["    " + ln for ln in profile_test],
            f"    c.{shape_slot(checked, 'args', elided)} += 1",
        ]
    lines += [f"stack.append({checked})", "try:", f"    return {call}",
              "finally:", "    stack.pop()"]
    return lines, ns


def _site_arity(fn, el: Optional["Elision"],
                dominant: Optional[tuple]) -> Optional[int]:
    """The one positional arity the wrapper serves: the elided arity,
    else the dominant profile's, else ``fn``'s own when it has no
    defaults, ``*args`` or keyword-only parameters; else ``None``."""
    if el is not None and el.arity is not None:
        return el.arity
    if dominant is not None:
        return len(dominant)
    code = getattr(fn, "__code__", None)
    if (code is None or fn.__defaults__ or code.co_kwonlyargcount
            or code.co_flags & CO_VARARGS or code.co_argcount < 1):
        return None
    return code.co_argcount - 1


def _profile_test_lines(plan: CallPlan, dominant: Optional[tuple],
                        bail: str, ns: dict) -> list:
    """The membership test against the plan's COW profile set, fronted
    by an identity guard on the *dominant* profile — the hottest shape
    by pre-promotion hit counts (:meth:`CallPlan.dominant_profile`), so
    the steady state is a ``type``/``is`` chain with no tuple
    allocation (the arity is guarded already).  Binds the ``_d0_<j>``
    guard classes into ``ns``.

    Misses bail to the generic tier, which runs the real conformance
    walk (raising on genuinely bad arguments) and COW-learns passing
    tuples into ``plan.profiles`` — which this code re-reads per call,
    so the specialized site keeps profiting from post-promotion
    learning without recompilation."""
    if not plan.profile_eligible:
        # No sound class guard exists; a check-path call must run the
        # full conformance walk — in the generic tier.
        return [bail]
    fallback = [
        "if tuple(map(type, args)) not in _plan0.profiles:",
        f"    {bail}",
    ]
    if dominant is None:
        return fallback
    ns.update({f"_d0_{j}": cls for j, cls in enumerate(dominant)})
    guard = [f"type(args[{j}]) is _d0_{j}" for j in range(len(dominant))]
    if not guard:  # the arity guard alone admits the empty profile
        return []
    return [f"if not ({' and '.join(guard)}):",
            *["    " + ln for ln in fallback]]

"""The Hummingbird engine: just-in-time static type checking.

The protocol (paper sections 1, 3, 4):

1. Type annotations *execute at run time*, adding signatures to the type
   table (:class:`~repro.rdl.registry.TypeRegistry`).  Metaprogramming code
   generates annotations the same way it generates methods.
2. Every annotated method is wrapped.  When a wrapped method is called:

   * **cache hit** (EAppHit) — the body was already checked under the
     current table; only the dynamic argument check may run;
   * **cache miss** (EAppMiss) — the body's IR is fetched from the registry
     and statically checked against the current table *now*; the derivation
     and its dependency set are memoized.

3. Dynamic argument checks run only when the immediate caller is not
   itself statically checked (the section 4 optimization), tracked with
   one per-thread slot: the checkedness of the active intercepted frame.
4. Defining a method (EDef) or changing a signature (EType) invalidates the
   cache entry and its dependents (Definitions 1 and 2).

Invalidation is *dependency-tracked*: every cached judgment (check-cache
entry, call plan) records exactly which signature slots, field types,
and class linearizations it read, and each mutation
removes exactly the dependents of what it changed (see
:mod:`repro.core.deps` and ``docs/performance.md``).

Different :class:`EngineConfig` settings give the paper's measurement
modes: ``intercept=False`` is "Orig", ``caching=False`` is "No$", defaults
are "Hum".  Setting ``REPRO_DISABLE_CACHES=1`` in the environment (or
``Engine(..., disable_caches=True)``) builds a *cache-free oracle*: call
plans off, check memoization off, hierarchy memos off, every
body lowered from its source (no shared lowering memo), every run-time
conformance check walked by the interpreted ``value_conforms`` instead of
a compiled predicate — every judgment recomputed from scratch.  The
differential soundness harness runs workloads in both modes and asserts
identical outcomes.

Concurrency discipline (lock-free read, locked write):

* the **warm path** — plan lookup, signature and hierarchy reads,
  argument profiles — takes *no lock*: it is single dict/set
  operations, each atomic under the GIL;
* every **mutation** (define/redefine/retype/subclass/include/field
  retype) runs under one per-engine writer :attr:`~Engine.write_lock`
  (re-entrant; shared with the type registry and the hierarchy), so a
  mutation's DepGraph invalidation wave is atomic with respect to every
  other mutation *and* every in-flight ``jit_check`` (which takes the
  same lock).  Every removal of a check-cache entry or a plan is such a
  wave, or :meth:`~Engine.recheck`, so the check cache and the
  specializer keep no lock of their own;
* cold-path **memo stores** that run outside the writer lock (call
  plans, hierarchy memos) are *epoch-guarded*:
  the builder snapshots an epoch before resolving, and the store is
  discarded if any invalidation wave ran in between — a judgment
  resolved against a half-mutated world is never memoized;
* per-call mutable state (the checked-frame slot, hierarchy read
  traces, hot stats counters) is **thread-local**.

Tiered execution: once a call plan has served ``specialize_threshold``
warm hits, the engine promotes the site to **tier 2** — an
exec-generated wrapper with the plan's guards compiled to straight-line
code (:mod:`repro.core.specialize`).  Every invalidation
wave that drops a plan deoptimizes its specialized wrapper before the
wave returns, and any guard failure inside a specialized wrapper falls
back into :meth:`Engine.invoke` rather than raising.  Setting
``REPRO_DISABLE_SPECIALIZE=1`` (or ``EngineConfig(specialize=False)``)
pins every site to tier 1 — the ``tier1-nospec`` differential mode.
"""

from __future__ import annotations

import inspect
import os
import threading
import warnings
from dataclasses import dataclass, field, replace as dc_replace
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..rdl.registry import CLASS, INSTANCE, MethodSig, TypeRegistry
from ..rdl.wrap import wrap_method
from ..ril import CFGRegistry, bodies_differ
from ..ril.registry import MethodIR, RegistrationError
from ..rtypes import (
    ANY,
    ClassObjectType, MethodType, NominalType, Type, class_name_of, conforms,
    default_hierarchy, is_class_determined, parse_type, value_conforms,
)
from .builtins_sigs import install as install_builtins
from .cache import CheckCache
from .checker import Checker
from .deps import Resource, field_resource, lin_resource, sig_resource
from .elide import Elider, elide_disabled_by_env
from .errors import (
    ArgumentTypeError, CastError, NoMethodBodyError, StaticTypeError,
    TypeSignatureError,
)
from .plans import CallPlan, CallPlanCache, PlanKey
from .specialize import Specializer, specialize_disabled_by_env
from .stats import Stats

Key = Tuple[str, str]


def caches_disabled_by_env() -> bool:
    """True when ``REPRO_DISABLE_CACHES`` asks for the cache-free oracle."""
    return os.environ.get("REPRO_DISABLE_CACHES", "") not in (
        "", "0", "false", "no")


@dataclass
class EngineConfig:
    """Knobs for the paper's measurement modes and ablations.

    Each field has a caller outside the tests: ``intercept`` and
    ``caching`` give Table 1's Orig and No$ columns (evalharness,
    perfbench); ``call_plans``, ``specialize`` and ``elide`` select the
    tier ablations (perfbench; ``benchmarks/bench_hotpath.py`` sets the
    first two);
    ``specialize_threshold`` is set by the serving harness and the
    elision audit.  The paper's semantics (section 4's boundary-only
    argument checks, no return checks, ``nil <= A``) are constants.
    """

    #: wrap annotated methods at all; False reproduces the "Orig" column.
    intercept: bool = True
    #: memoize static checks; False reproduces the "No$" column.
    caching: bool = True
    #: memoize warm call sites as CallPlans (the steady-state fast path);
    #: False falls back to full per-call resolution (perf ablation).
    call_plans: bool = True
    #: tier-2: compile stable warm plans into exec-generated per-site
    #: wrappers (:mod:`repro.core.specialize`).  False (or the
    #: ``REPRO_DISABLE_SPECIALIZE=1`` environment switch) stays on the
    #: tier-1 generic path — the ``tier1-nospec`` differential mode.
    specialize: bool = True
    #: warm hits a call plan must serve before promotion to tier 2.
    specialize_threshold: int = 50
    #: omit the argument test of a promoted wrapper whose signature arm
    #: has vacuous parameter types (:mod:`repro.core.elide`).  False (or
    #: ``REPRO_DISABLE_ELIDE=1``) keeps tier-2 wrappers performing every
    #: check — the ``tier1-noelide`` differential mode.
    elide: bool = True


class Engine:
    """One Hummingbird instance: type table, IR registry, cache, stats."""

    def __init__(self, config: Optional[EngineConfig] = None, *,
                 builtins: bool = True,
                 disable_caches: Optional[bool] = None):
        self.config = config or EngineConfig()
        if disable_caches is None:
            disable_caches = caches_disabled_by_env()
        #: the differential-soundness oracle: recompute every judgment.
        self.caches_disabled = disable_caches
        #: ``v : t`` for casts, the params check and generic-tier
        #: argument checks: compiled per type, except in the oracle,
        #: which walks the interpreted specification.
        self._conforms = value_conforms if disable_caches else conforms
        if disable_caches:
            self.config = dc_replace(self.config, caching=False,
                                     call_plans=False)
        #: the single writer lock: every mutation path (and every cold
        #: jit_check) serializes on it; warm reads never touch it.  It is
        #: re-entrant because mutations nest (annotate -> registry notify
        #: -> invalidate) and is *shared* with the registry and hierarchy
        #: so direct mutations of either serialize with engine mutations.
        self.write_lock = threading.RLock()
        self.hier = default_hierarchy()
        self.hier.lock = self.write_lock
        if disable_caches:
            self.hier.memo_enabled = False
        self.types = TypeRegistry()
        self.types.lock = self.write_lock
        self.cfgs = CFGRegistry()
        if disable_caches:
            self.cfgs.memo_enabled = False
        self.cache = CheckCache()
        self.stats = Stats()
        self.checker = Checker(self)
        #: the per-thread counter shard (``_tls.counters``), which also
        #: carries the checked-frame slot.
        self._tls = self.stats.tls
        self._app_classes: Dict[str, type] = {}
        #: names mid-registration (guarded by write_lock); membership in
        #: _app_classes is deferred until registration completes.
        self._registering: Set[str] = set()
        self._pending_wraps: Set[Tuple[str, str, str]] = set()
        #: warm call-site inline caches; None disables the fast path.
        self._plans: Optional[CallPlanCache] = (
            CallPlanCache() if self.config.call_plans else None)
        #: the clamped promotion threshold — the single source the
        #: specializer's full/re-warm thresholds derive from.
        self._spec_threshold: int = max(1, self.config.specialize_threshold)
        #: tier-2 specializer; None keeps every site on the generic
        #: wrapper (config off, env off, plans off, or oracle mode).
        self._specializer: Optional[Specializer] = None
        if (self._plans is not None and self.config.specialize
                and not specialize_disabled_by_env()):
            self._specializer = Specializer(self)
            # Deopt hook: any wave that drops a plan swaps the generic
            # wrapper back in before the wave returns.
            self._plans.on_drop = self._specializer.deoptimize_keys
        #: elision stage, consulted by the specializer at promotion
        #: time; None compiles tier-2 wrappers with every check intact.
        self._elider: Optional[Elider] = None
        if (self._specializer is not None and self.config.elide
                and not elide_disabled_by_env()):
            self._elider = Elider(self)
        self._contracts: Dict = {}  # populated by rdl.wrap pre/post hooks
        self.types.on_change(self._on_type_change)
        self.hier.on_change(self._on_hier_change)
        if builtins:
            install_builtins(self)

    # -- public API surface ---------------------------------------------------

    def api(self):
        """A bound annotation helper (``hb = engine.api()``)."""
        from .annotations import Api
        return Api(self)

    def stats_snapshot(self) -> dict:
        """The :meth:`Stats.snapshot` dict: one key per ``COUNTERS`` row
        plus Table 1's views."""
        return self.stats.snapshot()

    # -- class registration -----------------------------------------------------

    def register_class(self, pycls: type, *, module: bool = False) -> str:
        """Record a host class in the hierarchy.

        The first base is the superclass; remaining bases are treated as
        mixins (Ruby ``include``).  Classes marked ``__hb_module__`` are
        modules.
        """
        name = pycls.__name__
        # Lock-free fast path: safe because _register_class_locked
        # publishes into _app_classes *last*, after the hierarchy entry
        # and mixin edges exist — membership implies fully registered.
        if name in self._app_classes:
            return name
        with self.write_lock:
            return self._register_class_locked(pycls, name, module)

    def _register_class_locked(self, pycls: type, name: str,
                               module: bool) -> str:
        if name in self._app_classes:  # lost the registration race
            return name
        if name in self._registering:  # re-entrant cycle guard
            return name
        self._registering.add(name)
        try:
            bases = [b for b in pycls.__bases__ if b is not object]
            for base in bases:
                self.register_class(base)
            # Module-ness must not be inherited: a class mixing a module
            # in is still a class, so consult the class's own __dict__
            # only.
            is_module = module or bool(pycls.__dict__.get("__hb_module__"))
            if is_module:
                self.hier.add_module(name)
            else:
                supers = [b for b in bases
                          if not b.__dict__.get("__hb_module__")]
                parent = supers[0].__name__ if supers else "Object"
                if not self.hier.is_known(name):
                    self.hier.add_class(name, parent)
            for base in bases:
                if base.__dict__.get("__hb_module__"):
                    self.hier.include_module(name, base.__name__)
            # Publish only now: a concurrent thread that sees the class
            # in _app_classes may immediately resolve signatures through
            # its (complete) linearization.
            self._app_classes[name] = pycls
        finally:
            self._registering.discard(name)
        self._rewrap_pending(name)
        return name

    def host_class(self, name: str) -> Optional[type]:
        return self._app_classes.get(name)

    def lookup_callable(self, owner: str, name: str, kind: str = INSTANCE):
        """The unwrapped callable for ``owner#name`` (MRO walk, wrappers
        stripped), or None.  The warm-state snapshot restore uses this to
        re-promote a site eagerly without a live receiver in hand."""
        pycls = self._app_classes.get(owner)
        if pycls is None:
            return None
        return _find_callable(pycls, name, kind)

    # -- annotation --------------------------------------------------------------

    def annotate(self, owner, name: str, sig, *, kind: str = INSTANCE,
                 check: bool = False, generated: bool = False,
                 app_level: bool = True, wrap: bool = True,
                 fn=None) -> MethodSig:
        """Execute a type annotation: record the signature now, and wrap the
        method so calls are intercepted.

        ``owner`` may be a host class or a class name.  There is no
        ordering requirement between annotation and definition — if the
        method does not exist yet, wrapping happens at definition time
        (:meth:`define_method`), exactly like the formalism's independent
        ``type`` and ``def`` expressions.
        """
        with self.write_lock:
            return self._annotate_locked(owner, name, sig, kind=kind,
                                         check=check, generated=generated,
                                         app_level=app_level, wrap=wrap,
                                         fn=fn)

    def _annotate_locked(self, owner, name: str, sig, *, kind: str,
                         check: bool, generated: bool, app_level: bool,
                         wrap: bool, fn) -> MethodSig:
        pycls = owner if isinstance(owner, type) else self._app_classes.get(
            owner)
        owner_name = owner.__name__ if isinstance(owner, type) else owner
        if wrap and self.config.intercept and pycls is not None:
            # Refuse staticmethod slots *before* touching the registry:
            # recording a signature that the raise below would then
            # leave uninterceptable (and, for check=True, unenforced)
            # is exactly the silent soundness hole the refusal exists
            # to close.  wrap_method raises the same error for callers
            # that reach it directly.
            def_cls = _staticmethod_slot(pycls, name)
            if def_cls is not None:
                from ..rdl.wrap import staticmethod_refusal
                raise staticmethod_refusal(def_cls.__name__, name)
        if pycls is not None:
            self.register_class(pycls)
        elif not self.hier.is_known(owner_name):
            self.hier.add_class(owner_name)
        existing = self.types.lookup(owner_name, name, kind)
        arms_before = len(existing.arms) if existing is not None else 0
        version = self.types.version
        entry = self.types.add(owner_name, name, sig, kind=kind, check=check,
                               generated=generated)
        if len(entry.arms) != arms_before:
            # "Adding the same type again is harmless" — duplicates are
            # dropped by the registry and not double-counted here (a
            # duplicate arm that merely upgrades check= bumps the table
            # version for invalidation but is not a new annotation).
            self.stats.record_annotation(check=check, generated=generated,
                                         app_level=app_level,
                                         key=(owner_name, name))
        if wrap and self.config.intercept:
            target = fn
            if target is None and pycls is not None:
                target = _find_callable(pycls, name, kind)
            if pycls is None or target is None:
                self._pending_wraps.add((owner_name, name, kind))
            elif (self.types.version == version
                  and self._wrapper_current(pycls, name, kind, target,
                                            entry.check)):
                # "Adding the same type again is harmless": nothing to
                # re-lower, and re-wrapping would only throw away the
                # slot's specialization.
                self._pending_wraps.discard((owner_name, name, kind))
            else:
                self._install_wrapper(pycls, name, kind, target)
        return entry

    def field_type(self, owner, field_name: str, type_text) -> None:
        """Record an instance-field type (Fig. 3's ``field_type``)."""
        with self.write_lock:
            owner_name = owner.__name__ if isinstance(owner, type) else owner
            if isinstance(owner, type):
                self.register_class(owner)
            self.types.add_field(owner_name, field_name, type_text)

    def define_method(self, owner: type, name: str, fn, *, sig=None,
                      kind: str = INSTANCE, check: bool = False,
                      generated: bool = False, source: Optional[str] = None
                      ) -> None:
        """The formalism's ``def A.m``: (re)define a method at run time.

        Installs ``fn`` on the class, registers its IR if it will be
        statically checked, and wraps it if it has a signature; a changed
        lowering invalidates the cache (:meth:`_install_wrapper`, the IR
        diff used by dev-mode reloading).
        """
        with self.write_lock:
            self.register_class(owner)
            owner_name = owner.__name__
            if source is not None:
                fn.__hb_source__ = source
            old = self.cfgs.lookup(owner_name, name)
            setattr(owner, name, classmethod(fn) if kind == CLASS else fn)
            if sig is not None:
                self.annotate(owner, name, sig, kind=kind, check=check,
                              generated=generated, fn=fn)
            else:
                existing = self.types.lookup(owner_name, name, kind)
                if existing is not None:
                    self._install_wrapper(owner, name, kind, fn)
            if (old is not None and self.cfgs.lookup(owner_name, name) is old
                    and not self.cfgs.is_current(owner_name, name, fn)):
                # An unchecked slot keeps whatever IR was lowered from
                # the body this definition just replaced; a later
                # check must never read it.
                self.cfgs.forget(owner_name, name)
                self.invalidate(owner_name, name)

    def method_removed(self, owner_name: str, name: str) -> None:
        """Ruby's ``method_removed`` hook: drop IR and invalidate."""
        with self.write_lock:
            self.cfgs.forget(owner_name, name)
            self.invalidate(owner_name, name)

    # -- signature resolution -------------------------------------------------------

    def resolve_sig(self, owner: str, name: str, kind: str = INSTANCE,
                    trace: Optional[List[Resource]] = None
                    ) -> Optional[Tuple[str, MethodSig]]:
        """Look up a signature through the ancestor linearization.

        With ``trace``, every resource the walk consulted is appended:
        the owner's linearization and each probed signature slot —
        *including negative probes*, so a signature later appearing on a
        closer ancestor invalidates plans that resolved past its slot.
        A slot is kind-less: every signature wave drops both kinds.
        """
        if not self.hier.is_known(owner):
            if trace is not None:
                trace.append(lin_resource(owner))
                trace.append(sig_resource(owner, name))
            sig = self.types.lookup(owner, name, kind)
            return (owner, sig) if sig is not None else None
        if trace is not None:
            trace.append(lin_resource(owner))
        for ancestor in self.hier.ancestors(owner):
            if trace is not None:
                trace.append(sig_resource(ancestor, name))
            sig = self.types.lookup(ancestor, name, kind)
            if sig is not None:
                return ancestor, sig
        return None

    # -- the JIT protocol -------------------------------------------------------------

    def invoke(self, def_owner: str, name: str, kind: str, fn, recv,
               args: tuple, kwargs: dict):
        """Intercepted call path (the (EApp*) rules).

        ``def_owner`` is the class the wrapped function was found on;
        the *receiver's* class keys the cache, so module methods mixed into
        several classes are checked separately per class (section 4).

        Warm call sites take the *fast path*: a
        :class:`~repro.core.plans.CallPlan` built by a previous cold call
        (:meth:`_plan_call`) replays the resolved dispatch decision, so
        the steady state is a dict hit plus (at most) an argument-profile
        check instead of signature resolution + jit_check.  Warm and
        cold calls then share one tail: the section 4 boundary test, the
        checked frame, the real call.  Hot plans are
        further promoted to tier 2 — a specialized per-site wrapper that
        bypasses this method entirely until deoptimized (specialized
        wrappers re-enter here only on guard failure, so this path also
        serves as their fallback).  There are no
        version guards and no check-cache probe: the dependency graph
        flushed the plan *eagerly* if anything it resolved through
        changed, and every removal of a check entry (a wave, or
        :meth:`recheck`) drops the plans replaying it in the same step.
        """
        c = self._tls.counters
        c.calls_intercepted += 1
        if kind == CLASS:
            owner = recv.__name__ if isinstance(recv, type) else \
                class_name_of(recv)
        else:
            owner = class_name_of(recv)
        key = (def_owner, owner, name, kind)
        spec = self._specializer
        plans = self._plans
        plan = plans.get(key) if plans is not None else None
        if plan is not None:
            c.fast_path_hits += 1
            if plan.checked:
                c.cache_hits += 1
            if spec is not None and not plan.promoted:
                # Tiering: count warm hits; at the plan's threshold (the
                # global default, or the specializer's reduced
                # re-promotion threshold stamped at plan build), try to
                # compile this plan into a per-site wrapper.  The racy
                # increment only ever delays the threshold.
                plan.hits = hits = plan.hits + 1
                if hits >= plan.promote_at:
                    spec.maybe_promote(key, plan, fn, recv)
        else:
            plan = self._plan_call(key, owner)
        sig = plan.sig
        prev = c.top
        if sig is not None:
            # Section 4: only a call from unchecked code checks its
            # arguments.
            if prev:
                c.dynamic_arg_checks_skipped += 1
            else:
                # Keyword calls skip the profile set: the full check
                # binds them onto the declared parameters.
                if plan.profile_eligible and not kwargs:
                    profile = tuple(map(type, args))
                    if profile not in plan.profiles:
                        self._dynamic_arg_check(sig, fn, recv, args, kwargs,
                                                owner, name, kind)
                        plan.learn_profile(profile)
                    elif spec is not None and not plan.promoted:
                        # Feed the dominant-profile pick; only while a
                        # promotion can still consume it, so
                        # pinned-tier-1 engines (and promoted sites) pay
                        # nothing.
                        plan.note_profile_hit(profile)
                else:
                    self._dynamic_arg_check(sig, fn, recv, args, kwargs,
                                            owner, name, kind)
                c.dynamic_arg_checks += 1
        c.top = plan.checked
        try:
            return fn(recv, *args, **kwargs)
        finally:
            c.top = prev

    def _plan_call(self, key: PlanKey, owner: str) -> CallPlan:
        """Cold call: resolve the signature, JIT-check the body, and build
        the call's plan along with the dependency edges the resolution
        consulted.

        The plan is stored unless plans are off or No$ mode re-checks
        every call (a stored plan would skip the re-check); then it
        serves this one call only.  Runs without the writer lock (only
        ``jit_check`` inside takes it), so the store is epoch-guarded:
        if any invalidation wave runs between the epoch snapshot below
        and the store, the plan is discarded — it may have resolved
        through a half-mutated world."""
        def_owner, _, name, kind = key
        plans = self._plans
        epoch = plans.epoch if plans is not None else 0
        trace: List[Resource] = []
        resolved = self.resolve_sig(owner, name, kind, trace=trace)
        if resolved is None:
            resolved = self.resolve_sig(def_owner, name, kind, trace=trace)
        sig_owner, sig = resolved if resolved is not None else (None, None)
        checked = sig is not None and sig.check
        if checked:
            self.jit_check((owner, name), sig, def_owner, kind,
                           sig_owner=sig_owner)
        plan = self._new_plan(key, sig_owner, sig, checked)
        if plans is not None and (self.config.caching or not checked):
            plans.store(key, plan, trace, epoch=epoch)
        return plan

    def _new_plan(self, key: PlanKey, sig_owner: Optional[str],
                  sig: Optional[MethodSig], checked: bool) -> CallPlan:
        """A fresh plan for ``key``, stamped with its promotion
        threshold: the global one, or the specializer's reduced
        re-promotion threshold for a site it saw deoptimize (cutting
        deopt-churn latency under reload)."""
        plan = CallPlan(sig_owner, sig, checked,
                        sig is not None and _profile_eligible(sig))
        spec = self._specializer
        plan.promote_at = (spec.promote_threshold(key) if spec is not None
                           else self._spec_threshold)
        return plan

    def jit_check(self, key: Key, sig: MethodSig, def_owner: str,
                  kind: str = INSTANCE,
                  sig_owner: Optional[str] = None) -> None:
        """Check ``key``'s body now unless a valid cached check exists.

        The stored entry's dependency set is extended beyond the (TApp)
        consultations with two explicit edges: the class the checked
        *body* lives on and the class the *signature* resolved to.  For a
        receiver-keyed entry (``key[0]`` a descendant), these are the
        ancestor-retype edges: redefining or retyping the ancestor now
        invalidates exactly the descendants that checked its body, which
        the per-key ``(owner, name)`` match alone would miss.

        Cold checks run under the writer lock, which gives invalidation
        atomicity for free: a mutation wave can never interleave between
        a derivation and the store of its dependency edges, and two
        threads racing to check the same cold body serialize (the loser
        re-reads the cache and returns a hit).
        """
        if self.config.caching and key in self.cache:
            self.stats.local().cache_hits += 1
            return
        with self.write_lock:
            # Double-checked: another thread may have completed this very
            # check while we waited for the lock.
            if self.config.caching and key in self.cache:
                self.stats.local().cache_hits += 1
                return
            self.stats.local().cache_misses += 1
            mir = self.cfgs.lookup(def_owner, key[1])
            mir_owner = def_owner
            if mir is None:
                mir = self.cfgs.lookup(key[0], key[1])
                mir_owner = key[0]
            if mir is None:
                # Lazy registration from the live callable: a method
                # defined while its signature was check=False has no
                # eagerly-registered CFG (_install_wrapper only registers
                # checked slots), and whether promotion registered it
                # since is a cache artifact the outcome must not depend
                # on (the cache-free oracle never promotes).
                for probe in (def_owner, key[0]):
                    live = self.lookup_callable(probe, key[1], kind)
                    if live is None:
                        continue
                    try:
                        mir = self.cfgs.register_function(probe, key[1],
                                                          live)
                        mir_owner = probe
                        break
                    except RegistrationError:
                        continue
            if mir is None:
                raise NoMethodBodyError(
                    f"{key[0]}#{key[1]} has a type signature but no method "
                    f"body is registered for checking")
            self_type: Type = (ClassObjectType(key[0]) if kind == CLASS
                               else NominalType(key[0]))
            # The body meets its arms as every caller's (TApp) reads
            # them, with ``self`` resolved to the receiver class.
            with self.hier.trace() as hier_reads:
                outcome = self.checker.check_method(
                    mir, sig.arms_for(key[0]), self_type)
            self.stats.record_static_check(key)
            self.stats.record_consulted(outcome.deps)
            for used in outcome.used_generated:
                self.stats.record_generated_use(used)
            self.stats.cast_sites |= outcome.cast_sites
            if self.config.caching:
                deps = set(outcome.deps)
                deps.add((mir_owner, key[1]))
                if sig_owner is not None:
                    deps.add((sig_owner, key[1]))
                    # The resolution walk's *negative* probes: every slot
                    # between the receiver and ``sig_owner`` was consulted
                    # and found empty.  A signature appearing later on a
                    # closer ancestor changes what this derivation should
                    # have checked against, so each walked-past slot is a
                    # dependency — exactly the edges the plan cache already
                    # records via its resolution trace.
                    hier_reads = set(hier_reads)
                    if self.hier.is_known(key[0]):
                        hier_reads.add(key[0])  # walk order = receiver lin
                        for anc in self.hier.ancestors(key[0]):
                            if anc == sig_owner:
                                break
                            deps.add((anc, key[1]))
                deps.discard(key)  # the entry records its own slot
                self.cache.store(key, deps, outcome.field_deps, hier_reads)

    def check_method_now(self, owner, name: str,
                         kind: str = INSTANCE) -> None:
        """Force a JIT check without calling the method (used by tests and
        the historical-error harness)."""
        owner_name = owner.__name__ if isinstance(owner, type) else owner
        resolved = self.resolve_sig(owner_name, name, kind)
        if resolved is None:
            raise TypeSignatureError(f"{owner_name}#{name} has no signature")
        sig_owner, sig = resolved
        self.jit_check((owner_name, name), sig, sig_owner, kind,
                       sig_owner=sig_owner)

    # -- dynamic checks ------------------------------------------------------------------

    def _dynamic_arg_check(self, sig: MethodSig, fn, recv, args, kwargs,
                           owner: str, name: str, kind: str) -> None:
        values = _positional_view(fn, recv, args, kwargs)
        for arm in sig.arms_for(owner):
            checked = values
            if (arm.block is not None and checked
                    and callable(checked[-1])
                    and not arm.accepts_arity(len(checked))):
                # The code block is passed as the final host parameter;
                # higher-order checks are skipped (section 4).
                checked = checked[:-1]
            if not arm.accepts_arity(len(checked)):
                continue
            if all(self._value_ok(v, arm.param_type_at(i))
                   for i, v in enumerate(checked)):
                return
        raise ArgumentTypeError(
            f"{owner}#{name} called with "
            f"({', '.join(type(v).__name__ for v in values)}), which "
            f"matches no signature arm of {sig.arms}")

    def _value_ok(self, value, expected: Optional[Type]) -> bool:
        if expected is None:
            return False
        if callable(value) and not isinstance(value, type):
            # Higher-order contract checks are not implemented (section 4:
            # "simply assumes code block arguments are type safe").
            return True
        return self._conforms(value, expected, self.hier)

    def cast(self, value, type_text: str):
        """``rdl_cast``: dynamic conformance check, returns the value.

        For arrays/hashes the check iterates through elements, as described
        in section 4.
        """
        t = parse_type(type_text)
        self._tls.counters.casts += 1
        if not self._conforms(value, t, self.hier):
            raise CastError(
                f"value {value!r} does not conform to {type_text}")
        return value

    def validate_untrusted_hash(self, h: dict, type_text: str) -> None:
        """Dynamic check for untrusted inputs (the Rails ``params`` hash is
        always checked, section 4)."""
        t = parse_type(type_text)
        if not self._conforms(h, t, self.hier):
            raise ArgumentTypeError(
                f"untrusted hash {h!r} does not conform to {type_text}")

    # -- invalidation ----------------------------------------------------------------------

    def invalidate(self, owner: str, name: str) -> Set[Key]:
        """Definition 1 for ``owner#name``: the signature wave.

        Per-key throughout: the check cache drops the keyed entry plus
        the entries whose derivations consulted it; call plans fall only
        if they resolved through ``owner``'s signature slot or replay a
        derivation the wave just removed.  Plans for other methods — and
        for the same method name on unrelated classes — stay warm.
        Definition 2 needs no step: every surviving entry is valid under
        the new table.
        """
        key = (owner, name)
        with self.write_lock:
            removed = self._wave([sig_resource(owner, name)])
            self.stats.retype_edge_invalidations += len(removed - {key})
            return removed

    def recheck(self, owner: str, name: str) -> None:
        """The Rails helper quirk (Table 2): re-check ``owner#name`` at
        its next call but keep its dependents' entries.  Drops the one
        entry and runs only the plan half of a wave, on its
        ``("sig", owner, name)`` slot, so the plans and wrappers
        replaying it fall in the same step."""
        with self.write_lock:
            self.cache.discard((owner, name))
            if self._plans is not None:
                self.stats.plan_invalidations += self._plans.invalidate(
                    [sig_resource(owner, name)])

    def _on_type_change(self, owner: str, name: str, kind: str) -> None:
        # Fired by the registry while it holds the shared writer lock
        # (acquiring it again here is a no-op re-entry, but keeps the
        # invariant visible if a future registry drops the sharing).
        with self.write_lock:
            if kind != "field":
                self.invalidate(owner, name)
                return
            removed = self._wave([field_resource(owner, name)])
            self.stats.retype_edge_invalidations += len(removed)

    def _on_hier_change(self, affected: FrozenSet[str]) -> None:
        """A structural hierarchy mutation changed exactly ``affected``
        classes' linearizations: drop the check-cache entries whose
        derivations consulted them and the plans that resolved through
        them.  A new leaf class affects only itself, so warm caches for
        everything else survive (the dev-mode reload win)."""
        with self.write_lock:
            removed = self._wave([lin_resource(cls) for cls in affected])
            self.stats.hier_edge_invalidations += len(removed)

    def _wave(self, resources: List[Resource]) -> Set[Key]:
        """One mutation's invalidation: drop the check entries that read
        any of ``resources``, then the plans that read them or replay a
        dropped entry.  Called under the writer lock; returns the
        dropped check-cache keys.  The plan wave bumps the epoch even
        when nothing drops, so in-flight plan builds discard rather than
        memoize against the pre-mutation world.  A wave whose resources
        nothing read (an annotation of a method not checked or planned
        yet, most waves of a bring-up) skips both graph passes."""
        removed: Set[Key] = set()
        if self.cache.reads_any(resources):
            removed = self.cache.invalidate(resources)
            self.stats.invalidations += len(removed)
            resources = resources + [sig_resource(*key) for key in removed]
        if self._plans is not None:
            self.stats.plan_invalidations += self._plans.invalidate(
                resources)
        return removed

    # -- wrapping ---------------------------------------------------------------------------

    def _install_wrapper(self, pycls: type, name: str, kind: str,
                         fn) -> None:
        """Lower ``fn`` for a checked signature and wrap it.  A lowering
        that differs from the registered one (body, parameters or
        closure-capture types), or fails, runs the signature wave, so no
        cached verdict outlives the body it judged."""
        owner = pycls.__name__
        sig = self.types.lookup(owner, name, kind)
        changed = False
        if sig is not None and sig.check:
            old = self.cfgs.lookup(owner, name)
            try:
                new = self.cfgs.register_function(owner, name, fn)
            except RegistrationError:
                # Surfaces as NoMethodBodyError at first call; the old
                # body's IR must not stand in for it.
                self.cfgs.forget(owner, name)
                new = None
            changed = old is not None and (new is None
                                           or bodies_differ(old, new))
        if self.config.intercept:
            wrap_method(self, pycls, name, kind=kind, fn=fn)
        self._pending_wraps.discard((owner, name, kind))
        if changed:
            self.invalidate(owner, name)

    def _wrapper_current(self, pycls: type, name: str, kind: str, fn,
                         checked: bool) -> bool:
        """True when ``_install_wrapper(pycls, name, kind, fn)`` would
        change nothing: the slot along the MRO already holds this
        engine's wrapper (generic or specialized) of ``kind`` around
        ``fn``, and for a ``checked`` signature the registered IR is
        ``fn``'s with its closure captures unchanged."""
        raw = next((klass.__dict__[name] for klass in pycls.__mro__
                    if name in klass.__dict__), None)
        inner = raw.__func__ if isinstance(raw, classmethod) else raw
        if (getattr(inner, "__hb_engine__", None) is not self
                or getattr(inner, "__hb_original__", None) is not fn
                or getattr(inner, "__hb_kind__", None) != kind):
            return False
        return not checked or self.cfgs.is_current(pycls.__name__, name, fn)

    def _rewrap_pending(self, owner_name: str) -> None:
        pycls = self._app_classes.get(owner_name)
        if pycls is None:
            return
        for pending in [p for p in self._pending_wraps
                        if p[0] == owner_name]:
            _, name, kind = pending
            def_cls = _staticmethod_slot(pycls, name)
            if def_cls is not None:
                # A deferred annotation (recorded before the class
                # existed) resolved onto a staticmethod slot.  Raising
                # here would abort register_class after the hierarchy
                # mutation already happened and leave the pending entry
                # to re-trip, so warn instead — loudly naming the
                # signature that will never be enforced — and drop the
                # pending wrap.  Direct annotation paths raise.
                from ..rdl.wrap import staticmethod_refusal
                self._pending_wraps.discard(pending)
                warnings.warn(
                    f"annotation will not be enforced: "
                    f"{staticmethod_refusal(def_cls.__name__, name)}",
                    RuntimeWarning, stacklevel=2)
                continue
            fn = _find_callable(pycls, name, kind)
            if fn is not None:
                self._install_wrapper(pycls, name, kind, fn)


def _profile_eligible(sig: MethodSig) -> bool:
    """True when a passing argument-class tuple is a sound inline-cache
    guard for ``sig``: no block arms (whose callable-trimming depends on
    arity juggling) and every parameter type class-determined."""
    for arm in sig.arms:
        if arm.block is not None:
            return False
        for p in arm.params:
            if not is_class_determined(p.ty):
                return False
    return True


def _staticmethod_slot(pycls: type, name: str) -> Optional[type]:
    """The class along ``pycls``'s MRO whose ``name`` slot holds a
    staticmethod, or None — the interception-refusal probe."""
    for klass in pycls.__mro__:
        if name in klass.__dict__:
            return klass if isinstance(klass.__dict__[name],
                                       staticmethod) else None
    return None


def _find_callable(pycls: type, name: str, kind: str):
    """The raw function for ``name`` along the MRO, unwrapping descriptors
    and previously-installed wrappers."""
    for klass in pycls.__mro__:
        if name in klass.__dict__:
            raw = klass.__dict__[name]
            if isinstance(raw, (classmethod, staticmethod)):
                raw = raw.__func__
            original = getattr(raw, "__hb_original__", None)
            if original is not None:
                return original
            return raw if callable(raw) else None
    return None


def _positional_view(fn, recv, args: tuple, kwargs: dict) -> list:
    """Flatten a call's arguments into declared positional order so each
    value lines up with the signature's parameter list."""
    if not kwargs:
        return list(args)
    try:
        bound = inspect.signature(fn).bind(recv, *args, **kwargs)
    except (TypeError, ValueError):
        return list(args) + list(kwargs.values())
    # Fill *gaps* only — defaulted parameters the call skipped before a
    # later named one (f(x, y=2, z=3) called as f(1, z=5)): without the
    # default in y's slot, z's value would slide into it and be checked
    # against y's type.  Trailing defaults the call never reached stay
    # out of the view, so a fixed-arity signature arm still matches
    # calls that simply omit them.
    values = []
    pending = []  # defaulted slots not yet known to precede a bound one
    params = list(bound.signature.parameters.values())[1:]  # drop self
    for param in params:
        if param.name not in bound.arguments:
            if param.default is not inspect.Parameter.empty:
                pending.append(param.default)
            continue
        got = bound.arguments[param.name]
        if param.kind == inspect.Parameter.VAR_POSITIONAL:
            if got:
                values.extend(pending)
                pending.clear()
                values.extend(got)
        elif param.kind == inspect.Parameter.VAR_KEYWORD:
            if got:
                values.extend(pending)
                pending.clear()
                values.append(got)
        else:
            values.extend(pending)
            pending.clear()
            values.append(got)
    return values

"""Tier-2 specialization — compiling warm call plans into per-site wrappers.

Tier 1 (:mod:`repro.core.plans`) made the steady state "a guard plus a
cache hit", but that guard is interpreted Python in ``Engine.invoke``:
build the plan key, run ``class_name_of``, fetch thread-locals, decide
the boundary argument check, save/set/restore the checked-frame slot.
Lazy basic block versioning (Chevalier-Boisvert & Feeley) and
"Transient Typechecks are (Almost) Free" (Roberts et al.) both observe
that type guards only become near-free *compiled into the call site*.
This module is that move for the CPython substrate.

**Promotion.**  Once a :class:`~repro.core.plans.CallPlan` has served
``plan.promote_at`` warm hits (the engine's ``specialize_threshold``,
or the reduced re-promotion threshold for sites that deopted before),
the :class:`Specializer` generates a wrapper function specialized to
exactly that plan: the receiver-class identity guard, the
dominant argument-profile test, the plan's liveness flag and the
checked-frame save/restore are emitted as straight-line code,
``exec``-ed into a fresh namespace per site (compiled once per distinct
text, process wide), closing over the original function, the plan and
the engine's per-thread state.  ``rdl.wrap``'s generic wrapper is then
atomically displaced: one ``setattr`` rebinds the class attribute, so
promotion needs no cooperation from in-flight calls.

**One shape per site.**  A promoted slot compiles exactly one shape: one
receiver class and positional calls of one arity when the site fixes
it (the elided arity, the dominant profile's, or the function's own).
Such a wrapper mirrors the signature, ``(recv, a0=_M, ..., /, *rest,
**kwargs)``, so a warm call builds no argument tuple.  Keyword calls,
other arities and other receiver classes take the generic tier, which
binds them through the full dynamic check.  No benchmark workload
(each past warm-up, seed 1) made a keyword call through an intercepted
method or grew a second hot receiver class on a promoted slot, so
compiled versions for those shapes would be guards no call runs.

**Counters by derivation.**  Each call bumps one slot of its thread's
counter shard, named by its shape (plan checked or not, argument
branch, argument test omitted or not).  ``Stats`` derives the totals
from the slots' contribution vectors (:data:`~repro.core.stats.SHAPES`), so a
wrapper reports what the generic tier would have, plus
``checks_elided``.

**Signature-fact elision.**  At promotion time the
:class:`~repro.core.elide.Elider` reads one fact off the plan, and the
codegen here **omits** the argument-profile test when some arm's parameter types are all vacuous
(only the arity is guarded).  The checked-frame save/restore is always
emitted.  The fact reads only the plan, so the plan's own dependency
edges deopt an elided site exactly like any other.  No wrapper probes
the check cache: every removal of a check entry drops the plans
replaying it, and with them their wrappers.

**Adaptive re-promotion.**  Deoptimizing a site records its plan key in
a bounded re-warm registry; when the plan is rebuilt, the engine stamps
it with the reduced threshold (``specialize_threshold // 4``), so
dev-mode reload churn re-reaches tier 2 in a fraction of the warmup
(``Stats.repromotions`` counts these).  Nothing rations the cycle: a
site that a reload storm deopts over and over re-promotes on every
lap, and since the wrapper code is memoized by text, each lap costs
one ``exec`` of already-compiled code, not a ``compile()``.

**Guard failure falls back, never raises.**  Any situation the
straight-line code does not cover — another receiver class, a keyword
call, another arity, an unseen argument-class tuple, a dropped plan —
bails into ``Engine.invoke`` *before touching any counter*, so the
generic tier observes exactly the call it would have seen without
specialization (including raising the right
``ArgumentTypeError`` and learning new profiles).  A specialized
wrapper is therefore a pure fast-path overlay: it can be wrong about
the future, never about the call it accepts.

**Deoptimization.**  Soundness rides the dependency machinery: a
specialized wrapper lives exactly as long as the plan it was compiled
from, and the site is recorded on that plan — its key, the class whose
slot it took, the slot values it displaced and installed, and its
elision verdict.  Everything that drops a plan (the engine's one
invalidation wave per mutation and ``Engine.recheck``, both
:meth:`~repro.core.plans.CallPlanCache.invalidate`; and
:meth:`~repro.core.plans.CallPlanCache.clear`) reports the dropped
plans through ``CallPlanCache.on_drop``, and the specializer puts each
promoted plan's displaced slot value back — one ``setattr``, guarded by
one identity test that the slot still holds the installed value —
*before the wave returns*.  So by the time a
mutation's caller regains control, no specialized code embodying the
pre-mutation world is reachable from the class.  Epoch
bumps that drop nothing (e.g. a field-type wave whose removal set is
empty) deoptimize nothing: a surviving plan's dependencies were, by
construction of the wave, untouched, so its compiled form is still
valid.  One further guard closes the remaining corner: a wrapper
admits a call only while its plan's ``live`` flag is set, which the
drop clears under the cache lock before ``on_drop`` fires.  Rebinding
the class attribute cannot reach bound methods hoisted before the swap;
the flag makes those references self-invalidating, so
deopt-by-rebinding is a performance recovery, never load-bearing for
soundness.

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
from inspect import CO_VARARGS
from types import CodeType
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from ..rdl.registry import CLASS
from .elide import _contract_blocks
from .plans import CallPlan, PlanKey
from .stats import shape_slot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Engine

#: divisor applied to ``specialize_threshold`` for the re-promotion
#: threshold of sites that deopted and re-warmed.
REWARM_DIVISOR = 4

#: bound on the re-warm registry: reload churn in a long-lived dev
#: server must not accumulate plan keys without limit.
_REWARM_MAX = 4096


def specialize_disabled_by_env() -> bool:
    """True when ``REPRO_DISABLE_SPECIALIZE`` forces tier-1-only mode."""
    return os.environ.get("REPRO_DISABLE_SPECIALIZE", "") not in (
        "", "0", "false", "no")


class Specializer:
    """The tier-2 compiler + deopt registry for one engine.

    A promoted site is its plan (:class:`~repro.core.plans.CallPlan`
    records the slot it took); the registry maps each promoted
    ``(class, name)`` slot to that plan, so a slot compiles one shape.

    Locking: the site registry is touched only under the engine's
    writer lock, so it keeps no lock of its own.  :meth:`maybe_promote`
    takes it; deopts arrive from plan drops, which happen only in waves,
    ``Engine.recheck`` and the warm-state rollback, all under it; and
    ``wrap_method``/``unwrap_method`` hold it around
    :meth:`discard_slot`.
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        #: (class, method name) -> the plan whose wrapper holds the slot.
        self._sites: Dict[Tuple[type, str], CallPlan] = {}
        #: plan keys whose sites were deoptimized at least once — these
        #: re-promote at the reduced threshold.  Bounded; read lock-free
        #: on the cold plan-build path, mutated under the writer lock.
        self._rewarm: Dict[PlanKey, bool] = {}
        # The engine's clamped threshold is the single source of truth;
        # re-deriving the clamp here would let the two drift.
        threshold = engine._spec_threshold
        self._threshold = threshold
        self._rewarm_threshold = max(1, threshold // REWARM_DIVISOR)

    def __len__(self) -> int:
        """Live promoted sites."""
        return len(self._sites)

    def promote_threshold(self, key: PlanKey) -> int:
        """The per-site promotion threshold the engine stamps onto a
        freshly built plan: reduced for sites that deopted before (so
        reload churn re-reaches tier 2 quickly), full otherwise.  A key
        evicted from the bounded registry pays the full threshold
        again."""
        return (self._rewarm_threshold if key in self._rewarm
                else self._threshold)

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
        plan.promoted = True
        engine = self.engine
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
        # Contract registration, waves and slot rebinds serialize on the
        # writer lock, so what is checked here holds through the install.
        with engine.write_lock:
            if _contract_blocks(engine, name):
                return False  # contracts only run in the generic wrapper
            if not plan.live:
                return False  # a wave dropped the plan while we raced here
            raw = def_cls.__dict__.get(name)
            inner = raw.__func__ if isinstance(raw, classmethod) else raw
            # Only displace the current-generation generic wrapper for
            # this very function: a stale fn, a foreign wrapper or a slot
            # that is already specialized refuses.
            if (inner is None or getattr(inner, "__hb_specialized__", False)
                    or getattr(inner, "__hb_original__", None) is not fn
                    or (def_cls, name) in self._sites):
                return False
            elider = engine._elider
            elision = (elider.analyze(key, plan)
                       if elider is not None else None)
            wrapper = _compile_wrapper(engine, key, guard_cls, plan, fn,
                                       elision)
            plan.key, plan.slot_cls, plan.elision = key, def_cls, elision
            plan.displaced = raw
            plan.installed = (classmethod(wrapper)
                              if isinstance(raw, classmethod) else wrapper)
            setattr(def_cls, name, plan.installed)
            self._sites[(def_cls, name)] = plan
            stats = engine.stats
            stats.promotions += 1
            if key in self._rewarm:
                stats.repromotions += 1
            if elision is not None:
                stats.elide_promotions += 1
        return True

    # -- deoptimization -----------------------------------------------------

    def deoptimize_keys(self, plans: Iterable[CallPlan]) -> int:
        """Restore the slot value each promoted plan in ``plans``
        displaced (``CallPlanCache.on_drop`` reports dropped plans).

        Only sites whose compiled code still held the slot are restored
        and counted (through ``Stats.deopts``): a slot rebound behind
        the specializer's back must neither be clobbered with a
        resurrected wrapper nor counted as a deopt.
        """
        displaced = elided = 0
        for plan in plans:
            installed = self._unseat(plan)
            if installed is None:
                continue
            name = plan.key[2]
            if plan.slot_cls.__dict__.get(name) is not installed:
                # A direct setattr bypassing wrap/unwrap rebound the
                # slot: the compiled code is already unreachable from
                # the class.  Restore nothing, count nothing.
                continue
            displaced += 1
            if plan.elision is not None:
                elided += 1
            setattr(plan.slot_cls, name, plan.displaced)
        if displaced:
            self.engine.stats.deopts += displaced
        if elided:
            self.engine.stats.elide_deopts += elided
        return displaced

    def deoptimize_all(self) -> int:
        """Deoptimize every promoted site (contract registration, tests)."""
        return self.deoptimize_keys(tuple(self._sites.values()))

    def discard_slot(self, def_cls: type, name: str) -> None:
        """Forget (without restoring) the site watching ``def_cls.name``.

        Called by ``wrap_method``/``unwrap_method`` just before they
        rebind the slot themselves: the displaced generic wrapper is
        obsolete, so restoring it later would resurrect a superseded
        function.  The rebind displaces the compiled wrapper, so it
        counts as a deopt and its key enters the re-warm registry.
        """
        plan = self._sites.get((def_cls, name))
        if plan is None:
            return
        self._unseat(plan)
        stats = self.engine.stats
        stats.deopts += 1
        if plan.elision is not None:
            stats.elide_deopts += 1

    def _unseat(self, plan: CallPlan):
        """Take ``plan``'s site out of the registry, grant its key the
        re-warm threshold and return the slot value the promotion
        installed; None when the plan has no site."""
        installed = plan.installed
        if installed is None:
            return None
        plan.installed = None
        del self._sites[(plan.slot_cls, plan.key[2])]
        self._note_rewarm(plan.key)
        return installed

    def _note_rewarm(self, key: PlanKey) -> None:
        """Grant ``key`` the reduced re-promotion threshold, evicting
        the least-recently-deopted entry at the bound — never the whole
        registry, which would forget every discount at once and trigger
        a synchronized full-threshold re-promotion wave.  Caller holds
        the writer lock."""
        rewarm = self._rewarm
        if key in rewarm:
            del rewarm[key]  # re-insert below: dict order is recency
        elif len(rewarm) >= _REWARM_MAX:
            del rewarm[next(iter(rewarm))]
        rewarm[key] = True

    def promoted_sites(self):
        """Every promoted site's plan — the warm-state tests read this
        to see which sites a warm start re-promoted."""
        return list(self._sites.values())


#: synthetic filename stem for compiled wrappers (visible in tracebacks).
_CODEGEN_FILE = "<hb-specialized {owner}#{name}>"

#: wrapper source text -> its compiled module code, process wide.  The
#: text depends only on the site's shape (checked or not, argument
#: branch, arity, argument test elided or not, dominant profile
#: length), so a handful of texts serve every promotion in the process
#: and a promotion pays for an ``exec`` instead of a ``compile``.  The
#: site's name is stamped on each wrapper's own code object afterwards.
#: FIFO-bounded; reads are plain gets, stores take the leaf lock.
_CODE_MEMO: Dict[str, CodeType] = {}
_CODE_MEMO_MAX = 256
_CODE_MEMO_LOCK = threading.Lock()


def _wrapper_code(source: str) -> CodeType:
    """``compile(source)``, memoized by source text."""
    code = _CODE_MEMO.get(source)
    if code is None:
        code = compile(source, "<hb-specialized>", "exec")
        with _CODE_MEMO_LOCK:
            while len(_CODE_MEMO) >= _CODE_MEMO_MAX:
                del _CODE_MEMO[next(iter(_CODE_MEMO))]
            _CODE_MEMO[source] = code
    return code


#: a fixed-arity wrapper's parameter default: that argument was not passed.
_M = object()


def _passed(head: tuple, rest: tuple) -> tuple:
    """The positional arguments a fixed-arity wrapper was called with:
    ``head`` up to its first :data:`_M` (positional-only parameters fill
    left to right), then the surplus ``rest``."""
    for j, arg in enumerate(head):
        if arg is _M:
            return head[:j]
    return head + rest


def _tuple(items: list) -> str:
    """Source text of a tuple display of ``items``."""
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


def _compile_wrapper(engine: "Engine", key: PlanKey, guard_cls: type,
                     plan: CallPlan, fn, el: Optional[int]):
    """``exec``-compile the straight-line wrapper for one promoted site.

    The emitted code is the tier-1 warm path partially evaluated against
    the site's plan: every branch the plan decides is resolved at
    compile time, every engine attribute chase becomes a closed-over
    local, and each call bumps the one shard slot whose contribution
    vector is what the generic path would have counted (the
    stats-exactness suite runs with promotion active).  One ``and``
    chain admits a call (receiver class, arity, plan liveness); anything
    else bails to the generic tier with the exact arguments it was
    given.  The parameters are positional-only, so a keyword of any name
    lands in ``kwargs`` and bails.  Under an elision verdict the argument
    test is *not emitted*; the shape slot still names the branch taken.
    """
    def_owner, _, name, kind = key
    sig, checked, elided = plan.sig, plan.checked, int(el is not None)
    dominant = (plan.dominant_profile()
                if sig is not None and plan.profile_eligible else None)
    arity = _site_arity(fn, el, dominant)
    guard = ["recv is _cls0" if kind == CLASS else "type(recv) is _cls0"]
    if arity is None:  # no fixed arity: keep the re-splat
        names, params = ["*args"], ["/", "*args"]
        args = passed = "args"
        types = "tuple(map(type, args))"
        guard.append("not kwargs")
    else:  # another arity, or a keyword, binds in the generic tier
        names = [f"a{j}" for j in range(arity)]
        params = [f"{a}=_M" for a in names] + ["/", "*rest"]
        args = _tuple(names)
        passed = f"_passed({args}, rest)"
        types = _tuple([f"type({a})" for a in names])
        guard.append("not rest and not kwargs")
        if names:  # a short call; the skip branch tests no argument
            guard.append(f"{names[-1]} is not _M")
    # A bound method hoisted before a deopt still reaches this code: it
    # must not replay a dropped plan's assumptions.
    guard.append("_plan0.live")
    bail = (f"return _invoke(_def_owner, _name, _kind, _fn, recv, {args}, "
            "kwargs)")
    ns: dict = {"_fn": fn, "_tls": engine._tls, "_invoke": engine.invoke,
                "_def_owner": def_owner, "_name": name, "_kind": kind,
                "_cls0": guard_cls, "_plan0": plan, "_M": _M,
                "_passed": _passed}
    body = ["c = _tls.counters", "prev = c.top"]
    if sig is None:
        body.append(f"c.{shape_slot(checked, 'nosig', elided)} += 1")
    else:
        # Every matching parameter type vacuous: only the arity, guarded
        # above, needed checking.
        test = [] if el is not None else \
            _profile_test_lines(plan, dominant, names, types, bail, ns)
        body += [
            "if prev:",
            f"    c.{shape_slot(checked, 'skip', elided)} += 1",
            "else:",
            *["    " + ln for ln in test],
            f"    c.{shape_slot(checked, 'args', elided)} += 1",
        ]
    body += [f"c.top = {checked}", "try:",
             f"    return _fn({', '.join(['recv', *names])})",
             "finally:", "    c.top = prev"]
    source = "\n".join([
        f"def _specialized({', '.join(['recv', *params, '**kwargs'])}):",
        f"    if {' and '.join(guard)}:",
        *["        " + ln for ln in body],
        f"    return _invoke(_def_owner, _name, _kind, _fn, recv, {passed}, "
        "kwargs)"]) + "\n"
    exec(_wrapper_code(source), ns)  # noqa: S102
    wrapper = ns["_specialized"]
    wrapper.__code__ = wrapper.__code__.replace(
        co_filename=_CODEGEN_FILE.format(owner=def_owner, name=name))
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__module__ = getattr(fn, "__module__", __name__)
    wrapper.__hb_original__ = fn
    wrapper.__hb_engine__ = engine
    wrapper.__hb_kind__ = kind
    wrapper.__hb_specialized__ = True
    wrapper.__hb_source__ = source  # introspection for tests/debugging
    return wrapper


def _site_arity(fn, el: Optional[int],
                dominant: Optional[tuple]) -> Optional[int]:
    """The one positional arity the wrapper serves: the elided arity,
    else the dominant profile's, else ``fn``'s own when it has no
    defaults, ``*args`` or keyword-only parameters; else ``None``."""
    if el is not None:
        return el
    if dominant is not None:
        return len(dominant)
    code = getattr(fn, "__code__", None)
    if (code is None or fn.__defaults__ or code.co_kwonlyargcount
            or code.co_flags & CO_VARARGS or code.co_argcount < 1):
        return None
    return code.co_argcount - 1


def _profile_test_lines(plan: CallPlan, dominant: Optional[tuple],
                        names: list, types: str, bail: str,
                        ns: dict) -> list:
    """The membership test of the argument classes ``types`` in the
    plan's COW profile set, fronted by an identity guard on the
    *dominant* profile (the hottest by pre-promotion hit counts), so the
    steady state is a ``type``/``is`` chain over the parameters ``names``
    with no tuple allocation.  Binds the ``_d0_<j>`` classes into ``ns``.

    Misses bail to the generic tier, which runs the conformance walk
    and COW-learns passing tuples into ``plan.profiles``; this code
    re-reads that set per call, so the site keeps learning."""
    if not plan.profile_eligible:
        # No sound class guard exists; a check-path call must run the
        # full conformance walk — in the generic tier.
        return [bail]
    fallback = [f"if {types} not in _plan0.profiles:", f"    {bail}"]
    if dominant is None:
        return fallback
    ns.update({f"_d0_{j}": cls for j, cls in enumerate(dominant)})
    guard = [f"type({a}) is _d0_{j}" for j, a in enumerate(names)]
    if not guard:  # the arity guard alone admits the empty profile
        return []
    return [f"if not ({' and '.join(guard)}):",
            *["    " + ln for ln in fallback]]

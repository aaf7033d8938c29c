"""Tier-3 glue: decide which compiled-in checks a promoted site can drop.

Tier 2 compiles a warm call plan into a straight-line wrapper that still
*performs* every per-call safety operation — the check-cache membership
probe, the argument-profile guard, the checked-frame push/pop.  Tier 3
runs the RIL forward dataflow pass (:mod:`repro.ril.analysis`) at
promotion time and statically discharges the operations it proves
redundant, so the wrapper *omits* them.

Per compiled entry the :class:`Elider` produces an :class:`Elision`
verdict with three independent switches:

``cache_guard``
    The wrapper's ``key in cache`` membership probe re-validates the
    memoized static check on every call.  Every *engine-mediated*
    removal of that derivation (redefinition, retype, hierarchy change)
    also drops the call plan — ``Engine.invalidate`` and the change
    hooks flush plans by cache key — so the wrapper's plan-liveness
    guard already covers it and the probe is provably redundant.  (A
    direct ``CheckCache.clear()`` bypassing the engine is a memo flush,
    not a world mutation: replaying the still-valid derivation is
    sound, it just re-checks lazily instead of eagerly.)

``arg_check``
    When some signature arm accepts the site's arity with *vacuous*
    parameter types (``%any``/type variables), the dynamic argument
    check passes for every value — only the arity needs guarding.

``frame``
    The checked-frame push/pop exists so intercepted *callees* can see
    whether their caller's body was statically checked.  A body the
    analysis proves can never re-enter intercepted code has no reader —
    the frame is dead and the ``try/finally`` around the call is
    dropped ("check once per call" becomes "check zero times").

The frame verdict may hold only *under a seeded profile* (the body is
safe when ``n`` is an Integer, not for arbitrary ``n``).  Then the
verdict carries ``guard_profiles``: up to :data:`TOP_K_PROFILES`
learned class chains, each independently re-proving the seeded
verdict, compiled as an **unconditional** OR-of-chains guard — no
copy-on-write fallback set, a miss on every chain bails to the generic
path — so the seeded facts hold on every call that runs the elided
body.  Every chain is a learned profile, so a matched chain also
certifies argument conformance and the wrapper drops its profile
membership test.  A verdict that already holds seed-free needs no pin
and keeps serving every learned profile.

Soundness: every fact a verdict read (signature slots with negative
probes, linearizations — including the ``("lin", cls)`` leaf-exactness
edges — field types, callee bodies as ``("ir", ...)`` edges along the
whole followed chain) is merged into the site's plan-dependency edges
**before** the wrapper is installed (:meth:`CallPlanCache.add_resources`),
so mutating any of them deopts the elided site exactly like a tier-2
plan.  The ``REPRO_DISABLE_ELIDE=1`` escape hatch (and
``EngineConfig.elide``) turns the stage off, leaving tier 2 untouched.

Every decision — elided or refused — is also explainable:
:meth:`Elider.audit_site` re-derives the verdict for a warm site and
returns a :class:`SiteAudit` naming, per check-op kind, whether it was
proved (seed-free or pinned), inapplicable, or blocked, and on what
(``unknown_join``, ``non_leaf_nominal``, ``budget_exhausted``,
``whitelist_miss``, ...).  ``python -m repro.ril.audit`` aggregates
these over every promoted site.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..rdl.registry import INSTANCE
from ..ril.registry import RegistrationError
from .deps import Resource, ir_resource
from .plans import ARG_CHECK_NEVER, CallPlan, PlanKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Engine

#: learned argument profiles the elider tries to prove under (and the
#: wrapper pins) per site.  Hottest first; chains beyond the first only
#: survive when they re-prove the frame verdict the first one proved.
TOP_K_PROFILES = 3

#: the three per-call check operations a verdict rules on, in report
#: order.
CHECK_KINDS = ("cache_guard", "arg_check", "frame")

#: audit statuses.
PROVED = "proved"              # elidable with no profile pin
PROVED_PINNED = "proved_pinned"  # elidable under the pinned chain(s)
NOT_APPLICABLE = "not_applicable"  # the check never runs at this site
BLOCKED = "blocked"            # provability failed; reasons attached

#: blocker code for sites a registered contract pins to the generic
#: wrapper (the analysis-level codes live in :mod:`repro.ril.analysis`).
BLOCK_CONTRACT = "contract"


def elide_disabled_by_env() -> bool:
    """True when ``REPRO_DISABLE_ELIDE`` disables tier-3 elision."""
    return os.environ.get("REPRO_DISABLE_ELIDE", "") not in (
        "", "0", "false", "no")


class Elision:
    """What one compiled entry may omit, and the facts that justify it."""

    __slots__ = ("cache_guard", "frame", "arg_check",
                 "guard_profiles", "arity", "count",
                 "resources", "callees")

    def __init__(self, *, cache_guard: bool, frame: bool, arg_check: bool,
                 guard_profiles: Optional[Tuple[tuple, ...]],
                 arity: Optional[int],
                 resources: Tuple[Resource, ...],
                 callees: Tuple[Tuple[str, str, str], ...]) -> None:
        self.cache_guard = cache_guard
        self.frame = frame
        self.arg_check = arg_check
        #: learned class chains to pin unconditionally (OR of chains),
        #: or ``None`` when every verdict holds seed-free.
        self.guard_profiles = guard_profiles
        #: arity to guard when ``arg_check`` is elided without a pinned
        #: profile chain (the chain already fixes the length).
        self.arity = arity
        #: per-call check operations the wrapper omits — what the
        #: ``checks_elided`` counter advances by on every elided call.
        self.count = int(cache_guard) + int(frame) + int(arg_check)
        self.resources = resources
        self.callees = callees

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Elision(cache_guard={self.cache_guard}, "
                f"frame={self.frame}, arg_check={self.arg_check}, "
                f"pinned={len(self.guard_profiles or ())})")


class SiteAudit:
    """Per-site provability report: one status (and blocking reasons)
    per check-op kind, as derived by :meth:`Elider.audit_site`."""

    __slots__ = ("key", "checks", "pinned", "blockers")

    def __init__(self, key: PlanKey) -> None:
        self.key = key
        #: kind -> (status, reasons); reasons is a tuple of blocker
        #: codes, empty unless status is BLOCKED.
        self.checks: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        #: number of pinned guard chains (0 = seed-free or refused).
        self.pinned = 0
        #: every (code, detail) blocker the analysis reported, for the
        #: verbose audit listing.
        self.blockers: Tuple[Tuple[str, str], ...] = ()

    def proved(self, kind: str, *, pinned: bool = False) -> None:
        self.checks[kind] = (PROVED_PINNED if pinned else PROVED, ())

    def skipped(self, kind: str) -> None:
        self.checks[kind] = (NOT_APPLICABLE, ())

    def blocked(self, kind: str, reasons: Tuple[str, ...]) -> None:
        self.checks[kind] = (BLOCKED, reasons or ("unproved",))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = ", ".join(f"{k}={v[0]}" for k, v in self.checks.items())
        return f"SiteAudit({self.key!r}: {bits})"


def _fixed_arity(arms) -> Optional[int]:
    """The single arity every arm requires, or ``None``."""
    arity: Optional[int] = None
    for arm in arms:
        lo, hi = arm.min_arity(), arm.max_arity()
        if hi is None or lo != hi or (arity is not None and lo != arity):
            return None
        arity = lo
    return arity


def _contract_blocks(engine: "Engine", name: str) -> bool:
    """Whether a registered contract forces ``name`` to stay generic.

    Contract hooks resolve per (receiver class, method name) with an
    MRO walk, so any contract anywhere on the *name* may fire for some
    receiver of a promoted site — those sites stay on the generic
    wrapper.  Other names promote freely: a metaprogramming contract on
    ``attr_accessor`` must not veto tier 2 for the whole application.
    """
    store = engine._contracts
    if not store:
        return False
    return any(n == name for (_cls, n) in store)


class Elider:
    """Per-engine tier-3 stage, invoked by the specializer at promotion.

    Runs under the engine's writer lock (the promotion already holds
    it), so the world it analyzes is the world the wrapper is compiled
    against; the plan-edge merge then extends that atomicity to the
    installed wrapper's lifetime.
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        #: warm-start seeds: key -> (plan, verdict) installed by the
        #: snapshot restore just before it asks the specializer to
        #: promote eagerly.  Consumed (popped) on first analyze; the
        #: plan identity check rejects a seed left for a site whose
        #: plan was dropped and rebuilt in between.
        self._seeds: Dict[PlanKey, Tuple[CallPlan, Elision]] = {}

    def seed(self, key: PlanKey, plan: CallPlan, elision: Elision) -> None:
        """Install a restored verdict for ``key``; the next ``analyze``
        for the same live plan returns it instead of re-deriving.  The
        caller (the snapshot restore) has already re-validated every
        ``("ir", ...)`` resource's fingerprint against the live CFG
        registry — a stale verdict never reaches here."""
        self._seeds[key] = (plan, elision)

    def analyze(self, key: PlanKey, plan: CallPlan, fn) -> Optional[Elision]:
        if self._seeds:
            seeded = self._seeds.pop(key, None)
            if seeded is not None and seeded[0] is plan:
                return seeded[1]
        return self._decide(key, plan, fn)[0]

    def audit_site(self, key: PlanKey, plan: CallPlan, fn) -> SiteAudit:
        """Re-derive the verdict for a live site purely for reporting
        (never consumes snapshot seeds, never installs anything)."""
        return self._decide(key, plan, fn)[1]

    def _decide(self, key: PlanKey, plan: CallPlan,
                fn) -> Tuple[Optional[Elision], SiteAudit]:
        # Lazy import: repro.ril's package init imports the analysis
        # module, which reaches back into repro.core — importing it at
        # module level here would dead-end when repro.ril loads first.
        from ..ril.analysis import (
            BLOCK_NO_IR, analyze_method, is_vacuous, rdl_class_name,
        )

        engine = self.engine
        audit = SiteAudit(key)
        def_owner, recv_owner, name, kind = key
        if kind != INSTANCE:
            # Class-method receivers are class objects; the analysis
            # models instance-typed self only.
            for ck in CHECK_KINDS:
                audit.skipped(ck)
            return None, audit
        sig = plan.sig
        arms = list(sig.intersection()) if sig is not None else []
        if _contract_blocks(engine, name):
            # A contract on this method name forces the generic wrapper
            # (the specializer refuses promotion), so no check op here
            # is ever discharged — report every applicable one blocked.
            arg_rel = bool(arms) and plan.arg_mode != ARG_CHECK_NEVER
            reason = (BLOCK_CONTRACT,)
            audit.blockers = ((BLOCK_CONTRACT, name),)
            if plan.checked:
                audit.blocked("cache_guard", reason)
            else:
                audit.skipped("cache_guard")
            if arg_rel:
                audit.blocked("arg_check", reason)
            else:
                audit.skipped("arg_check")
            audit.blocked("frame", reason)
            return None, audit
        mir = (engine.cfgs.lookup(def_owner, name)
               or engine.cfgs.lookup(recv_owner, name))
        if mir is None:
            try:
                mir = engine.cfgs.register_function(def_owner, name, fn)
            except RegistrationError:
                mir = None

        tops = plan.top_profiles(TOP_K_PROFILES) \
            if plan.profile_eligible else ()
        arity = len(tops[0]) if tops else _fixed_arity(arms)

        # -- argument verdict (signature-only: vacuous types) ----------
        arg_relevant = bool(arms) and plan.arg_mode != ARG_CHECK_NEVER
        arg_ok = (arg_relevant and arity is not None and any(
            arm.block is None and arm.accepts_arity(arity)
            and all(is_vacuous(arm.param_type_at(j)) for j in range(arity))
            for arm in arms))

        # -- frame verdict (dataflow over the body) --------------------
        frame_ok = False
        guard_profiles: Optional[Tuple[tuple, ...]] = None
        resources: List[Resource] = []
        callees: Tuple[Tuple[str, str, str], ...] = ()
        blockers: List[Tuple[str, str]] = []

        if mir is None:
            blockers.append((BLOCK_NO_IR, f"{def_owner}#{name}"))
        else:
            # The verdicts were derived while *this* body was installed.
            resources.append(ir_resource(mir.owner, name))
            if mir.owner != def_owner:
                resources.append(ir_resource(def_owner, name))
            report = analyze_method(engine, mir, recv_owner, None)
            frame_ok = report.frame_elidable
            resources.extend(report.resources)
            callees = report.callees
            blockers.extend(report.blockers)
            if not frame_ok and tops:
                # Prove under each hot profile; the hottest sets the
                # target verdict, and further chains are admitted only
                # when they independently re-prove it (the wrapper
                # elides whenever *any* admitted chain matches).
                seeded = [
                    (p, analyze_method(
                        engine, mir, recv_owner,
                        tuple(rdl_class_name(c) for c in p)))
                    for p in tops]
                if seeded[0][1].frame_elidable:
                    admitted = [(p, rep) for p, rep in seeded
                                if rep.frame_elidable]
                    guard_profiles = tuple(p for p, _ in admitted)
                    for _, rep in admitted:
                        resources.extend(rep.resources)
                        callees = callees + rep.callees
                    audit.pinned = len(admitted)
                    frame_ok = True
                else:
                    for _, rep in seeded:
                        blockers.extend(rep.blockers)

        # -- audit assembly --------------------------------------------
        reasons = tuple(dict.fromkeys(code for code, _ in blockers))
        audit.blockers = tuple(dict.fromkeys(blockers))
        pinned = guard_profiles is not None
        if plan.checked:
            audit.proved("cache_guard")
        else:
            audit.skipped("cache_guard")
        if not arg_relevant:
            audit.skipped("arg_check")
        elif arg_ok:
            audit.proved("arg_check")
        else:
            audit.blocked("arg_check", ("non_vacuous_params",))
        if frame_ok:
            audit.proved("frame", pinned=pinned)
        else:
            audit.blocked("frame", reasons)

        cache_guard = plan.checked
        if not (cache_guard or frame_ok or arg_ok):
            return None, audit
        return Elision(
            cache_guard=cache_guard,
            frame=frame_ok,
            arg_check=arg_ok,
            guard_profiles=guard_profiles,
            arity=arity if arg_ok else None,
            resources=tuple(dict.fromkeys(resources)),
            callees=tuple(dict.fromkeys(callees)),
        ), audit

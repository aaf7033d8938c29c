"""Signature-fact elision: which compiled-in check a promoted site drops.

Tier 2 compiles a warm call plan into a straight-line wrapper that still
*performs* every per-call safety operation — the argument-profile
guard, the checked-frame slot.  The argument test is redundant when the
plan's signature alone settles it, so the :class:`Elider` decides it at
promotion, in tier 2, and the wrapper *omits* it.  The verdict is the
arity the wrapper guards in its place, or ``None``:

``arg_check``
    Holds when some signature arm accepts the site's arity with
    *vacuous* parameter types (:func:`is_vacuous`: ``%any``, type
    variables, ``self``): the dynamic argument check passes for every
    value, so only the arity needs guarding.

The fact reads nothing beyond the plan, whose own dependency edges
already deopt the site when the signature changes, so a verdict adds no
edge of its own.  The checked-frame slot always stays: the paper's
per-call work is the memoized check lookup plus the dynamic argument
check, with no body dataflow.  The ``REPRO_DISABLE_ELIDE=1`` escape
hatch (and ``EngineConfig.elide``) turns the stage off, leaving every
check op in the wrapper.

Every decision is also explainable: :meth:`Elider.audit_site` returns a
:class:`SiteAudit` naming, per check kind, whether it was proved,
inapplicable, or blocked, and on what.  ``python -m repro.ril.audit``
aggregates these over every live site.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..rtypes.types import (
    AnyType, IntersectionType, SelfType, Type, UnionType, VarType,
)
from .plans import CallPlan, PlanKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Engine

#: the per-call check operations a verdict rules on, in report order.
CHECK_KINDS = ("arg_check",)

#: audit statuses.
PROVED = "proved"              # elidable
NOT_APPLICABLE = "not_applicable"  # the check never runs at this site
BLOCKED = "blocked"            # not elidable; reasons attached

#: blocker codes.
BLOCK_CONTRACT = "contract"    # a contract pins the site to the generic tier
BLOCK_NON_VACUOUS = "non_vacuous_params"


def elide_disabled_by_env() -> bool:
    """True when ``REPRO_DISABLE_ELIDE`` disables check elision."""
    return os.environ.get("REPRO_DISABLE_ELIDE", "") not in (
        "", "0", "false", "no")


def is_vacuous(t: Type) -> bool:
    """True when ``value_conforms(v, t, ...)`` holds for *every* value.

    ``SelfType`` is vacuous because the dynamic check resolves it to
    True unconditionally (``value_conforms``'s Self rule).
    """
    if isinstance(t, (AnyType, VarType, SelfType)):
        return True
    if isinstance(t, UnionType):
        return any(is_vacuous(a) for a in t.arms)
    if isinstance(t, IntersectionType):
        return all(is_vacuous(a) for a in t.arms)
    return False


class SiteAudit:
    """Per-site provability report: one status (and blocking reasons)
    per check kind, as derived by :meth:`Elider.audit_site`."""

    __slots__ = ("key", "checks")

    def __init__(self, key: PlanKey) -> None:
        self.key = key
        #: kind -> (status, reasons); reasons is a tuple of blocker
        #: codes, empty unless status is BLOCKED.
        self.checks: Dict[str, Tuple[str, Tuple[str, ...]]] = {}

    def proved(self, kind: str) -> None:
        self.checks[kind] = (PROVED, ())

    def skipped(self, kind: str) -> None:
        self.checks[kind] = (NOT_APPLICABLE, ())

    def blocked(self, kind: str, reason: str) -> None:
        self.checks[kind] = (BLOCKED, (reason,))

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
    """Per-engine elision stage, invoked by the specializer at promotion.

    A verdict reads only the plan (its signature arms and learned
    profiles), so deciding it is a few attribute reads under the
    promotion's writer lock.
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine

    def analyze(self, key: PlanKey, plan: CallPlan) -> Optional[int]:
        """The arity the promoted wrapper guards in place of its
        argument test, or None when the test stays.  Each elided call
        advances ``checks_elided`` by one."""
        return self._decide(key, plan)[0]

    def audit_site(self, key: PlanKey, plan: CallPlan) -> SiteAudit:
        """Re-derive the verdict for a live site purely for reporting
        (never installs anything)."""
        return self._decide(key, plan)[1]

    def _decide(self, key: PlanKey,
                plan: CallPlan) -> Tuple[Optional[int], SiteAudit]:
        audit = SiteAudit(key)
        sig = plan.sig
        arms = list(sig.intersection()) if sig is not None else []
        dominant = (plan.dominant_profile() if plan.profile_eligible
                    else None)
        arity = len(dominant) if dominant is not None \
            else _fixed_arity(arms)
        arg_relevant = bool(arms)
        arg_ok = (arg_relevant and arity is not None and any(
            arm.block is None and arm.accepts_arity(arity)
            and all(is_vacuous(arm.param_type_at(j)) for j in range(arity))
            for arm in arms))
        # A contract on this method name forces the generic wrapper (the
        # specializer refuses promotion), so no check op is discharged.
        contract = _contract_blocks(self.engine, key[2])

        if not arg_relevant:
            audit.skipped("arg_check")
        elif contract:
            audit.blocked("arg_check", BLOCK_CONTRACT)
        elif arg_ok:
            audit.proved("arg_check")
        else:
            audit.blocked("arg_check", BLOCK_NON_VACUOUS)

        if contract or not arg_ok:
            return None, audit
        return arity, audit

"""Differential cache-soundness harness.

The paper's Definition 1 makes invalidation the soundness linchpin of
just-in-time checking: a stale cached judgment is an unsound one.  The
dependency-tracked invalidation subsystem (``repro.core.deps``) is
therefore verified *differentially*: every scenario here runs twice —
once on a normal engine (plans, check cache, subtype/linearization
memos) and once on a cache-free oracle (``Engine(disable_caches=True)``,
the same configuration ``REPRO_DISABLE_CACHES=1`` forces globally) —
and the two runs must produce **identical type errors and identical
check outcomes**.  Any stale-cache bug shows up as a divergence.

Scenarios: the representative app workloads (pubs, cct, talks) run
twice each (cold load + warm steady state), plus redefinition/retype
churn sequences where the cached engine has every opportunity to replay
a stale judgment.
"""

import pytest

from repro import Engine, StaticTypeError
from repro.apps import all_builders

APP_CFG = {
    "pubs": {"publications": 15},
    "cct": {"repeats": 4},
    "talks": {},
}


def outcome_of(fn, *args, **kwargs):
    """Run ``fn`` and normalize its result or error for comparison."""
    try:
        return ("ok", repr(fn(*args, **kwargs)))
    except Exception as exc:  # noqa: BLE001 - the *error identity* is the point
        return ("err", type(exc).__name__, str(exc))


def run_app(name, *, disable):
    engine = Engine(disable_caches=disable)
    world = all_builders()[name](engine, **APP_CFG[name])
    outcomes = []
    world.seed()
    outcomes.append(outcome_of(world.workload))  # cold: annotations + checks
    world.seed()
    outcomes.append(outcome_of(world.workload))  # warm steady state
    return outcomes


@pytest.mark.parametrize("app", sorted(APP_CFG))
def test_app_workloads_identical_in_both_modes(app):
    """Cached and cache-free engines agree on every response and error."""
    cached = run_app(app, disable=False)
    oracle = run_app(app, disable=True)
    assert cached == oracle


def _churn_scenario(engine):
    """A redefinition-heavy sequence with every invalidation edge kind:
    body redefinition, dependent recheck, ancestor retype, subclassing,
    field retype, and mixin inclusion."""
    hb = engine.api()
    outcomes = []

    class DBase:
        @hb.typed("() -> Integer")
        def base(self):
            return 1

        @hb.typed("() -> Integer")
        def double(self):
            return self.base() * 2

    class DSub(DBase):
        pass

    engine.register_class(DSub)

    d = DSub()
    outcomes.append(outcome_of(d.double))
    outcomes.append(outcome_of(d.double))  # warm

    # Body redefinition to a broken body: the next call must re-check
    # and raise, never replay the memoized success.
    def base(self):
        return "broken"

    engine.define_method(DBase, "base", base)
    outcomes.append(outcome_of(d.base))
    outcomes.append(outcome_of(d.double))

    # Repair it, then retype the *ancestor* signature: the receiver-keyed
    # derivation for DSub must fall via the explicit ancestor edge.
    def base2(self):
        return 7

    engine.define_method(DBase, "base", base2)
    outcomes.append(outcome_of(d.double))
    engine.types.replace("DBase", "base", "() -> String", check=True)
    outcomes.append(outcome_of(d.double))  # double's body now ill-typed

    # Field retype invalidating a reader.
    class FBox:
        def __init__(self):
            self.value = 1

        @hb.typed("() -> Integer")
        def get(self):
            return self.value

    hb.field_type(FBox, "value", "Integer")
    b = FBox()
    outcomes.append(outcome_of(b.get))
    hb.field_type(FBox, "value", "String")
    outcomes.append(outcome_of(b.get))

    # Late, more-specific signature on the receiver class shadows the
    # ancestor's: the warm argument profile must not survive.
    class SBase:
        @hb.typed("(Integer) -> Integer")
        def twice(self, n):
            return n * 2

    class SSub(SBase):
        pass

    engine.register_class(SSub)
    s = SSub()
    outcomes.append(outcome_of(s.twice, 3))
    hb.annotate(SSub, "twice", "(String) -> Integer")
    outcomes.append(outcome_of(s.twice, 3))
    return outcomes


def test_churn_scenario_identical_in_both_modes():
    cached = _churn_scenario(Engine(disable_caches=False))
    oracle = _churn_scenario(Engine(disable_caches=True))
    assert cached == oracle


def test_churn_errors_are_real_type_errors():
    """Sanity on the scenario itself: it actually exercises errors (a
    vacuously green differential harness would prove nothing)."""
    outcomes = _churn_scenario(Engine(disable_caches=False))
    kinds = [o[1] for o in outcomes if o[0] == "err"]
    assert StaticTypeError.__name__ in kinds
    assert "ArgumentTypeError" in kinds


def test_env_switch_builds_oracle_engines(monkeypatch):
    """REPRO_DISABLE_CACHES=1 must flip every default-config engine into
    the oracle (this is what the CI cache-disabled job relies on)."""
    monkeypatch.setenv("REPRO_DISABLE_CACHES", "1")
    engine = Engine()
    assert engine.caches_disabled
    assert engine.config.caching is False
    assert engine.config.call_plans is False
    assert engine.hier.memo_enabled is False
    monkeypatch.setenv("REPRO_DISABLE_CACHES", "0")
    assert not Engine().caches_disabled

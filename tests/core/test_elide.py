"""Signature-fact elision: the verdict and its audit.

Elision keeps one fact, read off a site's call plan at promotion (see
``repro.core.elide``): ``arg_check`` holds when some arm accepts the
arity with vacuous parameter types.  ``repro.ril.audit`` reports it per
warm site.
"""

import pytest

from repro import ArgumentTypeError, Engine, EngineConfig
from repro.core.elide import CHECK_KINDS, is_vacuous
from repro.rdl.registry import CLASS
from repro.ril.audit import audit_engine, warm_serving_engine
from repro.rtypes.parser import parse_type

THRESHOLD = 5


def test_is_vacuous_matrix():
    assert is_vacuous(parse_type("%any"))
    assert is_vacuous(parse_type("u"))       # type variable
    assert is_vacuous(parse_type("self"))    # self type
    assert not is_vacuous(parse_type("Integer"))
    assert not is_vacuous(parse_type("Integer or String"))
    assert is_vacuous(parse_type("%any or Integer"))  # union: any arm


def _wrapper_source(cls, name) -> str:
    raw = cls.__dict__[name]
    fn = raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(fn, "__hb_source__", "")


#: the counters an elided wrapper's unchecked-caller call moves.
_MOVED = ("specialized_hits", "checks_elided", "dynamic_arg_checks",
          "cache_hits")


def _deltas(engine, before) -> dict:
    after = engine.stats_snapshot()
    return {k: after[k] - before[k] for k in _MOVED}


@pytest.mark.requires_elision
def test_vacuous_params_guard_only_the_arity():
    """A ``%any`` parameter passes the dynamic check for every value, so
    the promoted wrapper guards the arity alone: argument classes it
    never saw stay on the wrapper, another arity leaves it, and the
    omitted test counts in ``checks_elided``."""
    engine = Engine(EngineConfig(specialize_threshold=THRESHOLD))
    cls = type("ElideAny", (object,), {})
    body = "def relay(self, x):\n    return x\n"
    namespace = {}
    exec(body, namespace)  # noqa: S102 - fixed test template
    engine.define_method(cls, "relay", namespace["relay"],
                         sig="(%any) -> %any", check=True, source=body)
    obj = cls()
    for i in range(THRESHOLD + 5):
        assert obj.relay(i) == i
    unseen = ["any value", [1], 2.5, None, {"k": 1}]
    before = engine.stats_snapshot()
    for value in unseen:  # no profile test: every class is served
        assert obj.relay(value) == value
    n = len(unseen)
    assert _deltas(engine, before) == {
        "specialized_hits": n, "checks_elided": n,
        "dynamic_arg_checks": n, "cache_hits": n}
    before = engine.stats_snapshot()
    with pytest.raises(ArgumentTypeError):
        obj.relay(1, 2)  # arity guard: the generic tier rejects it
    assert _deltas(engine, before)["specialized_hits"] == 0


@pytest.mark.requires_elision
def test_classmethod_site_elides_the_arg_test():
    """The fact reads only the plan, so a checked class-method site with
    a vacuous parameter drops its argument test exactly like an
    instance-method site: the wrapper holds no profile test."""
    engine = Engine(EngineConfig(specialize_threshold=THRESHOLD))
    cls = type("ElideClassKind", (object,), {})
    body = "def tally(cls, n):\n    return n + 2\n"
    namespace = {}
    exec(body, namespace)  # noqa: S102 - fixed test template
    engine.define_method(cls, "tally", namespace["tally"],
                         sig="(%any) -> Integer", kind=CLASS,
                         check=True, source=body)
    for i in range(THRESHOLD + 5):
        assert cls.tally(i) == i + 2
    assert engine.stats.elide_promotions == 1
    assert "profiles" not in _wrapper_source(cls, "tally")
    before = engine.stats_snapshot()
    for i in range(7):
        assert cls.tally(i) == i + 2
    assert _deltas(engine, before) == {
        "specialized_hits": 7, "checks_elided": 7,
        "dynamic_arg_checks": 7, "cache_hits": 7}


@pytest.mark.requires_caches
def test_audit_reports_only_the_signature_fact():
    """The audit over warm boxroom reads: 12 of the 14 argument checks
    are vacuous — the other 2 stay, blocked on non-vacuous
    parameters."""
    report = audit_engine(warm_serving_engine("boxroom", "read"))
    summary = report["summary"]
    assert CHECK_KINDS == ("arg_check",)
    assert set(summary["per_kind"]) == set(CHECK_KINDS)
    assert summary["per_kind"]["arg_check"] == {
        "proved": 12, "not_applicable": 0, "blocked": 2}
    assert summary["blockers"] == {"non_vacuous_params": 2}
    assert (summary["proved"], summary["applicable"]) == (12, 14)
    for site in report["sites"]:
        assert set(site) == {"key", "checks"}
        assert set(site["checks"]) == set(CHECK_KINDS)


@pytest.mark.requires_caches
@pytest.mark.parametrize("app, mix, floor", [
    ("boxroom", "read", 0.55), ("boxroom", "mixed", 0.55),
    ("countries", "read", 0.55), ("countries", "mixed", 0.55),
    ("rolify", "read", 0.4), ("rolify", "mixed", 0.4)])
def test_audit_elision_rate_floors(app, mix, floor):
    """Across the warm serving apps the fact discharges most of the
    argument checks that run.  The audit is deterministic (no timing), so a
    rate below its floor is a real loss of provable checks."""
    summary = audit_engine(warm_serving_engine(app, mix))["summary"]
    assert summary["applicable"] > 0, summary
    assert summary["elision_rate"] >= floor, summary

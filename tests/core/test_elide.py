"""Signature-fact elision: the two verdicts and their audit.

Elision keeps two facts, both read off a site's call plan at promotion
(see ``repro.core.elide``): ``cache_guard`` holds for a checked plan,
and ``arg_check`` holds when some arm accepts the arity with vacuous
parameter types.  ``repro.ril.audit`` reports them per warm site.
"""

import pytest

from repro import Engine, EngineConfig
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


@pytest.mark.requires_elision
def test_vacuous_params_guard_only_the_arity():
    """A ``%any`` parameter passes the dynamic check for every value, so
    the promoted wrapper guards the arity alone — and both facts count
    in ``checks_elided``."""
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
    source = _wrapper_source(cls, "relay")
    assert "if len(args) != 1:" in source
    assert "_plan0.profiles" not in source
    assert "c.checks_elided += 2" in source
    assert "stack.append(True)" in source
    assert obj.relay("any value") == "any value"  # any class, same wrapper


@pytest.mark.requires_elision
def test_classmethod_site_elides_the_cache_probe():
    """Both facts read only the plan, so a checked class-method site
    drops its check-cache probe exactly like an instance-method site."""
    engine = Engine(EngineConfig(specialize_threshold=THRESHOLD))
    cls = type("ElideClassKind", (object,), {})
    body = "def tally(cls, n):\n    return n + 2\n"
    namespace = {}
    exec(body, namespace)  # noqa: S102 - fixed test template
    engine.define_method(cls, "tally", namespace["tally"],
                         sig="(Integer) -> Integer", kind=CLASS,
                         check=True, source=body)
    for i in range(THRESHOLD + 5):
        assert cls.tally(i) == i + 2
    assert engine.stats.elide_promotions == 1
    source = _wrapper_source(cls, "tally")
    assert "_ckey0" not in source
    assert "c.checks_elided += 1" in source


@pytest.mark.requires_caches
def test_audit_reports_only_the_two_signature_facts():
    """The audit over warm boxroom reads: every one of the 14 checked
    sites drops its cache probe, and 12 of 14 argument checks are
    vacuous — the other 2 stay, blocked on non-vacuous parameters."""
    report = audit_engine(warm_serving_engine("boxroom", "read"))
    summary = report["summary"]
    assert CHECK_KINDS == ("cache_guard", "arg_check")
    assert set(summary["per_kind"]) == set(CHECK_KINDS)
    assert summary["per_kind"]["cache_guard"] == {
        "proved": 14, "not_applicable": 0, "blocked": 0}
    assert summary["per_kind"]["arg_check"] == {
        "proved": 12, "not_applicable": 0, "blocked": 2}
    assert summary["blockers"] == {"non_vacuous_params": 2}
    assert (summary["proved"], summary["applicable"]) == (26, 28)
    for site in report["sites"]:
        assert set(site) == {"key", "checks"}
        assert set(site["checks"]) == set(CHECK_KINDS)


@pytest.mark.requires_caches
@pytest.mark.parametrize("app, mix, floor", [
    ("boxroom", "read", 0.55), ("boxroom", "mixed", 0.55),
    ("countries", "read", 0.55), ("countries", "mixed", 0.55),
    ("rolify", "read", 0.4), ("rolify", "mixed", 0.4)])
def test_audit_elision_rate_floors(app, mix, floor):
    """Across the warm serving apps the two facts discharge most of the
    check ops that run.  The audit is deterministic (no timing), so a
    rate below its floor is a real loss of provable checks."""
    summary = audit_engine(warm_serving_engine(app, mix))["summary"]
    assert summary["applicable"] > 0, summary
    assert summary["elision_rate"] >= floor, summary

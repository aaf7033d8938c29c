"""Provability audit: explain, per warm site, which per-call checks
the promoted wrapper omits — and why the others stay.

Elision keeps two facts, both read off the site's call plan
(:mod:`repro.core.elide`): ``cache_guard`` (a checked plan needs no
check-cache membership probe) and ``arg_check`` (an arm whose parameter
types are all vacuous needs only an arity guard).  This tool reports
how often they hold on *our* workloads and names the blocker for every
check that stays (``non_vacuous_params``, ``contract``).

Programmatic use (the elision tests import these)::

    from repro.ril.audit import audit_engine, warm_serving_engine
    engine = warm_serving_engine("boxroom", "read")
    report = audit_engine(engine)
    report["summary"]["elision_rate"]   # proved / applicable check ops

CLI (a warm engine is built by replaying a serving mix)::

    PYTHONPATH=src python -m repro.ril.audit --app boxroom --mix read
    PYTHONPATH=src python -m repro.ril.audit --app rolify --json

The audit re-derives every verdict through
:meth:`repro.core.elide.Elider.audit_site` on the live world under the
engine's writer lock — it never mutates the engine and never installs
wrappers.  The headline ``elision_rate`` is proved check ops over
*applicable* check ops: a check that never runs at a site (an unchecked
plan's cache guard, an argument check in ``never`` mode) counts in
neither numerator nor denominator.

This module is deliberately not exported from ``repro.ril``'s package
init: it imports ``repro.core`` eagerly, and ``repro.core`` imports
``repro.ril`` during its own initialization.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from ..core.elide import BLOCKED, CHECK_KINDS, Elider, PROVED

#: promotion threshold the CLI's warm-up engine uses — low enough that a
#: few passes over a serving mix promote every hot site.
WARM_THRESHOLD = 4

#: passes over the scenario thunk list during CLI warm-up.
WARM_PASSES = 10


def audit_engine(engine: Any) -> Dict[str, Any]:
    """Audit every live call-plan site of ``engine``.

    Returns ``{"sites": [...], "summary": {...}}`` where each site entry
    carries the per-check-kind status and blocking reasons, and the
    summary aggregates per kind, per blocker code, and into the headline
    ``elision_rate``.
    """
    elider = engine._elider if engine._elider is not None \
        else Elider(engine)
    plans = engine._plans
    sites: List[Dict[str, Any]] = []
    with engine.write_lock:
        live = dict(plans._plans) if plans is not None else {}
        for key, plan in sorted(live.items()):
            def_owner, recv_owner, name, kind = key
            fn = engine.lookup_callable(def_owner, name, kind) \
                or engine.lookup_callable(recv_owner, name, kind)
            if fn is None:
                continue  # no resolvable body; nothing to audit
            audit = elider.audit_site(key, plan)
            sites.append({
                "key": list(key),
                "checks": {
                    ck: {"status": status, "reasons": list(reasons)}
                    for ck, (status, reasons) in sorted(
                        audit.checks.items())
                },
            })
    per_kind: Dict[str, Dict[str, int]] = {
        ck: {"proved": 0, "not_applicable": 0, "blocked": 0}
        for ck in CHECK_KINDS}
    blockers: Dict[str, int] = {}
    proved = applicable = 0
    for site in sites:
        for ck, verdict in site["checks"].items():
            status = verdict["status"]
            per_kind[ck][status] += 1
            if status == PROVED:
                proved += 1
                applicable += 1
            elif status == BLOCKED:
                applicable += 1
                for code in verdict["reasons"]:
                    blockers[code] = blockers.get(code, 0) + 1
    return {
        "sites": sites,
        "summary": {
            "sites": len(sites),
            "per_kind": per_kind,
            "blockers": dict(sorted(blockers.items())),
            "proved": proved,
            "applicable": applicable,
            "elision_rate": round(proved / applicable, 4)
            if applicable else 0.0,
        },
    }


def warm_serving_engine(app: str, mix: str = "read",
                        passes: int = WARM_PASSES,
                        threshold: int = WARM_THRESHOLD) -> Any:
    """Build one of the serving subject apps and replay ``passes``
    rounds of the ``mix`` scenario so hot sites promote; returns the
    warm engine ready for :func:`audit_engine`."""
    from ..core.engine import Engine, EngineConfig
    from ..serving import build_serving_world, scenario_thunks

    engine = Engine(EngineConfig(specialize_threshold=threshold))
    world = build_serving_world(app, engine=engine)
    thunks = scenario_thunks(world, mix)
    for _ in range(passes):
        for thunk in thunks:
            thunk()
    return engine


def _print_report(report: Dict[str, Any], *, verbose: bool) -> None:
    summary = report["summary"]
    print(f"sites audited: {summary['sites']}")
    print(f"check ops: {summary['proved']} proved of "
          f"{summary['applicable']} applicable "
          f"(elision rate {summary['elision_rate']})")
    print("\nper check kind:")
    for ck in CHECK_KINDS:
        counts = summary["per_kind"][ck]
        print(f"  {ck:<12} proved={counts['proved']:<4} "
              f"blocked={counts['blocked']:<4} "
              f"n/a={counts['not_applicable']}")
    if summary["blockers"]:
        print("\nblocking reasons (check ops blocked by each):")
        for code, count in summary["blockers"].items():
            print(f"  {code:<20} {count}")
    if verbose:
        print("\nper site:")
        for site in report["sites"]:
            key = "#".join(str(part) for part in site["key"][:3])
            bits: List[str] = []
            for ck in CHECK_KINDS:
                verdict = site["checks"].get(ck)
                if verdict is None:
                    continue
                tag = {PROVED: "+", "not_applicable": "."}.get(
                    verdict["status"],
                    "!" + ",".join(verdict["reasons"]))
                bits.append(f"{ck}={tag}")
            print(f"  {key:<48} {' '.join(bits)}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ril.audit",
        description="Audit which per-call checks the promoted wrappers "
                    "of a warmed serving app omit.")
    parser.add_argument("--app", default="boxroom",
                        choices=("boxroom", "countries", "rolify"),
                        help="serving subject app to warm (default: "
                             "boxroom)")
    parser.add_argument("--mix", default="read",
                        choices=("read", "write", "mixed"),
                        help="scenario mix to replay (default: read)")
    parser.add_argument("--passes", type=int, default=WARM_PASSES,
                        help="warm-up passes over the scenario "
                             f"(default: {WARM_PASSES})")
    parser.add_argument("--threshold", type=int, default=WARM_THRESHOLD,
                        help="tier-2 promotion threshold during warm-up "
                             f"(default: {WARM_THRESHOLD})")
    parser.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")
    parser.add_argument("--verbose", action="store_true",
                        help="list every site's verdicts")
    args = parser.parse_args(argv)

    engine = warm_serving_engine(args.app, args.mix,
                                 passes=args.passes,
                                 threshold=args.threshold)
    report = audit_engine(engine)
    report["app"] = args.app
    report["mix"] = args.mix
    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(f"provability audit: {args.app} / {args.mix} "
              f"({args.passes} passes, threshold {args.threshold})")
        _print_report(report, verbose=args.verbose)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Warm-state snapshots: save a warmed engine, warm-start a fresh one.

What gets serialized (the state a long-lived process paid for):

* **check verdicts** — every memoized static-check derivation, with its
  dependency edges (signature, field, and hierarchy reads) exactly as
  the :class:`~repro.core.cache.CheckCache` recorded them;
* **call plans** — per-site resolution results plus everything the site
  *learned*: hit counts, argument class profiles with their hit
  counts, and whether the site was promoted to tier 2.  A promoted site
  is re-promoted eagerly on load, and its elision verdict is recomputed
  from the restored plan (a few signature reads), so no verdict is
  stored.

The format extends the ``ril/json_io.py`` idiom: plain JSON data,
``sort_keys`` dumps, sha256 fingerprints over position-free content.

Soundness is layered, and every layer fails *closed* to cold start:

1. **Envelope**: wrong format marker, wrong version, truncated or
   corrupt JSON → the whole snapshot is rejected and the engine is
   untouched.
2. **World fingerprint**: sha256 over the type registry (signatures +
   field types), the class hierarchy (parents, mixins, modules,
   typevars), and the semantics-affecting engine config.  Any drift —
   a retyped method, a new subclass, a different caching mode — means
   the saved verdicts were derived in a different world; the snapshot
   is rejected wholesale.
3. **Per-entity IR fingerprints**: the world fingerprint cannot see
   method *bodies* (IR registration is lazy and load-order dependent),
   so each check verdict records the owner + fingerprint of the body it
   checked.  A mismatch skips just that entry — the site lazily
   re-checks, which is the cold path and therefore sound.
4. **Per-site re-resolution**: restored plans never trust saved
   resolution results.  Each site's signature is re-resolved through
   the live hierarchy with a dependency trace, the checked bit is
   recomputed, and a site whose recomputed shape disagrees with the
   saved one is dropped.  A checked plan is only restored when its
   backing cache entry was restored too — a checked plan without a
   verdict would silently skip static checks.

Profiles reference live classes, which JSON cannot carry; they are
encoded as ``["app", name]`` (resolved through the engine's registered
app classes) or ``["builtin", name]`` (a fixed whitelist).  A profile
mentioning any other class is dropped and simply re-learned live.
"""

from __future__ import annotations

import io
import json
import hashlib
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.engine import Engine
from ..core.plans import PlanKey

SNAPSHOT_FORMAT = "hummingbird-warm-state"
#: version 5: no ``elisions`` section — a re-promoted site recomputes
#: its verdict from the plan.  Version 4 dropped return-class profiles
#: and the return-check flag.  Version 3 dropped kwargs-shape layouts
#: and the chain-conformance flag.  Version 2 added multi-profile
#: guard chains and leaf-exactness resources.  Any other version is
#: rejected at the envelope (fail closed to cold start) rather than
#: decoded under the wrong rules.
SNAPSHOT_VERSION = 5

#: builtin receiver/argument classes a profile may mention by name.
_BUILTIN_CLASSES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (int, float, bool, str, bytes, list, tuple, dict, set,
                frozenset, type(None))
}


# -- world fingerprint -------------------------------------------------------


def world_fingerprint(engine: Engine) -> str:
    """sha256 over everything a check derivation may have consulted.

    Reads the registry/hierarchy internals directly (not through the
    tracing accessors) — fingerprinting must not record dependency
    touches.  Callers hold ``engine.write_lock`` for a consistent view;
    the public entry points here take it themselves.
    """
    types = engine.types
    hier = engine.hier
    cfg = engine.config
    payload = {
        "sigs": sorted(
            [sig.owner, sig.name, sig.kind,
             [str(arm) for arm in sig.arms],
             bool(sig.check), bool(sig.generated)]
            for sig in types.sigs()),
        "fields": sorted(
            [owner, fname, str(ftype)]
            for (owner, fname), ftype in types._fields.items()),
        "hier": {
            "parent": sorted([c, p or ""]
                             for c, p in hier._parent.items()),
            "mixins": sorted([c, list(m)]
                             for c, m in hier._mixins.items()),
            "modules": sorted(hier._modules),
            "typevars": sorted([c, list(tv)]
                               for c, tv in hier._typevars.items()),
        },
        # Semantics-affecting knobs only: two engines that differ in
        # perf tuning (thresholds, specialization, elision) derive the
        # *same* verdicts, so those knobs do not poison reuse.
        "config": [bool(cfg.caching)],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- shared helpers ----------------------------------------------------------


def _body_fingerprint(engine: Engine, recv_owner: str,
                      name: str) -> Tuple[Optional[str], Optional[str]]:
    """(owner, fingerprint) of the registered body a check of
    ``recv_owner#name`` derives from — the first hit on the ancestor
    walk, which is deterministic, so save and load agree or the entry
    is skipped."""
    cfgs = engine.cfgs
    if engine.hier.is_known(recv_owner):
        for ancestor in engine.hier.ancestors(recv_owner):
            mir = cfgs.lookup(ancestor, name)
            if mir is not None:
                return ancestor, mir.fingerprint
        return None, None
    mir = cfgs.lookup(recv_owner, name)
    if mir is not None:
        return recv_owner, mir.fingerprint
    return None, None


def _encode_class(engine: Engine, cls: type) -> Optional[List[str]]:
    name = cls.__name__
    if engine._app_classes.get(name) is cls:
        return ["app", name]
    if _BUILTIN_CLASSES.get(name) is cls:
        return ["builtin", name]
    return None


def _decode_class(engine: Engine, enc) -> Optional[type]:
    try:
        space, name = enc
    except (TypeError, ValueError):
        return None
    if space == "app":
        return engine._app_classes.get(name)
    if space == "builtin":
        return _BUILTIN_CLASSES.get(name)
    return None


def _encode_profile(engine: Engine,
                    profile: Tuple[type, ...]) -> Optional[list]:
    encoded = [_encode_class(engine, cls) for cls in profile]
    return None if any(enc is None for enc in encoded) else encoded


def _decode_profile(engine: Engine, encoded) -> Optional[Tuple[type, ...]]:
    decoded = tuple(_decode_class(engine, enc) for enc in encoded)
    return None if any(cls is None for cls in decoded) else decoded


# -- save --------------------------------------------------------------------


def _capture_checks(engine: Engine) -> List[dict]:
    records = []
    for entry in engine.cache.entries():
        recv_owner, name = entry.key
        body_owner, body_fp = _body_fingerprint(engine, recv_owner, name)
        if body_fp is None:
            continue  # nothing to pin the verdict's body against
        records.append({
            "key": list(entry.key),
            "deps": sorted(list(dep) for dep in entry.deps),
            "field_deps": sorted(list(dep) for dep in entry.field_deps),
            "hier_deps": sorted(entry.hier_deps),
            "body_owner": body_owner,
            "body_fp": body_fp,
        })
    return records


def _capture_plans(engine: Engine) -> List[dict]:
    plans = engine._plans
    if plans is None:
        return []
    records = []
    for key, plan in plans.items():
        profiles = []
        for profile in plan.profiles:
            enc = _encode_profile(engine, profile)
            if enc is not None:
                profiles.append(enc)
        profile_hits = []
        for profile, hits in plan.profile_hits.items():
            enc = _encode_profile(engine, profile)
            if enc is not None:
                profile_hits.append([enc, int(hits)])
        records.append({
            "key": list(key),
            "hits": int(plan.hits),
            "checked": bool(plan.checked),
            "profiles": sorted(profiles),
            "profile_hits": sorted(profile_hits),
            "promoted": plan.installed is not None,
        })
    return records


def save_snapshot(engine: Engine, path: Optional[str] = None) -> dict:
    """Serialize ``engine``'s warm state; optionally write it to
    ``path``.  Returns the snapshot document (JSON-compatible)."""
    with engine.write_lock:
        doc = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "fingerprint": world_fingerprint(engine),
            "checks": _capture_checks(engine),
            "plans": _capture_plans(engine),
        }
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, sort_keys=True, separators=(",", ":"))
    return doc


# -- load --------------------------------------------------------------------


@dataclass
class SnapshotLoad:
    """What a load attempt did — ``loaded`` False means the engine was
    left exactly as found (the clean cold-start fallback)."""

    loaded: bool
    reason: str = ""
    checks_restored: int = 0
    checks_skipped: int = 0
    plans_restored: int = 0
    plans_skipped: int = 0
    promotions: int = 0
    errors: List[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def _read_document(source) -> Tuple[Optional[dict], str]:
    if isinstance(source, dict):
        return source, ""
    if isinstance(source, (str, os.PathLike)):
        try:
            with io.open(source, "r", encoding="utf-8") as handle:
                return json.load(handle), ""
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            return None, f"unreadable snapshot: {exc}"
    return None, f"unsupported snapshot source {type(source).__name__!r}"


def _restore_checks(engine: Engine, doc: dict,
                    report: SnapshotLoad) -> set:
    restored = set()
    for rec in doc.get("checks", []):
        key = tuple(rec["key"])
        body_owner, body_fp = _body_fingerprint(engine, *key)
        if body_owner != rec["body_owner"] or body_fp != rec["body_fp"]:
            report.checks_skipped += 1
            continue
        engine.cache.store(
            key,
            deps={tuple(dep) for dep in rec["deps"]},
            field_deps={tuple(dep) for dep in rec["field_deps"]},
            hier_deps=set(rec["hier_deps"]))
        restored.add(key)
        report.checks_restored += 1
    return restored


def _restore_plan(engine: Engine, rec: dict, epoch: int,
                  report: SnapshotLoad) -> None:
    key: PlanKey = tuple(rec["key"])  # type: ignore[assignment]
    def_owner, recv_owner, name, kind = key
    spec = engine._specializer
    plans = engine._plans

    # Re-resolve through the live world, tracing the dependency edges
    # the plan must carry — never trust the saved resolution.
    trace: List[tuple] = []
    resolved = engine.resolve_sig(recv_owner, name, kind, trace=trace)
    if resolved is None:
        resolved = engine.resolve_sig(def_owner, name, kind, trace=trace)
    sig_owner = sig = None
    checked = False
    if resolved is not None:
        sig_owner, sig = resolved
        if sig.check:
            # A checked plan skips the per-call jit_check; that is only
            # sound with a live memoized verdict backing it.
            if (not engine.config.caching
                    or (recv_owner, name) not in engine.cache):
                report.plans_skipped += 1
                return
            checked = True
    if checked != bool(rec["checked"]):
        report.plans_skipped += 1
        return  # resolution shape drifted from the saved world

    plan = engine._new_plan(key, sig_owner, sig, checked)
    plan.hits = int(rec["hits"])
    if plan.profile_eligible:
        decoded = []
        for enc in rec.get("profiles", []):
            profile = _decode_profile(engine, enc)
            if profile is not None:
                decoded.append(profile)
        plan.profiles = frozenset(decoded)
        for enc, hits in rec.get("profile_hits", []):
            profile = _decode_profile(engine, enc)
            if profile is not None and profile in plan.profiles:
                plan.profile_hits[profile] = int(hits)

    if not plans.store(key, plan, trace, epoch=epoch):
        report.plans_skipped += 1
        return
    report.plans_restored += 1

    if not rec.get("promoted") or spec is None:
        return
    # Eager re-promotion: the saved site ran a specialized wrapper, so
    # rebuild it now rather than after promote_at fresh hits.  The
    # guard class comes from the plan's receiver owner (no live
    # receiver exists yet); any refusal leaves the site tier-1, which
    # re-promotes organically.
    guard_cls = engine.host_class(recv_owner)
    fn = engine.lookup_callable(def_owner, name, kind)
    if guard_cls is None or fn is None:
        return
    if spec.maybe_promote(key, plan, fn, None, guard_cls=guard_cls):
        report.promotions += 1


def load_snapshot(engine: Engine, source) -> SnapshotLoad:
    """Warm-start ``engine`` from ``source`` (a path or a snapshot
    document).  Any envelope-level mismatch returns ``loaded=False``
    with the engine untouched; per-entry mismatches skip just that
    entry.  Safe to call on a freshly built world before traffic."""
    doc, problem = _read_document(source)
    if doc is None:
        return SnapshotLoad(False, problem)
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        return SnapshotLoad(False, "not a warm-state snapshot")
    if doc.get("version") != SNAPSHOT_VERSION:
        return SnapshotLoad(
            False, f"snapshot version {doc.get('version')!r} != "
                   f"{SNAPSHOT_VERSION}")
    if not all(isinstance(doc.get(k), list)
               for k in ("checks", "plans")):
        return SnapshotLoad(False, "malformed snapshot body")
    if engine.caches_disabled or not engine.config.caching:
        # The cache-free oracle recomputes everything by definition;
        # restoring verdicts into it would defeat its purpose.
        return SnapshotLoad(False, "engine runs cache-free; cold start")

    report = SnapshotLoad(True)
    with engine.write_lock:
        saved_fp = doc.get("fingerprint")
        live_fp = world_fingerprint(engine)
        if saved_fp != live_fp:
            return SnapshotLoad(
                False, "stale fingerprint: snapshot world differs from "
                       "the live registry/hierarchy/config")
        try:
            _restore_checks(engine, doc, report)
            plans = engine._plans
            if plans is not None:
                # The saved plans replace the ones the world's seeding
                # built: a store keeps a live plan.
                plans.clear()
                epoch = plans.epoch
                for rec in doc.get("plans", []):
                    _restore_plan(engine, rec, epoch, report)
        except Exception as exc:  # noqa: BLE001 - see below
            # A structurally broken record mid-restore (a snapshot that
            # passed the envelope checks but carries garbage — e.g. a
            # torn write that still parses as JSON).  Every entry
            # already restored is individually validated, but serving
            # from a *half*-warm engine makes later behavior depend on
            # where exactly the snapshot broke; degrade to a clean cold
            # start instead.  Warm state is pure performance — dropping
            # it is always sound, and plans.clear() fires the deopt
            # hook so any eagerly re-promoted site is demoted before we
            # return.
            engine.cache.clear()
            if engine._plans is not None:
                engine._plans.clear()
            rollback = SnapshotLoad(
                False, f"mid-restore failure "
                       f"({type(exc).__name__}: {exc}); rolled back to "
                       f"cold start")
            rollback.errors.append(f"{type(exc).__name__}: {exc}")
            return rollback
    return report

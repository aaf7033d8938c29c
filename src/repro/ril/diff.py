"""Structural IR diffing for development-mode reloading.

Paper section 4 ("Cache Invalidation"): when Rails development mode reloads
a file, Hummingbird compares each method's new body against the old one
using the RIL CFGs, invalidating only methods whose bodies actually
changed, plus their dependents, plus dependents of removed methods.  These
helpers compute exactly those three sets from two registry snapshots.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from .registry import CFGRegistry, MethodIR

Key = Tuple[str, str]


def bodies_differ(old: MethodIR, new: MethodIR) -> bool:
    """True when the two lowerings differ: structurally (positions
    ignored), in their parameters, or in the types of their closure
    captures, which the static check reads as the free variables' types.

    Two registrations of one code object share its lowered body, so the
    common redefinition needs no fingerprint at all."""
    if old.params != new.params or old.captures != new.captures:
        return True
    return old.body is not new.body and old.fingerprint != new.fingerprint


def snapshot_fingerprints(reg: CFGRegistry) -> Dict[Key, str]:
    """Capture the registry's current body fingerprints."""
    out: Dict[Key, str] = {}
    for key in reg.keys():
        mir = reg.lookup(*key)
        if mir is not None:  # racing forget(): skip, don't crash
            out[key] = mir.fingerprint
    return out


def diff_registries(old: Dict[Key, str], reg: CFGRegistry) -> "RegistryDiff":
    """Compare a fingerprint snapshot against the registry's current state."""
    current = snapshot_fingerprints(reg)
    changed = {k for k, fp in current.items()
               if k in old and old[k] != fp}
    added = {k for k in current if k not in old}
    removed = {k for k in old if k not in current}
    return RegistryDiff(changed=changed, added=added, removed=removed)


class RegistryDiff:
    """The three change sets dev-mode invalidation needs."""

    def __init__(self, changed: Set[Key], added: Set[Key],
                 removed: Set[Key]) -> None:
        self.changed = changed
        self.added = added
        self.removed = removed

    def invalidation_roots(self) -> Set[Key]:
        """Methods whose cached checks (and dependents) must be dropped:
        changed bodies and removed methods.  Added methods are *not* roots —
        they are simply checked on first call (paper, Table 2 'Added')."""
        return self.changed | self.removed

    def __repr__(self) -> str:
        return (f"RegistryDiff(changed={sorted(self.changed)}, "
                f"added={sorted(self.added)}, removed={sorted(self.removed)})")

"""``repro.snapshot`` — warm-state serialization for pre-fork serving.

A long-lived engine accumulates state worth money: memoized check
verdicts, per-site call plans with their learned class profiles,
and promotion decisions.  This
package round-trips that state through versioned, fingerprinted JSON
(extending the ``ril/json_io.py`` idiom) so a freshly forked or
freshly deployed worker warm-starts instead of re-paying profiling,
checking, and promotion from zero.

Soundness rule: a snapshot is advisory, never authoritative.  The world
fingerprint (type registry + hierarchy + semantics-affecting config)
gates the whole load, per-entity IR fingerprints gate each check
verdict, and any mismatch — corrupt file, version
drift, stale fingerprint, unresolvable site — degrades to the exact
cold-start path the engine would have taken anyway.
"""

from .warmstate import (
    SNAPSHOT_FORMAT, SNAPSHOT_VERSION, SnapshotLoad, load_snapshot,
    save_snapshot, world_fingerprint,
)

__all__ = [
    "SNAPSHOT_FORMAT", "SNAPSHOT_VERSION", "SnapshotLoad",
    "load_snapshot", "save_snapshot", "world_fingerprint",
]

"""Development-mode reloading with IR-diff-based cache invalidation.

Paper section 4, "Cache Invalidation": in Rails development mode, modified
files are reloaded without restarting.  Hummingbird intercepts the reload
and, per method, compares the new body against the old using the RIL CFGs;
only changed methods (and their dependents) are invalidated.  Removed
methods invalidate their dependents too.  Helper classes get a fresh name
on every reload (a Rails quirk), so helper methods are always re-checked —
Table 2 therefore reports checked-method counts both with and without
helpers, and so do we.

An :class:`AppVersion` is the unit of reload: per-method source text plus
signatures, standing in for the app's Ruby files at one git revision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

Key = Tuple[str, str]


@dataclass(frozen=True)
class MethodVersion:
    """One method's source at one app version."""

    cls_name: str
    name: str
    sig: str
    source: str
    helper: bool = False


@dataclass
class AppVersion:
    """All checked methods of the app at one revision."""

    label: str
    methods: List[MethodVersion] = field(default_factory=list)

    def add(self, cls_name: str, name: str, sig: str, source: str, *,
            helper: bool = False) -> "AppVersion":
        self.methods.append(MethodVersion(cls_name, name, sig, source,
                                          helper=helper))
        return self

    def keys(self) -> Set[Key]:
        return {(m.cls_name, m.name) for m in self.methods}


@dataclass
class ReloadReport:
    """What one reload did — one row of Table 2."""

    label: str
    changed: Set[Key] = field(default_factory=set)
    added: Set[Key] = field(default_factory=set)
    removed: Set[Key] = field(default_factory=set)
    dependents: Set[Key] = field(default_factory=set)
    helper_keys: Set[Key] = field(default_factory=set)

    @property
    def delta_methods(self) -> int:
        return len(self.changed)

    @property
    def added_count(self) -> int:
        return len(self.added)

    @property
    def dependent_count(self) -> int:
        return len(self.dependents - self.changed)


class Reloader:
    """Applies :class:`AppVersion` snapshots to a live app."""

    def __init__(self, app):
        self.app = app
        self._current: Dict[Key, MethodVersion] = {}
        self._classes: Dict[str, type] = {}
        self._globals: Dict[str, object] = {}

    def expose(self, **names) -> None:
        """Names (model classes, Sym, helpers) visible to method sources."""
        self._globals.update(names)

    def register_class(self, cls: type) -> None:
        self._classes[cls.__name__] = cls
        self._globals.setdefault(cls.__name__, cls)

    def apply(self, version: AppVersion) -> ReloadReport:
        """Load or reload the app at ``version``.

        First application defines everything; later applications diff each
        method body (via IR fingerprints) and invalidate changed methods
        plus dependents, remove dropped methods, and force helpers to be
        re-checked (the class-renaming quirk).
        """
        engine = self.app.engine
        report = ReloadReport(version.label)
        new_keys = version.keys()
        old_keys = set(self._current)

        for key in old_keys - new_keys:
            # Removed method: invalidate its dependents (section 4).
            report.removed.add(key)
            engine.method_removed(*key)
            del self._current[key]

        for mv in version.methods:
            key = (mv.cls_name, mv.name)
            cls = self._classes.get(mv.cls_name)
            if cls is None:
                raise LookupError(f"reloader does not know class "
                                  f"{mv.cls_name}; call register_class")
            previous = self._current.get(key)
            body_changed = previous is not None and (
                previous.source != mv.source or previous.sig != mv.sig)
            is_new = previous is None
            if previous is not None and not body_changed and not mv.helper:
                continue  # untouched: cache entry survives the reload
            if mv.helper and previous is not None and not body_changed:
                # The Rails helper quirk: the reloaded helper class gets a
                # new name, so its methods look brand new to the cache —
                # the method itself is re-checked, but nothing about it
                # changed, so dependents are untouched.
                engine.recheck(*key)
                report.helper_keys.add(key)
                continue
            fn = self._compile(mv)
            if body_changed:
                before = engine.cache.dependents(key)
                report.dependents |= before
                report.changed.add(key)
            elif is_new and old_keys:
                report.added.add(key)
            # A changed lowering or signature runs its own wave.
            engine.define_method(cls, mv.name, fn, sig=mv.sig, check=True,
                                 source=mv.source)
            if mv.helper:
                report.helper_keys.add(key)
            self._current[key] = mv

        # Helpers are always dropped from the cache on reload, even
        # untouched ones (their class identity changes in real Rails);
        # unchanged helpers do not disturb their dependents.
        for mv in version.methods:
            if mv.helper:
                key = (mv.cls_name, mv.name)
                if key not in report.changed:
                    engine.recheck(*key)
                report.helper_keys.add(key)
        return report

    def _compile(self, mv: MethodVersion):
        namespace = dict(self._globals)
        exec(compile(mv.source, f"<{mv.cls_name}.{mv.name}>", "exec"),
             namespace)
        fn = namespace[mv.name]
        fn.__hb_source__ = mv.source
        return fn

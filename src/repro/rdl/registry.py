"""The run-time type table (RDL analog).

"Hummingbird's type annotation stores type information in a map and wraps
the associated method to intercept calls to it" (paper, section 4).  This
module is the map: signatures keyed by (owner class/module, method name,
instance/class kind), where repeated ``type`` calls on the same method
accumulate *intersection arms* (the paper's ``Array#[]`` example), plus
instance/class field types (Hummingbird's addition to RDL).

Mutations bump a version counter and notify listeners; the engine listens
to drive cache invalidation (the formalism's (EType) rule) and phase
accounting.

Concurrency discipline: lookups are bare dict reads (atomic under the
GIL, no lock).  Mutations hold :attr:`TypeRegistry.lock` — re-entrant,
and replaced by the engine with its own writer lock so that a direct
``engine.types.replace(...)`` serializes with every other engine
mutation (listeners fire while the lock is held, and the engine's
listener re-enters the same lock).  :meth:`replace` installs the new
entry with a single dict assignment so concurrent readers see the old
or the new signature, never a gap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..rtypes import (
    MethodType, NominalType, Type, parse_method_type, parse_type, resolve_self,
)
from ..rtypes.instantiate import type_facts

INSTANCE = "instance"
CLASS = "class"

Key = Tuple[str, str, str]  # (owner, name, kind)


@dataclass
class MethodSig:
    """All typing information recorded for one method."""

    owner: str
    name: str
    kind: str  # INSTANCE or CLASS
    arms: List[MethodType] = field(default_factory=list)
    #: statically check the body at calls (app methods); library and
    #: framework annotations are trusted (paper: "we trusted the
    #: annotations for all these libraries").
    check: bool = False
    #: created at run time by metaprogramming hooks (Table 1 "Gen'd").
    generated: bool = False

    def arms_for(self, receiver: str) -> List[MethodType]:
        """The arms as a call on a ``receiver`` reads them: ``self`` is an
        instance of ``receiver``, in a class method's arm too
        (``Model.find: (Integer) -> self``).  The body is checked
        against these arms and a call's arguments are checked against
        them, so a parameter typed ``self`` is enforced where the body
        relies on it."""
        for arm in self.arms:
            if type_facts(arm)[1]:  # mentions self
                self_ty = NominalType(receiver)
                return [resolve_self(a, self_ty) for a in self.arms]
        return self.arms


class TypeRegistry:
    """Signatures + field types, with change notification."""

    def __init__(self) -> None:
        self._sigs: Dict[Key, MethodSig] = {}
        self._fields: Dict[Tuple[str, str], Type] = {}
        self.version = 0
        #: writer lock; the engine replaces it with its shared writer
        #: lock so direct registry mutations serialize with the engine.
        self.lock = threading.RLock()
        self._listeners: List[Callable[[str, str, str], None]] = []

    # -- mutation ------------------------------------------------------------

    def add(self, owner: str, name: str, sig: "MethodType | str", *,
            kind: str = INSTANCE, check: bool = False,
            generated: bool = False) -> MethodSig:
        """Record a signature; repeated calls add intersection arms.

        Matching the paper, "adding the same type again is harmless":
        a duplicate arm is ignored (and does not invalidate anything).
        """
        mt = parse_method_type(sig) if isinstance(sig, str) else sig
        if not isinstance(mt, MethodType):
            raise TypeError(f"not a method type: {sig!r}")
        with self.lock:
            key = (owner, name, kind)
            entry = self._sigs.get(key)
            if entry is None:
                # Built fully before the dict insert: a lock-free reader
                # must never observe a published signature with no arms
                # (an empty-armed entry turns a correct call into a
                # spurious ArgumentTypeError).
                entry = MethodSig(owner, name, kind, arms=[mt], check=check,
                                  generated=generated)
                self._sigs[key] = entry
                self.version += 1
                self._notify(owner, name, kind)
                return entry
            if mt in entry.arms:
                if check and not entry.check:
                    # Upgrading a trusted signature to a checked one is a
                    # real table change even though the arm is a duplicate:
                    # bump and notify so caches (and call plans) can't keep
                    # skipping the static check.
                    entry.check = True
                    self.version += 1
                    self._notify(owner, name, kind)
                return entry
            entry.arms.append(mt)
            entry.check = entry.check or check
            entry.generated = entry.generated or generated
            self.version += 1
            self._notify(owner, name, kind)
            return entry

    def replace(self, owner: str, name: str, sig: "MethodType | str", *,
                kind: str = INSTANCE, check: bool = False,
                generated: bool = False) -> MethodSig:
        """Drop previous arms and install a single new signature.

        The paper notes full invalidation support "will likely require an
        explicit mechanism for replacing earlier type definitions" — this
        is that mechanism.  The new entry lands in one dict assignment:
        a concurrent reader resolves the old signature or the new one,
        never a missing slot.
        """
        mt = parse_method_type(sig) if isinstance(sig, str) else sig
        if not isinstance(mt, MethodType):
            raise TypeError(f"not a method type: {sig!r}")
        with self.lock:
            key = (owner, name, kind)
            entry = MethodSig(owner, name, kind, arms=[mt], check=check,
                              generated=generated)
            self._sigs[key] = entry
            self.version += 1
            self._notify(owner, name, kind)
            return entry

    def add_field(self, owner: str, field_name: str,
                  t: "Type | str") -> None:
        """Record an instance/class field type (paper Fig. 3's
        ``field_type :@transactions, "Array<Transaction>"``).

        Re-recording the *same* type is harmless (the method-signature
        rule applied to fields): a dev-mode reload re-executes every
        ``field_type`` call, and an identical type cannot change any
        judgment, so it must not invalidate anything.
        """
        ty = parse_type(t) if isinstance(t, str) else t
        with self.lock:
            key = (owner, field_name)
            if self._fields.get(key) == ty:
                return
            self._fields[key] = ty
            self.version += 1
            self._notify(owner, field_name, "field")

    # -- queries -------------------------------------------------------------

    def lookup(self, owner: str, name: str,
               kind: str = INSTANCE) -> Optional[MethodSig]:
        return self._sigs.get((owner, name, kind))

    def lookup_field(self, owner: str, field_name: str) -> Optional[Type]:
        return self._fields.get((owner, field_name))

    def sigs(self) -> Iterable[MethodSig]:
        return self._sigs.values()

    def sig_count(self) -> int:
        return len(self._sigs)

    def methods_of(self, owner: str) -> List[MethodSig]:
        return [s for s in self._sigs.values() if s.owner == owner]

    # -- notification ----------------------------------------------------------

    def on_change(self, listener: Callable[[str, str, str], None]) -> None:
        """Register a callback fired as (owner, name, kind) on mutation."""
        self._listeners.append(listener)

    def _notify(self, owner: str, name: str, kind: str) -> None:
        for listener in self._listeners:
            listener(owner, name, kind)

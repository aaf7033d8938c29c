"""Method wrapping — the interception machinery RDL provides Hummingbird.

"Hummingbird's type annotation stores type information in a map and wraps
the associated method to intercept calls to it" (section 4).  This module
does the wrapping on host classes: the wrapper forwards every call through
:meth:`repro.core.engine.Engine.invoke`, which runs the JIT protocol, then
calls the original.

Wrapping happens once per *defining* class; the engine keys checking and
caching by the *receiver's* class, so mixin methods are checked per
including class (the paper's module-handling strategy).

``pre``/``post`` contracts (the RDL feature Figs. 1 and 2 use to generate
types when metaprogramming runs) are implemented here too: contracts run
inside the wrapper, before and after the original body.  Contract
*resolution* (which ``(class, name)`` entry applies to a receiver) is
memoized per ``(defining owner, receiver class, name)`` and flushed
whenever a contract store is created — contracted metaprogramming calls
no longer re-walk the receiver MRO with per-class dict probes.  The
memo is bounded (``_CONTRACT_MEMO_MAX``): its keys hold live class
objects, and dev-mode reload churn must not pin every receiver class
generation for the engine's lifetime.

Tier-2 interplay: the engine's specializer
(:mod:`repro.core.specialize`) may displace a generic wrapper installed
here with a compiled per-site wrapper.  Both :func:`wrap_method` and
:func:`unwrap_method` therefore notify the specializer before rebinding
a slot themselves, so a stale deopt can never resurrect a superseded
wrapper; and registering any contract deoptimizes every promoted site —
contracts only run in the generic wrapper.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Tuple

from ..rdl.registry import CLASS, INSTANCE


class ContractViolation(Exception):
    """A ``pre`` or ``post`` contract returned a falsy value."""


# Contracts keyed by (class name, method name); run by the wrapper.
_PRE_KEY = "__hb_pres__"
_POST_KEY = "__hb_posts__"

#: memo-miss sentinel (None is a legitimate negative resolution).
_UNRESOLVED = object()

#: bound on the contract-resolution memo.  Its keys hold live class
#: objects; unbounded, dev-mode reload churn (a fresh class per reload)
#: would pin every receiver class ever seen for the engine's lifetime.
#: At the cap the memo is dropped wholesale — it is a pure cache, and
#: the next resolution rebuilds the hot entries.
_CONTRACT_MEMO_MAX = 512


def staticmethod_refusal(owner_name: str, name: str) -> Exception:
    """The single source of the staticmethod-interception refusal,
    shared by :func:`wrap_method`, ``Engine._annotate_locked``, and
    ``annotations.TypedMethod`` so the policy and wording cannot
    drift."""
    from ..core.errors import TypeSignatureError
    return TypeSignatureError(
        f"{owner_name}#{name} is a staticmethod — there is no receiver "
        f"class to key the JIT protocol on, so it cannot be intercepted; "
        f"make it an instance/class method, or record a trusted signature "
        f"without wrapping (annotate(wrap=False) / @typed(check=False))")


def wrap_method(engine, pycls: type, name: str, *, kind: str = INSTANCE,
                fn=None) -> None:
    """Install (or refresh) the interception wrapper for ``pycls.name``.

    Staticmethods are refused **loudly**: the interception protocol
    keys checking by the receiver's class, and a staticmethod has no
    receiver — the old behavior (extracting ``__func__`` and
    re-installing the wrapper as a plain function) shifted the call's
    first real argument into the wrapper's ``recv`` slot, silently
    corrupting every call.  Raising keeps the refusal visible on every
    path that reaches here (annotation, contract registration, pending
    re-wraps) instead of silently recording signatures or contracts
    that would never be enforced.

    Callers hold the engine's writer lock, as every engine path does.
    """
    def_cls = _defining_class(pycls, name)
    if def_cls is None:
        def_cls = pycls
    raw = def_cls.__dict__.get(name)
    if isinstance(raw, staticmethod):
        raise staticmethod_refusal(def_cls.__name__, name)
    _discard_specialization(engine, def_cls, name)
    as_classmethod = kind == CLASS or isinstance(raw, classmethod)
    if fn is None:
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
    original = getattr(fn, "__hb_original__", fn)
    def_owner = def_cls.__name__

    invoke = engine.invoke

    @functools.wraps(original)
    def wrapper(recv, /, *args, **kwargs):
        # Contracts are rare (metaprogramming hooks); the common wrapper
        # does exactly one call into the engine's JIT protocol.
        if not engine._contracts:
            return invoke(def_owner, name, kind, original, recv, args,
                          kwargs)
        _run_contracts(engine, recv, def_owner, name, _PRE_KEY, args, kwargs)
        result = invoke(def_owner, name, kind, original, recv, args, kwargs)
        _run_contracts(engine, recv, def_owner, name, _POST_KEY, args,
                       kwargs, result=result)
        return result

    wrapper.__hb_original__ = original
    wrapper.__hb_engine__ = engine
    wrapper.__hb_kind__ = kind
    installed = classmethod(wrapper) if as_classmethod else wrapper
    setattr(def_cls, name, installed)


def unwrap_method(pycls: type, name: str) -> None:
    """Restore the original method (used by engine teardown in tests)."""
    def_cls = _defining_class(pycls, name)
    if def_cls is None:
        return
    raw = def_cls.__dict__.get(name)
    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    original = getattr(fn, "__hb_original__", None)
    if original is not None:
        engine = fn.__hb_engine__
        with engine.write_lock:  # guards the specializer's registry
            _discard_specialization(engine, def_cls, name)
            setattr(def_cls, name, original)


def _discard_specialization(engine, def_cls: type, name: str) -> None:
    """Tell the engine's specializer this slot is being rebound by hand:
    its record of the displaced generic wrapper is now obsolete."""
    specializer = getattr(engine, "_specializer", None)
    if specializer is not None:
        specializer.discard_slot(def_cls, name)


def is_wrapped(pycls: type, name: str) -> bool:
    def_cls = _defining_class(pycls, name)
    if def_cls is None:
        return False
    raw = def_cls.__dict__.get(name)
    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    return getattr(fn, "__hb_original__", None) is not None


def add_pre(engine, pycls: type, name: str, contract: Callable) -> None:
    """Attach a precondition — runs with the call's arguments before the
    method body.  Figs. 1 and 2 use exactly this to generate types as
    metaprogramming executes."""
    _contracts_on(engine, pycls, name).setdefault(_PRE_KEY, []).append(
        contract)


def add_post(engine, pycls: type, name: str, contract: Callable) -> None:
    """Attach a postcondition — runs with (result, *args) after the body."""
    _contracts_on(engine, pycls, name).setdefault(_POST_KEY, []).append(
        contract)


def _contracts_on(engine, pycls: type, name: str) -> Dict[str, List]:
    # Contract registration is a mutation wave: it runs under the
    # engine's writer lock so it serializes with tier-2 promotion (which
    # re-validates contracts-empty under the same lock) — otherwise a
    # promotion in flight could install a specialized wrapper, which
    # never runs contract hooks, after deoptimize_all() below ran.
    with engine.write_lock:
        store = engine.__dict__.setdefault("_contracts", {})
        key = (pycls.__name__, name)
        if key not in store:
            # Wrap *before* creating the store entry: wrap_method
            # refuses staticmethod slots by raising, and a failed
            # registration must not leave an empty entry behind — a
            # non-empty ``_contracts`` blocks tier-2 promotion
            # engine-wide.  Contracts are Hummingbird instrumentation:
            # in "Orig" mode (intercept=False) nothing is wrapped and
            # no hooks run.
            if engine.config.intercept and not is_wrapped(pycls, name):
                wrap_method(engine, pycls, name)
            store[key] = {}
        # Any contract mutation invalidates memoized resolutions (a new
        # (class, name) entry can shadow an ancestor's for some
        # receivers) and deoptimizes every tier-2 site: specialized
        # wrappers never run contract hooks, so contracts force the
        # generic wrapper everywhere.
        engine.__dict__["_contract_memo"] = {}
        specializer = getattr(engine, "_specializer", None)
        if specializer is not None:
            specializer.deoptimize_all()
        return store[key]


def _run_contracts(engine, recv, owner: str, name: str, which: str,
                   args, kwargs, result=None) -> None:
    store = engine.__dict__.get("_contracts", {})
    cls = type(recv) if not isinstance(recv, type) else recv
    # Resolution memo: the (owner-probe, MRO walk) below depends only on
    # the defining owner, the receiver's class, and the method name.
    # Reads and the idempotent insert are GIL-atomic dict ops; the memo
    # dict is replaced wholesale when contracts change.
    memo = engine.__dict__.get("_contract_memo")
    if memo is None:
        memo = engine.__dict__.setdefault("_contract_memo", {})
    memo_key = (owner, cls, name)
    entry = memo.get(memo_key, _UNRESOLVED)
    if entry is _UNRESOLVED:
        entry = store.get((owner, name))
        if not entry:
            for klass in getattr(cls, "__mro__", ()):
                entry = store.get((klass.__name__, name))
                if entry:
                    break
        if len(memo) >= _CONTRACT_MEMO_MAX:
            # Bounded: reload churn mints a fresh receiver class per
            # reload, and a key pins its class object; dropping the
            # memo wholesale un-pins the dead generations.
            memo.clear()
        memo[memo_key] = entry if entry else None
    if not entry:
        return
    for contract in entry.get(which, ()):  # pragma: no branch
        if which == _PRE_KEY:
            ok = contract(recv, *args, **kwargs)
        else:
            ok = contract(recv, result, *args, **kwargs)
        if not ok:
            kind = "pre" if which == _PRE_KEY else "post"
            raise ContractViolation(
                f"{kind}-condition on {owner}#{name} failed")


def _defining_class(pycls: type, name: str):
    for klass in getattr(pycls, "__mro__", (pycls,)):
        if name in klass.__dict__:
            return klass
    return None

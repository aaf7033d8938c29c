"""Property-based *concurrent* invalidation stress test (hypothesis).

The single-threaded stress harness (``test_invalidation_stress``)
searches for an operation order in which a dependency edge was not
recorded.  This harness searches for a *threading* hole: a mutation
wave racing a concurrent call batch in a way that memoizes a stale
judgment (the lost-invalidation races the epoch guards exist for).

Scripts are *phased* so outcomes stay comparable despite scheduler
nondeterminism: each phase is an optional mutation (applied by the main
thread — one writer wave) followed by a batch of calls executed across
4 worker threads *concurrently with nothing else mutating*.  Within a
phase every call is deterministic, so the phase's outcome multiset must
equal a cache-free, single-threaded oracle replaying the same script.
The races this provokes are real: worker threads are mid-flight
building plans, filling the subtype memo, and re-checking bodies while
the main thread's next wave lands — hypothesis shrinks any divergence
to a minimal phase script.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import Engine

WORKERS = 4
JOIN_S = 60.0

METHODS = ("m0", "m1", "m2")
SIGS = ("(Integer) -> Integer", "(String) -> String",
        "(Integer) -> String", "(Integer) -> Numeric")
FIELD_TYPES = ("Integer", "String", "Numeric")
CALL_ARGS = (0, 7, "word")

#: method body sources, exec'd so dev-mode IR registration works.
BODIES = {
    "identity": "def {name}(self, n):\n    return n\n",
    "inc": "def {name}(self, n):\n    return n + 1\n",
    "stringify": "def {name}(self, n):\n    return 'x'\n",
    "call_m0": "def {name}(self, n):\n    return self.m0(n)\n",
    "call_m1": "def {name}(self, n):\n    return self.m1(n)\n",
    "read_field": "def {name}(self, n):\n    return self.value\n",
}


def _make_fn(body_key, name):
    source = BODIES[body_key].format(name=name)
    namespace = {}
    exec(source, namespace)  # noqa: S102 - test-local, fixed templates
    fn = namespace[name]
    fn.__hb_source__ = source
    return fn, source


mutations = st.one_of(
    st.tuples(st.just("def"), st.sampled_from(METHODS),
              st.sampled_from(sorted(BODIES))),
    st.tuples(st.just("retype"), st.sampled_from(METHODS),
              st.sampled_from(SIGS)),
    st.tuples(st.just("field"), st.sampled_from(FIELD_TYPES)),
    # pure hierarchy wave, racing the worker calls
    st.tuples(st.just("subclass")),
)

calls = st.lists(
    st.tuples(st.sampled_from(METHODS), st.sampled_from(CALL_ARGS)),
    min_size=1, max_size=8)

phases = st.lists(
    st.tuples(st.one_of(st.none(), mutations), calls),
    min_size=1, max_size=6)


def _outcome(obj, meth, arg):
    try:
        # The attribute lookup is part of the observable: calling an
        # undefined method is an AttributeError outcome, not a crash.
        return ("ok", repr(getattr(obj, meth)(arg)))
    except RecursionError:
        # Self-recursive redefinitions blow the host stack in both
        # engines; the trip point (and so the message) varies, so only
        # the error identity is compared.
        return ("err", "RecursionError")
    except Exception as exc:  # noqa: BLE001 - error identity is the property
        return ("err", type(exc).__name__, str(exc))


def _build(engine):
    def init(self):
        self.value = 0

    cls = type("CStress", (object,), {"__init__": init})
    fn, source = _make_fn("identity", "m0")
    engine.define_method(cls, "m0", fn, sig="(Integer) -> Integer",
                         check=True, source=source)
    return cls, cls()


def _apply_mutation(engine, cls, op):
    tag = op[0]
    try:
        if tag == "def":
            _, meth, body_key = op
            fn, source = _make_fn(body_key, meth)
            engine.define_method(cls, meth, fn, source=source)
        elif tag == "retype":
            _, meth, sig = op
            engine.types.replace("CStress", meth, sig, check=True)
        elif tag == "field":
            _, ftype = op
            engine.field_type(cls, "value", ftype)
        elif tag == "subclass":
            # Deterministic names: both replays mint CStressSub1, 2, ...
            count = getattr(cls, "_sub_count", 0) + 1
            cls._sub_count = count
            engine.register_class(
                type(f"CStressSub{count}", (cls,), {}))
    except Exception:  # noqa: BLE001, S110 - mutations that raise (e.g. a
        pass            # retype of an undefined method) are applied
                        # identically in both engines; call outcomes are
                        # the compared observable.


def _replay_threaded(script):
    """Cached engine; each phase's calls run across WORKERS threads."""
    engine = Engine()
    cls, obj = _build(engine)
    phase_outcomes = []
    for mutation, batch in script:
        if mutation is not None:
            _apply_mutation(engine, cls, mutation)
        collected = []
        lock = threading.Lock()

        def worker(idx, batch=batch):
            mine = [_outcome(obj, meth, arg) for meth, arg in batch]
            with lock:
                collected.extend(mine)

        workers = [threading.Thread(target=worker, args=(i,), daemon=True)
                   for i in range(WORKERS)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=JOIN_S)
        assert not any(t.is_alive() for t in workers), "stress deadlock"
        phase_outcomes.append(sorted(collected))
    return phase_outcomes


def _replay_oracle(script):
    """Cache-free oracle; the same schedule single-threaded (each batch
    is executed WORKERS times, matching the threaded total)."""
    engine = Engine(disable_caches=True)
    cls, obj = _build(engine)
    phase_outcomes = []
    for mutation, batch in script:
        if mutation is not None:
            _apply_mutation(engine, cls, mutation)
        collected = []
        for _ in range(WORKERS):
            collected.extend(_outcome(obj, meth, arg)
                             for meth, arg in batch)
        phase_outcomes.append(sorted(collected))
    return phase_outcomes


@pytest.mark.requires_threads
@given(phases)
@settings(max_examples=25, deadline=None)
def test_threaded_interleavings_agree_with_cache_free_oracle(script):
    assert _replay_threaded(script) == _replay_oracle(script)

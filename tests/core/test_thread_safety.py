"""Thread-safety suite: the concurrent engine's soundness observables.

Four properties, each a concrete production failure when violated:

* **outcome soundness** — N request threads sharing one engine produce
  exactly the outcomes a single-threaded oracle produces (read-only
  traffic is deterministic, so multisets must be *equal*, not similar);
* **phase-barrier differential** — serialized mutation waves with
  concurrent call batches in between agree, phase by phase, with a
  cache-free oracle replaying the same script, including mutations
  that *flip* outcomes to type errors (the stale-cache smoking gun);
* **convergence** — fully concurrent mutators and callers cannot wedge
  a cache: once the dust settles, the engine's judgments equal a fresh
  engine built directly in the final state;
* **stats exactness** — every hot counter total is exact after an
  N-thread run (the counters are per-thread shards; a torn ``+= 1``
  would show up here as a lost update).

Everything joins with timeouts; CI runs this file under a
``faulthandler`` timeout so a deadlock dumps stacks instead of hanging.
"""

import threading

import pytest

from repro import Engine, EngineConfig
from repro.concurrency import (
    ConcurrentDriver, build_concurrent_world, churn_recipe, request_thunks,
)

THREADS = 8
JOIN_S = 60.0


def _run_threads(n, target):
    errors = []

    def guarded(idx):
        try:
            target(idx)
        except Exception as exc:  # noqa: BLE001 - surfaced in the assert
            errors.append((idx, repr(exc)))

    workers = [threading.Thread(target=guarded, args=(i,), daemon=True)
               for i in range(n)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=JOIN_S)
    assert not any(t.is_alive() for t in workers), "worker deadlock"
    assert not errors, errors


class _Typed:
    """Module-level typed class: defined once per engine via
    define_method so every engine (cached or oracle) gets its own
    wrapped copy with registered IR."""


_BODY = "def bump(self, n):\n    return n + 1\n"
_MIXED_BODY = "def tag(self, s):\n    return s + '!'\n"


def _typed_world(engine):
    cls = type("ThreadHot", (object,), {})
    namespace = {}
    exec(_BODY, namespace)  # noqa: S102 - fixed test template
    engine.define_method(cls, "bump", namespace["bump"],
                         sig="(Integer) -> Integer", check=True,
                         source=_BODY)
    namespace = {}
    exec(_MIXED_BODY, namespace)  # noqa: S102 - fixed test template
    engine.define_method(cls, "tag", namespace["tag"],
                         sig="(String) -> String", check=True,
                         source=_MIXED_BODY)
    return cls()


# -- stats exactness ---------------------------------------------------------


@pytest.mark.requires_threads
def test_stats_totals_exact_after_n_thread_run():
    """The satellite acceptance: totals are exact, never torn or lost.

    8 threads x 5000 calls each on one engine; every per-call counter
    must equal its closed-form value.  A plain ``self.x += 1`` under
    threads loses updates (three bytecodes, preemptible); the per-thread
    shards make this exact by construction, and this test would catch a
    regression to a shared counter immediately.
    """
    engine = Engine()
    obj = _typed_world(engine)
    obj.bump(0)  # warm: the static check runs, the call plan is built
    per_thread = 5000

    def caller(_idx):
        for i in range(per_thread):
            obj.bump(i)

    before = engine.stats.calls_intercepted
    _run_threads(THREADS, caller)
    stats = engine.stats
    assert stats.calls_intercepted - before == THREADS * per_thread
    # Every one of those calls ran a dynamic decision exactly once:
    # checked or skipped, never both, never neither.
    assert (stats.dynamic_arg_checks + stats.dynamic_arg_checks_skipped
            == stats.calls_intercepted)


@pytest.mark.requires_threads
@pytest.mark.requires_caches
def test_fast_path_hits_exact_under_threads():
    engine = Engine()
    obj = _typed_world(engine)
    obj.bump(0)
    per_thread = 2000

    def caller(_idx):
        for i in range(per_thread):
            obj.bump(i)

    hits0 = engine.stats.fast_path_hits
    _run_threads(THREADS, caller)
    assert engine.stats.fast_path_hits - hits0 == THREADS * per_thread


# -- outcome soundness -------------------------------------------------------


@pytest.mark.requires_threads
@pytest.mark.parametrize("app", ["pubs", "cct", "talks"])
def test_concurrent_outcomes_match_oracle(app):
    """N threads replaying the read-only request mix produce exactly the
    single-threaded outcome multiset, for every subject app."""
    world = build_concurrent_world(app)
    thunks = request_thunks(world)
    for thunk in thunks:  # warm: annotations executed, checks cached
        thunk()
    driver = ConcurrentDriver(thunks, threads=THREADS, requests=96)
    run = driver.run()
    oracle = driver.run_single_threaded_oracle()
    assert not run.crashes, run.crashes
    assert run.outcome_multiset() == oracle.outcome_multiset()


@pytest.mark.requires_threads
def test_semantics_preserving_churn_does_not_change_outcomes():
    """A dev-mode reload wave (same-signature retype + fresh class +
    identical field_type) firing every few ms under 8-thread load must
    not change a single outcome — stale *or* torn caches both surface
    as a divergence here."""
    world = build_concurrent_world("pubs")
    thunks = request_thunks(world)
    for thunk in thunks:
        thunk()
    driver = ConcurrentDriver(thunks, threads=THREADS, requests=160,
                              churn=churn_recipe(world),
                              churn_interval_s=0.002)
    run = driver.run()
    oracle = driver.run_single_threaded_oracle()
    assert not run.crashes, run.crashes
    assert run.churn_applied > 0
    assert run.outcome_multiset() == oracle.outcome_multiset()


# -- phase-barrier differential ---------------------------------------------

#: (signature, argument, still_well_typed) — retyping the callee's
#: return type to String makes the *caller's* cached derivation
#: ill-typed: the next call must re-check and raise StaticTypeError,
#: in every thread, never replay the memoized success.
_PHASES = [
    ("(Integer) -> Integer", 3, True),
    ("(Integer) -> String", 3, False),
    ("(Integer) -> Integer", 5, True),
    ("(Integer) -> Numeric", 5, True),
    ("(Integer) -> String", 7, False),
    ("(Integer) -> Integer", 7, True),
]

_BASE_BODY = "def base(self, n):\n    return n\n"
_DOUBLE_BODY = "def double(self, n):\n    return self.base(n) + n\n"


def _phase_world(engine):
    cls = type("PhaseCls", (object,), {})
    for name, body, sig in (("base", _BASE_BODY, "(Integer) -> Integer"),
                            ("double", _DOUBLE_BODY,
                             "(Integer) -> Integer")):
        namespace = {}
        exec(body, namespace)  # noqa: S102 - fixed test template
        engine.define_method(cls, name, namespace[name], sig=sig,
                             check=True, source=body)
    return cls()


def _phase_outcomes_threaded(calls_per_thread=8):
    engine = Engine()
    obj = _phase_world(engine)
    phases = []
    for sig, arg, _ in _PHASES:
        engine.types.replace("PhaseCls", "base", sig, check=True)
        outcomes = []
        lock = threading.Lock()

        def caller(_idx):
            mine = []
            for _ in range(calls_per_thread):
                try:
                    mine.append(("ok", repr(obj.double(arg))))
                except Exception as exc:  # noqa: BLE001 - identity compared
                    mine.append(("err", type(exc).__name__, str(exc)))
            with lock:
                outcomes.extend(mine)

        _run_threads(4, caller)
        phases.append(sorted(outcomes))
    return phases


def _phase_outcomes_oracle(calls_per_thread=8):
    engine = Engine(disable_caches=True)
    obj = _phase_world(engine)
    phases = []
    for sig, arg, _ in _PHASES:
        engine.types.replace("PhaseCls", "base", sig, check=True)
        outcomes = []
        for _ in range(4 * calls_per_thread):
            try:
                outcomes.append(("ok", repr(obj.double(arg))))
            except Exception as exc:  # noqa: BLE001 - identity compared
                outcomes.append(("err", type(exc).__name__, str(exc)))
        phases.append(sorted(outcomes))
    return phases


@pytest.mark.requires_threads
def test_phase_barrier_differential_vs_cache_free_oracle():
    """Serialized mutation waves, concurrent call batches between them:
    every phase's outcome multiset must equal the cache-free oracle's —
    including the phases whose retype flips calls to StaticTypeError."""
    threaded = _phase_outcomes_threaded()
    oracle = _phase_outcomes_oracle()
    assert threaded == oracle
    # the scenario is not vacuous: some phases actually erred
    assert any(o and o[0][0] == "err" for o in oracle)


# -- convergence under concurrent mutation ----------------------------------


@pytest.mark.requires_threads
def test_concurrent_mutation_converges_to_final_state():
    """Callers and *mutators* genuinely interleave (no barriers).  Each
    mutator owns a disjoint method and ends on a known signature, so the
    final table is deterministic even though the interleaving is not;
    after the dust settles the engine must agree judgment-for-judgment
    with a fresh engine built directly in that final state."""
    sig_cycle = ["(Integer) -> Integer", "(Integer) -> Numeric",
                 "(Integer) -> Integer"]

    def build(engine):
        cls = type("ConvergeCls", (object,), {})
        for name in ("m0", "m1", "m2"):
            body = f"def {name}(self, n):\n    return n + 1\n"
            namespace = {}
            exec(body, namespace)  # noqa: S102 - fixed test template
            engine.define_method(cls, name, namespace[name],
                                 sig="(Integer) -> Integer", check=True,
                                 source=body)
        return cls()

    engine = Engine()
    obj = build(engine)
    stop = threading.Event()

    def mutator(idx):
        # mutators 0..2 each own one method; the cycle ends where it
        # started, so the final signature is known.
        name = f"m{idx}"
        for _ in range(30):
            for sig in sig_cycle:
                engine.types.replace("ConvergeCls", name, sig, check=True)

    def caller(idx):
        name = f"m{idx % 3}"
        while not stop.is_set():
            try:
                getattr(obj, name)(idx)
            except Exception:  # noqa: BLE001, S110 - transient states are
                pass           # legitimate mid-mutation; convergence is
                               # what this test asserts, below

    callers = [threading.Thread(target=caller, args=(i,), daemon=True)
               for i in range(4)]
    for t in callers:
        t.start()
    _run_threads(3, mutator)
    stop.set()
    for t in callers:
        t.join(timeout=JOIN_S)
    assert not any(t.is_alive() for t in callers), "caller deadlock"

    # Quiesced: judgments must equal a fresh engine in the final state.
    oracle_engine = Engine(disable_caches=True)
    oracle_obj = build(oracle_engine)

    def outcome(o, name):
        try:
            return ("ok", repr(getattr(o, name)(11)))
        except Exception as exc:  # noqa: BLE001 - identity compared
            return ("err", type(exc).__name__, str(exc))

    for name in ("m0", "m1", "m2"):
        assert outcome(obj, name) == outcome(oracle_obj, name)


# -- tier-2 specialization under concurrent invalidation ---------------------


@pytest.mark.requires_threads
@pytest.mark.requires_specialization
def test_invalidation_waves_race_specialized_calls():
    """Mutator threads fire invalidation waves (deopts) while caller
    threads ride specialized wrappers (and re-promote them).  Transient
    outcomes are legitimate mid-mutation; the properties are (a) no
    crash or wedge, (b) promotion/deopt both actually happened, and
    (c) after quiescing, judgments equal a fresh cache-free oracle in
    the final state."""
    sig_cycle = ["(Integer) -> Integer", "(Integer) -> String",
                 "(Integer) -> Numeric", "(Integer) -> Integer"]

    def build(engine):
        cls = type("SpecRace", (object,), {})
        for name in ("m0", "m1"):
            body = f"def {name}(self, n):\n    return n + 1\n"
            namespace = {}
            exec(body, namespace)  # noqa: S102 - fixed test template
            engine.define_method(cls, name, namespace[name],
                                 sig="(Integer) -> Integer", check=True,
                                 source=body)
        return cls()

    engine = Engine(EngineConfig(specialize_threshold=3))
    obj = build(engine)
    stop = threading.Event()

    def mutator(idx):
        name = f"m{idx % 2}"
        for _ in range(40):  # each cycle ends on the starting signature
            for sig in sig_cycle:
                engine.types.replace("SpecRace", name, sig, check=True)

    def caller(idx):
        name = f"m{idx % 2}"
        while not stop.is_set():
            try:
                getattr(obj, name)(idx)
            except Exception:  # noqa: BLE001, S110 - transient states are
                pass           # legitimate mid-mutation; convergence is
                               # asserted after quiescing, below

    callers = [threading.Thread(target=caller, args=(i,), daemon=True)
               for i in range(4)]
    for t in callers:
        t.start()
    _run_threads(2, mutator)
    stop.set()
    for t in callers:
        t.join(timeout=JOIN_S)
    assert not any(t.is_alive() for t in callers), "caller deadlock"

    stats = engine.stats
    assert stats.promotions > 0, "the race never promoted a site"
    assert stats.deopts > 0, "the waves never deoptimized a site"

    oracle_engine = Engine(disable_caches=True)
    oracle_obj = build(oracle_engine)

    def outcome(o, name):
        try:
            return ("ok", repr(getattr(o, name)(9)))
        except Exception as exc:  # noqa: BLE001 - identity compared
            return ("err", type(exc).__name__, str(exc))

    for name in ("m0", "m1"):
        assert outcome(obj, name) == outcome(oracle_obj, name)


@pytest.mark.requires_threads
@pytest.mark.requires_specialization
def test_invalidation_waves_race_poly_and_kwargs_sites():
    """The shared-slot/kwargs variant of the specialization race:
    caller threads drive a base-class method hot under *two* subclass
    receivers (one promotes the slot, the other bails to the generic
    tier) with a mix of positional and keyword calls, while mutator
    threads fire retype waves that deopt the site mid-flight.
    Properties: no crash or wedge, promotion and deopt both actually
    happened, and after quiescing judgments equal a fresh cache-free
    oracle."""
    sig_cycle = ["(Integer) -> Integer", "(Integer) -> String",
                 "(Integer) -> Numeric", "(Integer) -> Integer"]

    def build(engine):
        cls = type("PolyRace", (object,), {})
        body = "def m0(self, n):\n    return n + 1\n"
        namespace = {}
        exec(body, namespace)  # noqa: S102 - fixed test template
        engine.define_method(cls, "m0", namespace["m0"],
                             sig="(Integer) -> Integer", check=True,
                             source=body)
        sub_a = type("PolyRaceA", (cls,), {})
        sub_b = type("PolyRaceB", (cls,), {})
        engine.register_class(sub_a)
        engine.register_class(sub_b)
        return sub_a(), sub_b()

    engine = Engine(EngineConfig(specialize_threshold=3))
    a, b = build(engine)
    stop = threading.Event()

    def mutator(_idx):
        for _ in range(40):  # each cycle ends on the starting signature
            for sig in sig_cycle:
                engine.types.replace("PolyRace", "m0", sig, check=True)

    def caller(idx):
        obj = a if idx % 2 else b
        use_kwargs = idx % 4 < 2
        while not stop.is_set():
            try:
                if use_kwargs:
                    obj.m0(n=idx)
                else:
                    obj.m0(idx)
            except Exception:  # noqa: BLE001, S110 - transient states are
                pass           # legitimate mid-mutation; convergence is
                               # asserted after quiescing, below

    callers = [threading.Thread(target=caller, args=(i,), daemon=True)
               for i in range(4)]
    for t in callers:
        t.start()
    _run_threads(2, mutator)
    stop.set()
    for t in callers:
        t.join(timeout=JOIN_S)
    assert not any(t.is_alive() for t in callers), "caller deadlock"

    stats = engine.stats
    assert stats.promotions > 0, "the race never promoted a site"
    assert stats.deopts > 0, "the waves never deoptimized a site"

    oracle_engine = Engine(disable_caches=True)
    oa, ob = build(oracle_engine)

    def outcome(o, use_kwargs):
        try:
            return ("ok", repr(o.m0(n=9) if use_kwargs else o.m0(9)))
        except Exception as exc:  # noqa: BLE001 - identity compared
            return ("err", type(exc).__name__, str(exc))

    for pair in ((a, oa), (b, ob)):
        for use_kwargs in (False, True):
            assert outcome(pair[0], use_kwargs) == outcome(pair[1],
                                                           use_kwargs)


@pytest.mark.requires_threads
@pytest.mark.requires_specialization
def test_stats_stay_exact_with_specialized_wrappers():
    """The per-call counter invariants survive tier 2 under N threads:
    specialized wrappers bump the same sharded counters the generic
    path does, so totals remain exact (never torn, never double)."""
    engine = Engine(EngineConfig(specialize_threshold=3))
    obj = _typed_world(engine)
    obj.bump(0)
    for i in range(10):
        obj.bump(i)  # promote before the measured window
    stats = engine.stats
    assert stats.promotions >= 1
    per_thread = 3000
    calls0 = stats.calls_intercepted
    spec0 = stats.specialized_hits
    fast0 = stats.fast_path_hits

    def caller(_idx):
        for i in range(per_thread):
            obj.bump(i)

    _run_threads(THREADS, caller)
    assert stats.calls_intercepted - calls0 == THREADS * per_thread
    assert stats.fast_path_hits - fast0 == THREADS * per_thread
    assert stats.specialized_hits - spec0 == THREADS * per_thread
    assert (stats.dynamic_arg_checks + stats.dynamic_arg_checks_skipped
            == stats.calls_intercepted)


# -- memo integrity under load ----------------------------------------------


@pytest.mark.requires_threads
@pytest.mark.requires_caches
def test_churned_plans_rebuild_and_stay_per_key():
    """After a churn run, warm sites for *unchurned* methods must still
    be plan hits (per-key invalidation survived concurrency), and the
    churned method's plan must have been rebuilt, not wedged."""
    world = build_concurrent_world("pubs")
    thunks = request_thunks(world)
    for thunk in thunks:
        thunk()
    driver = ConcurrentDriver(thunks, threads=4, requests=80,
                              churn=churn_recipe(world),
                              churn_interval_s=0.002)
    run = driver.run()
    assert not run.crashes, run.crashes
    stats = world.engine.stats
    hits0, calls0 = stats.fast_path_hits, stats.calls_intercepted
    for thunk in thunks:  # post-churn sweep: everything warm again
        thunk()
    rate = (stats.fast_path_hits - hits0) / (
        stats.calls_intercepted - calls0)
    assert rate > 0.95, rate

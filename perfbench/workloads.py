"""The four benchmark workloads, each a seeded, periodic request schedule
over the paper's apps, built through their public entry points.

A :class:`Stage` is one engine configuration's private copy of a
workload: its worlds plus one callable per schedule slot.  Every
configuration (Hum, Orig, the tier ablations, the cache-free oracle)
builds its own stage and runs the same schedule slots, so outcomes can
be compared index by index.

Schedules are periodic with period ``len(schedule)``.  The recipes keep
every request's outcome independent of history (write cycles restore
the rows they touch; created ids are masked), so slot ``j`` of a long
run must produce the outcome the oracle produced for slot
``j % period`` -- which is what lets a cache-free replay of one period
check every measured request.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.apps import all_builders
from repro.core import Engine, EngineConfig
from repro.serving import churn, recipes

EngineFactory = Callable[[], Engine]

#: The reduced app sizes the pytest benchmark suite uses
#: (``benchmarks/conftest.py::BENCH_CFG``), so that cold checking rather
#: than the pubs/cct hot loops dominates a bring-up.
BRINGUP_CFG: Dict[str, dict] = {
    "talks": {},
    "boxroom": {},
    "pubs": {"publications": 40},
    "rolify": {},
    "cct": {"repeats": 10},
    "countries": {"repeats": 5},
}

#: churn kinds applied in rotation by metaprog_churn, one per step.
CHURN_KINDS = ("retype", "reload", "typegen")
CHURN_EVERY = 50

CONFIGS: Dict[str, Callable[[], EngineConfig]] = {
    "orig": lambda: EngineConfig(intercept=False),
    "t1": lambda: EngineConfig(specialize=False),
    "t2": lambda: EngineConfig(elide=False),
    "hum": EngineConfig,
}


def engine_factory(config: str) -> EngineFactory:
    """An engine maker for a named configuration, or the cache-free
    oracle for ``"oracle"``."""
    if config == "oracle":
        return lambda: Engine(disable_caches=True)
    make_config = CONFIGS[config]
    return lambda: Engine(make_config())


#: One schedule slot: (pool index, churn kind index or -1).
Slot = Tuple[int, int]


Counts = Dict[str, int]


@dataclass
class Stage:
    """One engine configuration's worlds, driven slot by slot."""

    schedule: List[Slot]
    pool: List[Callable[[], object]]
    churns: List[Callable[[int], None]]
    #: engine counters summed over every engine this stage drove.
    counts: Callable[[], Counts]
    _churn_steps: List[int] = field(init=False)

    def __post_init__(self) -> None:
        self._churn_steps = [0] * len(self.churns)

    def call(self, j: int) -> object:
        """Run schedule slot ``j`` (mod the period) and return its result."""
        thunk, kind = self.schedule[j % len(self.schedule)]
        if kind >= 0:
            step = self._churn_steps[kind]
            self._churn_steps[kind] = step + 1
            self.churns[kind](step)
        return self.pool[thunk]()


class Raised:
    """A request that raised: its error identity is its outcome."""

    __slots__ = ("key",)

    def __init__(self, exc: Exception) -> None:
        self.key = ("err", type(exc).__name__, str(exc))


def outcome_hash(result: object) -> int:
    """What the oracle comparison sees of one request's result: its
    repr with created ids masked, or its error identity."""
    if isinstance(result, Raised):
        return hash(result.key)
    return hash(recipes.mask_ids(repr(result)))


def _add_counts(total: Counts, engine: Engine) -> None:
    snap = engine.stats_snapshot()
    snap["invalidations"] = engine.stats.invalidations
    snap["casts"] = engine.stats.casts
    for name, value in snap.items():
        if isinstance(value, int):
            total[name] = total.get(name, 0) + value


@dataclass
class Workload:
    """A named workload: how to build a stage, draw a schedule, warm up."""

    name: str
    why: str
    #: engine maker -> (request pool, churn steps, counter reader).
    build: Callable[[EngineFactory], Tuple[list, list, Callable[[], Counts]]]
    #: minimum schedule length (one period; rounded up to a whole number
    #: of passes over the pool) and requests per timed block.
    period: int
    block: int
    #: measured Hum requests after which peak RSS is sampled, so the
    #: memory figure does not grow with how fast the run went.
    rss_after: int
    churn_every: int = 0

    def schedule(self, seed: int, pool_size: int) -> List[Slot]:
        """The seeded request order: a shuffle of every pool request,
        each repeated equally often to fill ``period``, so every seed has
        the same mix (and the same median).  Churn steps fall at one
        seeded offset in every ``churn_every``-request window, kinds in
        rotation."""
        rng = random.Random(f"{self.name}:{seed}")
        order = list(range(pool_size)) * -(-self.period // pool_size)
        rng.shuffle(order)
        slots = [(i, -1) for i in order]
        if self.churn_every:
            for k, window in enumerate(range(0, len(slots),
                                             self.churn_every)):
                j = window + rng.randrange(min(self.churn_every,
                                               len(slots) - window))
                slots[j] = (slots[j][0], k % len(CHURN_KINDS))
        return slots

    def stage(self, make: EngineFactory, seed: int) -> Stage:
        """Build, seed and fixture this workload's worlds on fresh engines."""
        pool, churns, counts = self.build(make)
        return Stage(self.schedule(seed, len(pool)), pool, churns, counts)

    def warm(self, stage: Stage) -> None:
        """Run one period, so the measured phase starts warm: every read
        site is past ``specialize_threshold`` and every churn path ran."""
        for j in range(len(stage.schedule)):
            stage.call(j)


def _summed(engines: List[Engine]) -> Callable[[], Counts]:
    def counts() -> Counts:
        total: Counts = {}
        for engine in engines:
            _add_counts(total, engine)
        return total
    return counts


def _serving(*apps: Tuple[str, str]):
    def build(make: EngineFactory):
        pool: list = []
        engines: List[Engine] = []
        for app, mix in apps:
            world = recipes.build_serving_world(app, engine=make())
            engines.append(world.engine)
            if mix == "read":
                pool += recipes.read_thunks(world, with_index=True)
            else:
                pool += (recipes.write_heavy_thunks(world) if app == "boxroom"
                         else recipes.write_thunks(world))
        return pool, [], _summed(engines)
    return build


def _churned(make: EngineFactory):
    rolify = recipes.build_serving_world("rolify", engine=make())
    boxroom = recipes.build_serving_world("boxroom", engine=make())
    # Both mixed schedules in one pool; the seeded shuffle interleaves them.
    pool = recipes.mixed_thunks(rolify) + recipes.mixed_thunks(boxroom)
    churns = [churn.retype_churn(boxroom), churn.reload_churn(boxroom),
              churn.typegen_churn(boxroom)]
    return pool, churns, _summed([rolify.engine, boxroom.engine])


def _bringups(make: EngineFactory):
    builders = all_builders()
    # Each bring-up's engine is dropped when it returns, so its counters
    # are folded in as it finishes.
    totals: Counts = {}

    def bring_up(app: str):
        def run():
            world = builders[app](make(), **BRINGUP_CFG[app])
            world.seed()
            result = world.workload()
            _add_counts(totals, world.engine)
            return result
        return run

    return [bring_up(app) for app in BRINGUP_CFG], [], lambda: dict(totals)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "steady_read",
        "Seeded reads on warm tier-2/3 sites: the steady-state tax of "
        "leaving checking on, with no static checks or lowering left.",
        _serving(("boxroom", "read"), ("countries", "read"),
                 ("rolify", "read")),
        period=2400, block=600, rss_after=100_000),
    Workload(
        "write_cycles",
        "Boxroom create/update/destroy cycles and countries rebuilds: "
        "the same warm wrappers as steady_read, over sqldb writes and "
        "casts.",
        _serving(("boxroom", "write"), ("countries", "write")),
        period=1200, block=300, rss_after=50_000),
    Workload(
        "metaprog_churn",
        "Rolify grants and boxroom mixes with a retype/reload/typegen "
        "step every 50 requests: lowering, re-annotation, invalidation "
        "and deopt under traffic.",
        _churned,
        period=1500, block=300, rss_after=50_000,
        churn_every=CHURN_EVERY),
    Workload(
        "cold_start",
        "Each request brings up one of the six apps on a fresh engine: "
        "JIT static checks, cold type parsing and first lowering "
        "dominate.",
        _bringups,
        period=6, block=6, rss_after=400),
)}

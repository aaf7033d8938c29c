"""The lowering memo under threads: the first lowering state shared
across engines.

Eight threads each build their own engine and app world at once, so
every thread registers the same code objects while the memo is cold.
Whichever thread's lowering lands in the memo, every engine must end
up with exactly the IR a memo-free lowering of the same source gives.
CI runs this file in the threaded and free-threaded lanes.
"""

import threading

import pytest

from repro import Engine
from repro.apps import all_builders
from repro.rdl.registry import CLASS, INSTANCE
from repro.ril import CFGRegistry
from repro.ril.registry import _LOWERING_MEMO, _LOWERING_MEMO_LOCK

pytestmark = pytest.mark.requires_threads

THREADS = 8
JOIN_S = 120.0
APPS = ("rolify", "boxroom")


def _build_worlds(barrier, out, idx):
    barrier.wait(timeout=JOIN_S)
    for app in APPS:
        world = all_builders()[app](Engine())
        world.seed()
        out[idx].append(world.engine)


def _lowering(mir):
    return (mir.owner, mir.name, mir.params, mir.body, mir.source_file,
            mir.source_line)


def test_concurrent_registration_matches_a_fresh_lowering():
    with _LOWERING_MEMO_LOCK:
        _LOWERING_MEMO.clear()  # a pure cache: start every entry cold
    barrier = threading.Barrier(THREADS)
    out = [[] for _ in range(THREADS)]
    errors = []

    def guarded(idx):
        try:
            _build_worlds(barrier, out, idx)
        except Exception as exc:  # noqa: BLE001 - surfaced in the assert
            errors.append((idx, repr(exc)))

    workers = [threading.Thread(target=guarded, args=(i,), daemon=True)
               for i in range(THREADS)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=JOIN_S)
    assert not any(t.is_alive() for t in workers), "worker deadlock"
    assert not errors, errors

    fresh_reg = CFGRegistry()
    fresh_reg.memo_enabled = False
    compared = 0
    for engines in out:
        assert len(engines) == len(APPS)
        for engine in engines:
            for owner, name in engine.cfgs.keys():
                mir = engine.cfgs.lookup(owner, name)
                fn = (engine.lookup_callable(owner, name, INSTANCE)
                      or engine.lookup_callable(owner, name, CLASS))
                fresh = fresh_reg.register_function(owner, name, fn)
                # Captures are typed per registration (a cell filled
                # after the world was built shows up only in ``fresh``);
                # the lowering itself must be identical.
                assert _lowering(mir) == _lowering(fresh)
                assert mir.fingerprint == fresh.fingerprint
                compared += 1
    assert compared >= THREADS * len(APPS)

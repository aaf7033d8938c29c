"""Compiled conformance under threads: casts race a hierarchy edit.

Each round, caster threads start ``rdl_cast``-ing a value to a nominal
type whose verdict is false, and the main thread immediately makes a
structural edit that flips it to true: a mixin include, or registering
the value's class under the expected one.  The casters are filling the
class-verdict memo while the edit runs.  Every cast that starts after
the edit returned must see the new verdict: a stale verdict stored
after the edit's flush would fail those casts for good.

With ``slow_fill`` each memo fill pauses between computing its verdict
and storing it, and the edit waits until a caster is in that pause: the
fill straddles the edit, and the version-guarded store is what keeps
the stale answer out.
"""

import sys
import threading
import time

import pytest

from repro import CastError, Engine
from repro.rtypes import typeof

THREADS = 4
ROUNDS = 25
JOIN_S = 60.0


@pytest.fixture
def short_switch_interval():
    """Switch threads every 10 µs, so casts interleave with the edit
    finely."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


@pytest.mark.requires_threads
@pytest.mark.usefixtures("short_switch_interval")
@pytest.mark.parametrize("slow_fill", [False, True])
@pytest.mark.parametrize("edit", ["include", "subclass"])
def test_no_cast_after_an_edit_sees_the_old_verdict(edit, slow_fill,
                                                     monkeypatch):
    filling = threading.Event()
    if slow_fill:
        real = typeof.is_subtype

        def slow(s, t, hier):
            answer = real(s, t, hier)
            filling.set()
            time.sleep(0.001)
            return answer

        monkeypatch.setattr(typeof, "is_subtype", slow)
    engine = Engine()
    hier = engine.hier
    stale = []
    for r in range(ROUNDS):
        host = type(f"Racer{r}", (), {})
        target = f"Flag{r}"
        if edit == "include":
            hier.add_class(host.__name__)
            hier.add_module(target)
        else:
            hier.add_class(target)  # the host class is not registered yet
        edited = threading.Event()
        stop = threading.Event()
        start = threading.Barrier(THREADS + 1, timeout=JOIN_S)

        def cast_loop(value=host(), target=target, edited=edited,
                      stop=stop, start=start):
            start.wait()
            while not stop.is_set():
                after_edit = edited.is_set()
                try:
                    engine.cast(value, target)
                except CastError:
                    if after_edit:
                        stale.append((type(value).__name__, target))
                        return

        workers = [threading.Thread(target=cast_loop, daemon=True)
                   for _ in range(THREADS)]
        for w in workers:
            w.start()
        filling.clear()
        start.wait()
        if slow_fill:
            assert filling.wait(JOIN_S)
        if edit == "include":
            hier.include_module(host.__name__, target)
        else:
            hier.add_class(host.__name__, target)
        edited.set()
        time.sleep(0.005)
        stop.set()
        for w in workers:
            w.join(timeout=JOIN_S)
        assert not any(w.is_alive() for w in workers), "caster deadlock"
    assert not stale, stale

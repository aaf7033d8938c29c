"""In-memory span tracing around calls into each layer's public functions.

Spans are recorded from the benchmark's side only: :func:`instrument`
replaces the listed functions on their classes with a wrapper that opens
a span, and restores the originals when the ``with`` block ends.  The
program's source is untouched.  Stages must be built *inside* the block,
because engines and wrappers bind some of these methods when they are
created.

Each span is ``(name, start_ns, end_ns, parent, request)``, where
``parent`` is the index of the enclosing span or -1.  Self time is a
span's duration minus the duration of its direct children.  Self time
and calls are aggregated over every span; only the first
:data:`KEEP_SPANS` are kept for writing out, which bounds the memory a
long traced run holds.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from typing import Iterator, List, Optional, Tuple

#: (module, class, method, span name).  Several methods may share a name.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.ril.registry", "CFGRegistry", "register_function",
     "ril.register_function"),
    ("repro.core.engine", "Engine", "jit_check", "engine.jit_check"),
    ("repro.core.checker", "Checker", "check_method", "checker.check_method"),
    ("repro.core.engine", "Engine", "annotate", "engine.annotate"),
    ("repro.core.engine", "Engine", "define_method", "engine.define_method"),
    ("repro.core.engine", "Engine", "invalidate", "engine.invalidate"),
    ("repro.core.engine", "Engine", "cast", "engine.cast"),
    ("repro.core.engine", "Engine", "validate_untrusted_hash",
     "engine.validate_untrusted_hash"),
    ("repro.core.engine", "Engine", "invoke", "engine.invoke"),
    ("repro.core.specialize", "Specializer", "maybe_promote",
     "specialize.maybe_promote"),
    ("repro.core.specialize", "Specializer", "deoptimize_keys",
     "specialize.deoptimize_keys"),
    ("repro.core.specialize", "Specializer", "discard_slot",
     "specialize.discard_slot"),
    ("repro.core.elide", "Elider", "analyze", "elide.analyze"),
    ("repro.sqldb.table", "Table", "find", "sqldb.read"),
    ("repro.sqldb.table", "Table", "where", "sqldb.read"),
    ("repro.sqldb.table", "Table", "all_rows", "sqldb.read"),
    ("repro.sqldb.table", "Table", "first_where", "sqldb.read"),
    ("repro.sqldb.table", "Table", "insert", "sqldb.write"),
    ("repro.sqldb.table", "Table", "update", "sqldb.write"),
    ("repro.sqldb.table", "Table", "delete", "sqldb.write"),
    ("repro.rails.application", "RailsApp", "request", "rails.request"),
)

#: spans that run app code inside them: their self time is not a layer
#: cost, so only their counts are reported.
COUNT_ONLY = ("engine.invoke", "rails.request")
KEEP_SPANS = 200_000


class Tracer:
    """Records spans while :attr:`active`; aggregates self time and calls."""

    def __init__(self) -> None:
        self.active = False
        self.request = -1
        self.spans: List[Optional[tuple]] = []
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        #: open spans as [index, children_ns].
        self._stack: List[list] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around each active call."""
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            spans = self.spans
            keep = len(spans) < KEEP_SPANS
            frame = [len(spans) if keep else -1, 0]
            parent = stack[-1][0] if stack else -1
            if keep:
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if keep:
                    spans[frame[0]] = (name, start, end, parent,
                                       self.request)
                self.self_ns[name] += duration - frame[1]
                self.total_ns[name] += duration
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration

        return traced

    def write(self, path) -> None:
        """Write every recorded span as CSV, once, at the end of a run."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,start_ns,end_ns,parent,request\n")
            for span in self.spans:
                if span is not None:
                    out.write("%s,%d,%d,%d,%d\n" % span)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Route every :data:`TARGETS` method through ``tracer`` for the
    duration of the block."""
    saved = []
    try:
        for module, cls_name, method, name in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            saved.append((cls, method, original))
            setattr(cls, method, tracer.wrap(name, original))
        yield tracer
    finally:
        for cls, method, original in reversed(saved):
            setattr(cls, method, original)

"""Hummingbird — just-in-time static type checking for dynamic languages.

A from-scratch Python reproduction of Ren & Foster, PLDI 2016.  Type
annotations execute at run time; each annotated method's body is statically
type checked at its first call against the then-current type table; checks
are memoized and invalidated when the methods or signatures they depend on
change.  Metaprogramming that generates methods can generate their types
the same way.

Quickstart::

    from repro import Engine

    engine = Engine()
    hb = engine.api()

    class Greeter:
        @hb.typed("(String) -> String")
        def greet(self, name):
            return "hello, " + name

    Greeter().greet("world")     # first call: body statically checked
    Greeter().greet("again")     # cache hit: no re-check

Subpackages:

* :mod:`repro.core` — the Hummingbird engine (checker, cache, stats);
* :mod:`repro.rtypes` — the RDL type language;
* :mod:`repro.ril` — the IR front end;
* :mod:`repro.rdl` — contracts and method interception;
* :mod:`repro.formalism` — the paper's core calculus, executable;
* :mod:`repro.sqldb`, :mod:`repro.rails`, :mod:`repro.rolify`,
  :mod:`repro.rstruct` — substrates for the evaluation apps;
* :mod:`repro.apps` — the six subject apps;
* :mod:`repro.evalharness` — regenerates the paper's tables.
"""

from .core import (
    Api, ArgumentTypeError, CastError, Engine, EngineConfig,
    HummingbirdError, NoMethodBodyError, StaticTypeError, TypeSignatureError,
)
from .rtypes import Sym

__version__ = "1.0.0"

__all__ = [
    "Api", "ArgumentTypeError", "CastError", "Engine", "EngineConfig",
    "HummingbirdError", "NoMethodBodyError", "StaticTypeError", "Sym",
    "TypeSignatureError", "__version__",
]

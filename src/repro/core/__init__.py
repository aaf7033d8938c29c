"""``repro.core`` — the Hummingbird engine (the paper's contribution).

Just-in-time static type checking: annotations execute at run time, method
bodies are statically checked at first call against the current type table,
and successful checks are memoized with dependency-based invalidation.
"""

from .annotations import Api, TypedMethod
from .cache import CacheEntry, CheckCache
from .checker import CheckOutcome, Checker
from .deps import DepGraph
from .elide import Elider, elide_disabled_by_env
from .engine import Engine, EngineConfig, caches_disabled_by_env
from .errors import (
    ArgumentTypeError, CastError, HummingbirdError, NoMethodBodyError,
    StaticTypeError, TypeSignatureError,
)
from .specialize import Specializer, specialize_disabled_by_env
from .stats import PhaseTracker, Stats

__all__ = [
    "Api", "ArgumentTypeError", "CacheEntry", "CastError", "CheckCache",
    "CheckOutcome", "Checker", "DepGraph", "Elider", "Engine",
    "EngineConfig", "HummingbirdError", "NoMethodBodyError", "PhaseTracker",
    "Specializer", "StaticTypeError", "Stats", "TypedMethod",
    "TypeSignatureError", "caches_disabled_by_env", "elide_disabled_by_env",
    "specialize_disabled_by_env",
]

"""``repro.ril`` — the intermediate-language front end (RIL analog).

Lowers host-language (Python) method bodies to a simplified IR
(:mod:`~repro.ril.ir`), with JSON round-tripping
(:mod:`~repro.ril.json_io`), a (class, method) → IR registry
(:mod:`~repro.ril.registry`) and structural diffing for dev-mode
invalidation (:mod:`~repro.ril.diff`).  The JIT static checker
(:mod:`repro.core.checker`) is the only pass that reads these bodies.
"""

from . import ir
from .diff import RegistryDiff, bodies_differ, diff_registries, \
    snapshot_fingerprints
from .json_io import dumps, fingerprint, from_json, loads, to_json
from .lower import LoweringError, lower_body, lower_expr, lower_function, \
    lower_stmt
from .registry import (
    CFGRegistry, MethodIR, ParamSpec, RegistrationError,
)

__all__ = [
    "CFGRegistry", "LoweringError", "MethodIR",
    "ParamSpec", "RegistrationError", "RegistryDiff",
    "bodies_differ", "diff_registries", "dumps", "fingerprint", "from_json",
    "ir", "loads", "lower_body", "lower_expr", "lower_function",
    "lower_stmt", "snapshot_fingerprints", "to_json",
]

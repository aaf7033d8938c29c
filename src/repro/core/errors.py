"""Error types for the Hummingbird engine.

Three families mirror the paper:

* :class:`StaticTypeError` — the just-in-time *static* check of a method
  body failed at call time (the errors Table "Type Errors in Talks"
  reports);
* :class:`ArgumentTypeError` / :class:`CastError` — *dynamic* checks
  failed (the (EApp*) side conditions and ``rdl_cast``);
* :class:`NoMethodBodyError` — a method has a signature but no body/IR, the
  third blame case of the formalism.
"""

from __future__ import annotations

from typing import Optional


class HummingbirdError(Exception):
    """Base class for all engine-raised errors."""


class StaticTypeError(HummingbirdError):
    """A method body failed its just-in-time static type check."""

    def __init__(self, message: str, *, owner: str = "?", method: str = "?",
                 line: Optional[int] = None, source_file: str = "?"):
        self.owner = owner
        self.method = method
        self.line = line
        self.source_file = source_file
        where = f"{owner}#{method}"
        if line:
            where += f" ({source_file}:{line})"
        super().__init__(f"{where}: {message}")
        self.message = message


class ArgumentTypeError(HummingbirdError):
    """A dynamic argument check at a statically-typed method's entry failed
    (the ``type_of(v2) <= tau1`` side condition of (EApp*))."""


class CastError(HummingbirdError):
    """``cast(v, "T")`` failed its run-time conformance check."""


class NoMethodBodyError(HummingbirdError):
    """A method with a type signature has no retrievable body to check —
    the formalism's third blame case (typed but undefined)."""


class TypeSignatureError(HummingbirdError):
    """An annotation itself is malformed (bad arity vs. the function,
    unparseable string, unknown class)."""

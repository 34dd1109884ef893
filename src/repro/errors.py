"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  Sub-hierarchies
mirror the subsystems: lattice construction, language processing (lexing,
parsing, validation), certification, flow-logic proof checking, and the
concurrent runtime.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class LatticeError(ReproError):
    """A security-classification scheme is malformed or misused."""


class NotALatticeError(LatticeError):
    """The supplied order is not a complete lattice (Definition 1)."""


class ElementError(LatticeError):
    """An element does not belong to the lattice it was used with."""


class LanguageError(ReproError):
    """Base class for lexing, parsing, and validation failures.

    Carries an optional source location so tooling can point at the
    offending text.
    """

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column if column is not None else '?'}: {message}"
        super().__init__(message)


class LexError(LanguageError):
    """The source text contains an illegal character or token."""


class ParseError(LanguageError):
    """The token stream does not form a legal program."""


class ValidationError(LanguageError):
    """The program is syntactically legal but statically ill-formed.

    Examples: use of an undeclared variable, a ``wait`` on an integer
    variable, or an assignment to a semaphore.
    """


class LoadError(ReproError):
    """The input cannot be read or imported at all (I/O, bad module)."""


class BindingError(ReproError):
    """A static binding (Definition 3) is incomplete or inconsistent."""


class CertificationError(ReproError):
    """Raised when a certification API is misused (not on mere rejection).

    Rejection of a program is a normal result and is reported through
    :class:`repro.core.cfm.CertificationReport`, never as an exception.
    """


class InferenceError(ReproError):
    """Binding inference failed (e.g. the fixed bindings are unsatisfiable)."""


class LogicError(ReproError):
    """Base class for flow-logic failures."""


class AssertionFormError(LogicError):
    """A flow assertion does not have the required {V, L, G} shape."""


class ProofError(LogicError):
    """A proof tree is structurally invalid or a rule is misapplied."""


class EntailmentError(LogicError):
    """The entailment engine was given a query outside its fragment."""


class GenerationError(LogicError):
    """Theorem-1 proof generation failed.

    This is raised when the generator is asked to build a completely
    invariant proof for a program that CFM does not certify; Theorem 1
    only guarantees proofs for certified programs.
    """


class RuntimeFault(ReproError):
    """Base class for concurrent-runtime failures."""


class UndefinedVariableError(RuntimeFault):
    """A process read or wrote a variable missing from the store."""


class SemaphoreError(RuntimeFault):
    """A semaphore operation was applied to a non-semaphore value."""


class DeadlockError(RuntimeFault):
    """Every live process is blocked on a ``wait``; execution cannot proceed."""

    def __init__(self, message: str, blocked: Optional[tuple] = None):
        super().__init__(message)
        #: Names/ids of the blocked processes, if known.
        self.blocked = tuple(blocked) if blocked else ()


class StepLimitExceeded(RuntimeFault):
    """Execution exceeded the configured step budget (possible divergence)."""


class ExplorationLimitExceeded(RuntimeFault):
    """The interleaving explorer exceeded its state or depth budget."""

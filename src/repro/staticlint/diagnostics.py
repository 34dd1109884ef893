"""The diagnostic model for ``repro lint``.

Every finding a lint pass produces is a :class:`Diagnostic`: a stable
error code (``RPLnnn``), a severity, a :class:`Span` built from the
AST's :class:`~repro.lang.ast.Loc` positions, a human message, and an
optional fix-it hint.  Diagnostics serialize to JSON (``to_dict``) with
a stable key order so ``repro lint --json`` output can be golden-tested
and consumed by editors or CI.

The code space is partitioned by pass family:

* ``RPL0xx`` — front-end problems (parse, validation, loader);
* ``RPL1xx`` — static deadlock analysis;
* ``RPL2xx`` — races and atomicity;
* ``RPL3xx`` — dataflow (use-before-assign, dead code);
* ``RPL4xx`` — unused declarations;
* ``RPL5xx`` — security-label diagnostics (label creep, channels).

The authoritative human-readable table lives in ``docs/linting.md``;
``tests/staticlint/test_docs_codes.py`` keeps the two in sync.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lang.ast import Loc, Node, iter_nodes


class Severity:
    """Diagnostic severities, ordered ``INFO < WARNING < ERROR``."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    _RANK = {INFO: 0, WARNING: 1, ERROR: 2}

    @classmethod
    def rank(cls, severity: str) -> int:
        """Numeric rank for comparisons (higher is more severe)."""
        return cls._RANK[severity]


#: code -> (symbolic name, default severity, one-line description).
CODES: Dict[str, Tuple[str, str, str]] = {
    "RPL001": ("parse-error", Severity.ERROR,
               "the source text does not parse as a program"),
    "RPL002": ("validation-error", Severity.ERROR,
               "the program is statically ill-formed (validator problem)"),
    "RPL101": ("wait-never-signalled", Severity.ERROR,
               "a semaphore is waited on but never signalled and its "
               "initial value cannot cover the waits"),
    "RPL102": ("semaphore-imbalance", Severity.WARNING,
               "more waits are possible than signals are guaranteed; "
               "a schedule may starve a waiter"),
    "RPL103": ("wait-for-cycle", Severity.WARNING,
               "semaphores are acquired in a cyclic order across waits"),
    "RPL201": ("unsynchronized-shared-access", Severity.WARNING,
               "a variable is written in one cobegin arm and accessed in a "
               "sibling arm with no common semaphore held"),
    "RPL202": ("atomicity-violation", Severity.WARNING,
               "an atomic action makes more than one reference to "
               "process-shared variables (Owicki-Gries condition)"),
    "RPL301": ("use-before-assign", Severity.WARNING,
               "a variable may be read before any assignment reaches it "
               "(the read sees the implicit initial value)"),
    "RPL302": ("dead-assignment", Severity.WARNING,
               "an assigned value is always overwritten before any read"),
    "RPL303": ("unreachable-code", Severity.WARNING,
               "a statement can never execute (constant guard)"),
    "RPL401": ("unused-variable", Severity.WARNING,
               "an integer variable is declared but never used"),
    "RPL402": ("unused-semaphore", Severity.WARNING,
               "a semaphore is declared but never waited on or signalled"),
    "RPL501": ("label-creep", Severity.ERROR,
               "certification requires a class for a variable that is "
               "not below its policy binding"),
    "RPL502": ("synchronization-channel", Severity.WARNING,
               "a wait/signal is control-dependent on data: the order of "
               "semaphore operations carries information (Figure 3)"),
    "RPL503": ("over-classification", Severity.INFO,
               "a sink variable is bound strictly above the least class "
               "certification requires (precision gap, section 5.2)"),
}


@dataclass(frozen=True)
class Span:
    """A 1-based source region ``line:column .. end_line:end_column``.

    Synthesized nodes (``Loc.none()``) produce the empty span
    ``0:0``; :func:`repro.lang.ast.propagate_locs` exists precisely to
    make these rare.
    """

    line: int
    column: int
    end_line: int
    end_column: int

    @staticmethod
    def from_loc(loc: Loc) -> "Span":
        """A single-point span at ``loc``."""
        return Span(loc.line, loc.column, loc.line, loc.column)

    @staticmethod
    def from_node(node: Node) -> "Span":
        """The region covered by ``node``: its own location extended to
        the last located descendant."""
        start = node.loc
        end = start
        for sub in iter_nodes(node):
            loc = sub.loc
            if loc and (loc.line, loc.column) > (end.line, end.column):
                end = loc
        if not start:
            # fall back to the earliest located descendant
            located = [
                n.loc for n in iter_nodes(node) if n.loc
            ]
            if located:
                start = min(located, key=lambda l: (l.line, l.column))
            else:
                return Span(0, 0, 0, 0)
        return Span(start.line, start.column, end.line, end.column)

    def __bool__(self) -> bool:
        return self.line > 0

    def __str__(self) -> str:
        if not self:
            return "<synth>"
        if (self.line, self.column) == (self.end_line, self.end_column):
            return f"{self.line}:{self.column}"
        return f"{self.line}:{self.column}-{self.end_line}:{self.end_column}"

    def to_dict(self) -> Dict[str, int]:
        """JSON shape (stable key order)."""
        return {
            "line": self.line,
            "column": self.column,
            "end_line": self.end_line,
            "end_column": self.end_column,
        }


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding.

    ``code`` is a stable ``RPLnnn`` identifier from :data:`CODES`;
    ``extra`` carries machine-readable pass-specific details (e.g. the
    semaphore counts behind an imbalance) and must be JSON-safe.
    """

    code: str
    message: str
    span: Span
    severity: str = Severity.WARNING
    pass_name: str = ""
    hint: Optional[str] = None
    extra: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity not in Severity._RANK:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def name(self) -> str:
        """The symbolic name of this diagnostic's code."""
        return CODES[self.code][0]

    def sort_key(self) -> Tuple:
        """Diagnostics order by position, then code."""
        return (self.span.line, self.span.column, self.code, self.message)

    def to_dict(self) -> Dict[str, object]:
        """JSON shape (stable key order; golden-tested)."""
        out: Dict[str, object] = {
            "code": self.code,
            "name": self.name,
            "severity": self.severity,
            "span": self.span.to_dict(),
            "message": self.message,
        }
        if self.hint:
            out["hint"] = self.hint
        if self.extra:
            out["extra"] = {k: v for k, v in self.extra}
        return out

    def __str__(self) -> str:
        hint = f" (hint: {self.hint})" if self.hint else ""
        return f"{self.span}: {self.severity} {self.code} {self.message}{hint}"


def make(code: str, message: str, node: Optional[Node] = None, *,
         span: Optional[Span] = None, severity: Optional[str] = None,
         pass_name: str = "", hint: Optional[str] = None,
         extra: Optional[Dict[str, object]] = None) -> Diagnostic:
    """Convenience constructor: default severity from :data:`CODES`,
    span from ``node`` unless given explicitly."""
    if span is None:
        span = Span.from_node(node) if node is not None else Span(0, 0, 0, 0)
    return Diagnostic(
        code=code,
        message=message,
        span=span,
        severity=severity if severity is not None else CODES[code][1],
        pass_name=pass_name,
        hint=hint,
        extra=tuple(sorted(extra.items())) if extra else (),
    )


def matches(code: str, prefixes: Tuple[str, ...]) -> bool:
    """flake8-style prefix matching: ``RPL1`` selects all ``RPL1xx``."""
    return any(code.startswith(p) for p in prefixes)


def filter_diagnostics(
    diagnostics: List[Diagnostic],
    select: Tuple[str, ...] = (),
    ignore: Tuple[str, ...] = (),
) -> List[Diagnostic]:
    """Apply ``--select``/``--ignore`` code-prefix filters and sort."""
    out = []
    for d in diagnostics:
        if select and not matches(d.code, select):
            continue
        if ignore and matches(d.code, ignore):
            continue
        out.append(d)
    return sorted(out, key=Diagnostic.sort_key)

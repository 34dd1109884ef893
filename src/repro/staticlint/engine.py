"""The lint driver: run every registered pass over a subject.

:func:`run_lint` is the library entry point (the ``repro lint`` CLI
and :func:`repro.analysis.report.full_report` both sit on top of it):
normalize the subject (procedures are inlined first, so diagnostics on
expanded code point at the call site thanks to location propagation),
build one shared :class:`~repro.staticlint.passes.LintContext` (the
CFG and every program fact the passes read), run every pass of
:data:`ALL_PASSES`, and filter/sort the result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.lang.ast import Program, Stmt
from repro.staticlint.concurrency import RacePass
from repro.staticlint.deadlock import DeadlockPass
from repro.staticlint.diagnostics import (
    CODES,
    Diagnostic,
    Severity,
    filter_diagnostics,
)
from repro.staticlint.flowpasses import (
    DeadAssignmentPass,
    UnreachablePass,
    UnusedPass,
    UseBeforeAssignPass,
)
from repro.staticlint.labels import LabelPass
from repro.staticlint.passes import LintContext, LintPass

#: The default pass pipeline, in execution order.
ALL_PASSES: Tuple[LintPass, ...] = (
    DeadlockPass(),
    RacePass(),
    UseBeforeAssignPass(),
    DeadAssignmentPass(),
    UnreachablePass(),
    UnusedPass(),
    LabelPass(),
)


@dataclass
class LintResult:
    """Every diagnostic the pipeline produced for one subject."""

    diagnostics: List[Diagnostic]
    passes_run: Tuple[str, ...]
    subject_name: str = ""

    @property
    def errors(self) -> List[Diagnostic]:
        """Only the error-severity findings (drive the exit code)."""
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    def count(self, severity: str) -> int:
        """Number of findings at exactly ``severity``."""
        return sum(1 for d in self.diagnostics if d.severity == severity)

    def to_dict(self) -> Dict[str, object]:
        """JSON shape: stable across runs for identical input."""
        return {
            "subject": self.subject_name,
            "passes": list(self.passes_run),
            "counts": {
                s: self.count(s)
                for s in (Severity.ERROR, Severity.WARNING, Severity.INFO)
            },
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        """A compact human-readable account."""
        if not self.diagnostics:
            return "lint: clean (no findings)"
        parts = []
        for severity in (Severity.ERROR, Severity.WARNING, Severity.INFO):
            n = self.count(severity)
            if n:
                parts.append(f"{n} {severity}{'s' if n != 1 else ''}")
        return f"lint: {', '.join(parts)}"

    def __repr__(self) -> str:
        return f"<LintResult {len(self.diagnostics)} findings>"


def run_lint(
    subject: Union[Program, Stmt],
    binding=None,
    scheme=None,
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
    subject_name: str = "",
) -> LintResult:
    """Lint ``subject`` and return the filtered, sorted findings.

    ``binding`` (a :class:`~repro.core.binding.StaticBinding`) enables
    the RPL501/RPL503 label diagnostics; ``select``/``ignore`` are
    flake8-style code prefixes (``RPL1`` means all of ``RPL1xx``).
    """
    from repro.lang.procs import resolve_subject

    resolved, stmt = resolve_subject(subject)
    program = resolved if isinstance(resolved, Program) else None
    if scheme is None and binding is not None:
        scheme = binding.scheme
    ctx = LintContext(subject, stmt, program, scheme=scheme, binding=binding)
    diagnostics: List[Diagnostic] = []
    for lint_pass in ALL_PASSES:
        diagnostics.extend(lint_pass.run(ctx))
    return LintResult(
        diagnostics=filter_diagnostics(
            diagnostics, tuple(select), tuple(ignore)
        ),
        passes_run=tuple(p.name for p in ALL_PASSES),
        subject_name=subject_name,
    )


def codes_table() -> List[Tuple[str, str, str, str]]:
    """``(code, name, default severity, description)`` rows, sorted —
    the source of truth behind ``repro lint --list-codes`` and the
    table in ``docs/linting.md``."""
    return [
        (code, name, severity, description)
        for code, (name, severity, description) in sorted(CODES.items())
    ]

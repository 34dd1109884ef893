"""The Denning & Denning certification mechanism (the paper's baseline).

Certification of sequential programs for secure information flow,
CACM 1977 [3]: each assignment must satisfy ``sbind(e) <= sbind(x)``
and each conditional or loop guard must satisfy ``sbind(e) <= mod(S)``.
The mechanism captures direct flows and *local* indirect flows only;
global flows — conditional non-termination and synchronization — are
outside its model, which is precisely the gap CFM closes (section 4.1:
"Global flows are disregarded by the Dennings' mechanism").

Concurrency handling is selectable:

* ``on_concurrency="reject"`` (default): the mechanism is only defined
  for sequential programs guaranteed to terminate, so any ``cobegin``,
  ``wait`` or ``signal`` makes the program uncertifiable and is
  reported as an unsupported construct.
* ``on_concurrency="ignore"``: semaphore operations are treated as
  no-ops and ``cobegin`` branches are certified independently.  This
  models naively applying the sequential mechanism to a parallel
  program, and is how the benchmarks demonstrate the flows it misses
  (e.g. the paper's Figure 3 channel is certified even with
  ``x = high, y = low``).
"""

from __future__ import annotations

from typing import FrozenSet, List, Union

from repro.core.binding import StaticBinding
from repro.core.cfm import Check
from repro.errors import CertificationError
from repro.lang.ast import (
    Assign,
    Begin,
    Cobegin,
    If,
    Program,
    Signal,
    Skip,
    Stmt,
    Wait,
    While,
)
from repro.lattice.base import Element


class DenningReport:
    """Result of the sequential Denning & Denning mechanism.

    ``unsupported`` lists concurrency constructs encountered under
    ``on_concurrency="reject"``; a non-empty list makes ``certified``
    false regardless of the checks.
    """

    def __init__(
        self,
        subject,
        binding: StaticBinding,
        checks: List[Check],
        unsupported: List[Stmt],
    ):
        self.subject = subject
        self.binding = binding
        self.checks = list(checks)
        self.unsupported = list(unsupported)

    @property
    def certified(self) -> bool:
        return not self.unsupported and all(c.passed for c in self.checks)

    @property
    def violations(self) -> List[Check]:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        lines = [
            f"Denning-Denning certification: "
            f"{'CERTIFIED' if self.certified else 'REJECTED'}",
            f"  checks: {len(self.checks)} total, {len(self.violations)} failed",
        ]
        for stmt in self.unsupported:
            loc = f" at {stmt.loc}" if stmt.loc else ""
            lines.append(
                f"  [FAIL] unsupported concurrency construct "
                f"{type(stmt).__name__}{loc}"
            )
        for check in self.checks:
            lines.append("  " + str(check))
        return "\n".join(lines)

    def __repr__(self) -> str:
        state = "certified" if self.certified else "rejected"
        return f"<DenningReport {state}, {len(self.checks)} checks>"


class _DenningCertifier:
    def __init__(self, binding: StaticBinding, on_concurrency: str):
        if on_concurrency not in ("reject", "ignore"):
            raise CertificationError(
                f"on_concurrency must be 'reject' or 'ignore', got {on_concurrency!r}"
            )
        self.binding = binding
        self.base = binding.scheme
        self.ignore = on_concurrency == "ignore"
        self.checks: List[Check] = []
        self.unsupported: List[Stmt] = []

    def _mod_of(self, names: FrozenSet[str]) -> Element:
        if not names:
            return self.base.top
        return self.base.meet_all_nonempty(self.binding.of_var(n) for n in names)

    def _guard_check(self, rule: str, stmt: Stmt, modified: FrozenSet[str]) -> None:
        cond_cls = self.binding.of_expr(stmt.cond)
        mod = self._mod_of(modified)
        passed = self.base.leq(cond_cls, mod)
        self.checks.append(
            Check(
                rule,
                stmt,
                "sbind(e) <= mod(S)",
                cond_cls,
                mod,
                passed,
                f"{cond_cls!r} <= {mod!r} (guard into modified {sorted(modified)})",
            )
        )

    def visit(self, stmt: Stmt) -> FrozenSet[str]:
        """Certify ``stmt``; return the set of variables it modifies."""
        if isinstance(stmt, Assign):
            expr_cls = self.binding.of_expr(stmt.expr)
            target_cls = self.binding.of_var(stmt.target)
            self.checks.append(
                Check(
                    "assignment",
                    stmt,
                    "sbind(e) <= sbind(x)",
                    expr_cls,
                    target_cls,
                    self.base.leq(expr_cls, target_cls),
                    f"{expr_cls!r} <= {target_cls!r} (expression into {stmt.target!r})",
                )
            )
            return frozenset([stmt.target])
        if isinstance(stmt, Skip):
            return frozenset()
        if isinstance(stmt, (Wait, Signal)):
            if not self.ignore:
                self.unsupported.append(stmt)
            return frozenset()  # semaphores are not data variables to [3]
        if isinstance(stmt, If):
            modified = self.visit(stmt.then_branch)
            if stmt.else_branch is not None:
                modified = modified | self.visit(stmt.else_branch)
            self._guard_check("alternation", stmt, modified)
            return modified
        if isinstance(stmt, While):
            modified = self.visit(stmt.body)
            self._guard_check("iteration", stmt, modified)
            return modified
        if isinstance(stmt, Begin):
            modified: FrozenSet[str] = frozenset()
            for child in stmt.body:
                modified = modified | self.visit(child)
            return modified
        if isinstance(stmt, Cobegin):
            if not self.ignore:
                self.unsupported.append(stmt)
            modified = frozenset()
            for branch in stmt.branches:
                modified = modified | self.visit(branch)
            return modified
        raise CertificationError(f"not a statement: {stmt!r}")


def certify_denning(
    subject: Union[Program, Stmt],
    binding: StaticBinding,
    on_concurrency: str = "reject",
) -> DenningReport:
    """Run the sequential Denning & Denning mechanism against ``binding``."""
    from repro.core.constraints import complete_synthetic_binding
    from repro.lang.procs import resolve_subject

    subject, stmt = resolve_subject(subject)
    if not isinstance(stmt, Stmt):
        raise CertificationError(f"cannot certify {subject!r}")
    binding = complete_synthetic_binding(subject, binding)
    binding.require_covers(stmt)
    certifier = _DenningCertifier(binding, on_concurrency)
    certifier.visit(stmt)
    return DenningReport(subject, binding, certifier.checks, certifier.unsupported)

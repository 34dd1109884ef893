"""The section 2.0 atomicity condition, checked statically.

The paper assumes every assignment and expression evaluates as one
indivisible action, then notes (citing Owicki & Gries) that "this
requirement may be eliminated if every expression and assignment
statement makes at most one reference to a variable that can be
changed in another process" — the classic *at-most-one-shared-
reference* condition under which statement-level atomicity is
equivalent to memory-reference-level atomicity.

This module decides that condition:

* a variable is **shared between processes** when two parallel branches
  of some ``cobegin`` both mention it and at least one can modify it;
* each atomic action (an assignment including its target, or a guard
  evaluation) must reference at most one such variable, counting
  multiple references to the same variable separately (``x := x + x``
  makes two references).

Programs that pass can be run on real reference-interleaving hardware
without changing their possible behaviours; for programs that fail,
our machine's statement-level atomicity is a modelling choice, which
:func:`check_atomicity` makes visible instead of silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Set, Tuple, Union

from repro.lang.ast import (
    Assign,
    Cobegin,
    Expr,
    If,
    Program,
    Stmt,
    Var,
    While,
    iter_nodes,
    iter_statements,
    modified_variables,
    used_variables,
)


def shared_variables(subject: Union[Program, Stmt]) -> FrozenSet[str]:
    """Variables used by two parallel branches, one of which writes.

    Computed over every ``cobegin`` in the subject (including nested
    ones): for each pair of sibling branches, a variable used by both
    and potentially modified by either is shared.
    """
    from repro.lang.ast import Signal, Wait

    stmt = subject.body if isinstance(subject, Program) else subject
    semaphores = {
        node.sem
        for node in iter_statements(stmt)
        if isinstance(node, (Wait, Signal))
    }
    shared: Set[str] = set()
    for node in iter_statements(stmt):
        if not isinstance(node, Cobegin):
            continue
        branches = node.branches
        uses = [used_variables(b) for b in branches]
        mods = [modified_variables(b) for b in branches]
        for i in range(len(branches)):
            for j in range(len(branches)):
                if i == j:
                    continue
                shared |= uses[i] & mods[j]
    # Semaphores are indivisible by definition (wait/signal are the
    # atomic primitives), so they never threaten data atomicity.
    return frozenset(shared - semaphores)


def _reference_count(expr: Expr, shared: FrozenSet[str]) -> int:
    """References (occurrences, not distinct names) to shared variables."""
    return sum(
        1
        for node in iter_nodes(expr)
        if isinstance(node, Var) and node.name in shared
    )


@dataclass(frozen=True)
class AtomicityViolation:
    """An action with more than one shared-variable reference."""

    stmt: Stmt
    references: int
    variables: Tuple[str, ...]

    def __str__(self) -> str:
        loc = f" at {self.stmt.loc}" if self.stmt.loc else ""
        return (
            f"{type(self.stmt).__name__}{loc}: {self.references} references "
            f"to shared variables {list(self.variables)} in one atomic action"
        )


@dataclass
class AtomicityReport:
    """Result of :func:`check_atomicity`."""

    shared: FrozenSet[str]
    violations: List[AtomicityViolation]

    @property
    def satisfied(self) -> bool:
        """True iff the at-most-one-shared-reference condition holds."""
        return not self.violations

    def __repr__(self) -> str:
        state = "satisfied" if self.satisfied else f"{len(self.violations)} violations"
        return f"<AtomicityReport {state}, shared={sorted(self.shared)}>"


def check_atomicity(subject: Union[Program, Stmt]) -> AtomicityReport:
    """Check the paper's single-shared-reference condition.

    Semaphores are exempt: ``wait``/``signal`` are indivisible by
    definition in every treatment, which is their entire point.
    """
    stmt = subject.body if isinstance(subject, Program) else subject
    shared = shared_variables(stmt)
    return AtomicityReport(shared, atomicity_violations(stmt, shared))


def atomicity_violations(
    stmt: Stmt, shared: FrozenSet[str]
) -> List[AtomicityViolation]:
    """The actions of ``stmt`` that reference ``shared`` more than once.

    The scan behind :func:`check_atomicity`, for a caller that already
    holds ``shared_variables(stmt)``.
    """
    violations: List[AtomicityViolation] = []

    def offending_names(expr: Expr) -> Tuple[str, ...]:
        return tuple(
            sorted(
                {
                    node.name
                    for node in iter_nodes(expr)
                    if isinstance(node, Var) and node.name in shared
                }
            )
        )

    for node in iter_statements(stmt):
        if isinstance(node, Assign):
            count = _reference_count(node.expr, shared)
            if node.target in shared:
                count += 1
            if count > 1:
                names = set(offending_names(node.expr))
                if node.target in shared:
                    names.add(node.target)
                violations.append(
                    AtomicityViolation(node, count, tuple(sorted(names)))
                )
        elif isinstance(node, (If, While)):
            count = _reference_count(node.cond, shared)
            if count > 1:
                violations.append(
                    AtomicityViolation(node, count, offending_names(node.cond))
                )
    return violations

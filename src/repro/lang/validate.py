"""Static well-formedness checks, independent of security concerns.

A :class:`~repro.lang.ast.Program` is *valid* when:

* every used name is declared exactly once;
* ``wait``/``signal`` are applied only to semaphores;
* semaphores are never assigned to, and never read inside expressions
  (the language offers no way to inspect a semaphore's counter — its
  only observable effect is synchronization, which is exactly what
  makes the paper's global flows interesting);
* semaphore initial values are non-negative.

:func:`validate_program` returns the list of problems (empty when the
program is valid); :func:`check_program` raises on the first problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ValidationError
from repro.lang.ast import (
    Assign,
    Loc,
    Node,
    Program,
    Signal,
    Var,
    Wait,
    iter_nodes,
)
from repro.lang.procs import Call, procedure_problems


@dataclass(frozen=True)
class Problem:
    """One validation finding, with the offending source location."""

    message: str
    loc: Loc

    def __str__(self) -> str:
        prefix = f"{self.loc}: " if self.loc else ""
        return prefix + self.message


def validate_program(program: Program) -> List[Problem]:
    """Return all validation problems of ``program`` (empty list = valid)."""
    problems: List[Problem] = []
    kinds: Dict[str, str] = {}
    for decl in program.decls:
        for name in decl.names:
            if name in kinds:
                problems.append(Problem(f"variable {name!r} declared twice", decl.loc))
            kinds[name] = decl.kind
        if decl.kind == "semaphore" and decl.initial < 0:
            problems.append(
                Problem(
                    f"semaphore {decl.names[0]!r} has negative initial value "
                    f"{decl.initial}",
                    decl.loc,
                )
            )

    def kind_of(name: str, node: Node) -> str:
        if name not in kinds:
            problems.append(Problem(f"variable {name!r} is not declared", node.loc))
            return "integer"  # report once; assume the permissive kind
        return kinds[name]

    calls: List[Call] = []
    for node in iter_nodes(program.body):
        if isinstance(node, Assign):
            if kind_of(node.target, node) == "semaphore":
                problems.append(
                    Problem(
                        f"semaphore {node.target!r} may only be changed by "
                        f"wait/signal, not assignment",
                        node.loc,
                    )
                )
        elif isinstance(node, (Wait, Signal)):
            if kind_of(node.sem, node) != "semaphore":
                op = "wait" if isinstance(node, Wait) else "signal"
                problems.append(
                    Problem(f"{op} applied to non-semaphore {node.sem!r}", node.loc)
                )
        elif isinstance(node, Var):
            if kind_of(node.name, node) == "semaphore":
                problems.append(
                    Problem(
                        f"semaphore {node.name!r} cannot be read in an expression",
                        node.loc,
                    )
                )
        elif isinstance(node, Call):
            calls.append(node)
            for name in node.out_args:
                if kind_of(name, node) == "semaphore":
                    problems.append(
                        Problem(
                            f"semaphore {name!r} cannot be an out-argument",
                            node.loc,
                        )
                    )
    # the procedure problems come first
    return [
        Problem(message, program.loc)
        for message in procedure_problems(program, calls)
    ] + problems


def check_program(program: Program) -> Program:
    """Validate, raising :class:`ValidationError` on the first problem."""
    problems = validate_program(program)
    if problems:
        first = problems[0]
        raise ValidationError(
            str(first) + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else "")
        )
    return program

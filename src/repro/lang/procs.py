"""Procedures: declarations, calls, and sound inline expansion.

The paper's language has no procedures, but Denning & Denning's
original mechanism (CACM 1977, section on program certification)
covers procedure calls, so the library supports them as a marked
extension with deliberately simple semantics:

* ``proc p(in a, b; out c) S`` declares a procedure whose body may
  reference **only its formals** (no globals, no semaphores) — this
  keeps procedures meaningful under concurrency without a shared-state
  aliasing story;
* ``call p(e1, e2; x)`` passes by value/result: the ``in`` actuals are
  copied into the formals on entry, the ``out`` formals are copied to
  the actual variables on return;
* procedures may call **previously declared** procedures only, so
  recursion is impossible by construction.

With those rules, a call means exactly its inline expansion: fresh
names for the formals, a copy-in prologue, the (renamed) body, and a
copy-out epilogue.  :func:`expand_program` performs that expansion,
producing a procedure-free program on which *every* existing analysis
— CFM, the flow logic, the runtime, the explorer — operates unchanged
and agrees with the call-site instantiation rule of the Dennings'
treatment (check ``sbind(actual-in) <= sbind(formal)`` etc. falls out
of the expanded assignments).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

from repro.errors import ValidationError
from repro.lang.ast import (
    Assign,
    Expr,
    Loc,
    Node,
    Program,
    Stmt,
    VarDecl,
    iter_statements,
    used_variables,
)

class ProcDecl(Node):
    """``proc name(in a, b; out c) body``."""

    __slots__ = ("name", "ins", "outs", "body")

    def __init__(
        self,
        name: str,
        ins: Sequence[str],
        outs: Sequence[str],
        body: Stmt,
        loc: Optional[Loc] = None,
    ):
        super().__init__(loc)
        if not outs and not ins:
            raise ValidationError(f"procedure {name!r} has no parameters")
        overlap = set(ins) & set(outs)
        if overlap:
            raise ValidationError(
                f"procedure {name!r}: parameters {sorted(overlap)} are both in and out"
            )
        self.name = name
        self.ins: List[str] = list(ins)
        self.outs: List[str] = list(outs)
        self.body = body

    def children(self):
        return (self.body,)

    @property
    def formals(self) -> List[str]:
        return self.ins + self.outs


class Call(Stmt):
    """``call name(e1, ...; v1, ...)`` — value/result parameter passing."""

    __slots__ = ("name", "in_args", "out_args")

    def __init__(
        self,
        name: str,
        in_args: Sequence[Expr],
        out_args: Sequence[str],
        loc: Optional[Loc] = None,
    ):
        super().__init__(loc)
        self.name = name
        self.in_args: List[Expr] = list(in_args)
        self.out_args: List[str] = list(out_args)

    def children(self):
        return tuple(self.in_args)


def validate_procedures(program: Program) -> List[str]:
    """Procedure-specific well-formedness problems (empty list = fine)."""
    problems: List[str] = []
    table: Dict[str, ProcDecl] = {}
    for proc in getattr(program, "procs", []):
        if proc.name in table:
            problems.append(f"procedure {proc.name!r} declared twice")
        if len(set(proc.formals)) != len(proc.formals):
            problems.append(f"procedure {proc.name!r} has duplicate parameters")
        # Bodies may reference only formals and earlier procedures.
        allowed = set(proc.formals)
        for node in iter_statements(proc.body):
            if isinstance(node, Call):
                if node.name not in table:
                    problems.append(
                        f"procedure {proc.name!r} calls {node.name!r}, which is "
                        f"not declared earlier (recursion is not supported)"
                    )
                else:
                    problems.extend(_check_call(node, table[node.name], allowed))
        from repro.lang.ast import Wait, Signal

        for node in iter_statements(proc.body):
            if isinstance(node, (Wait, Signal)):
                problems.append(
                    f"procedure {proc.name!r} uses semaphores; procedures are "
                    f"pure over their parameters"
                )
                break
        foreign = {
            name
            for name in used_variables(proc.body)
            if name not in allowed
        }
        # Variables introduced by nested calls are checked per call.
        foreign -= {name for node in iter_statements(proc.body)
                    if isinstance(node, Call) for name in node.out_args}
        if foreign:
            problems.append(
                f"procedure {proc.name!r} references non-parameters "
                f"{sorted(foreign)}"
            )
        table[proc.name] = proc

    for node in iter_statements(program.body):
        if isinstance(node, Call):
            if node.name not in table:
                problems.append(f"call to undeclared procedure {node.name!r}")
            else:
                declared = set(program.declared())
                problems.extend(_check_call(node, table[node.name], declared))
    return problems


def _check_call(call: Call, proc: ProcDecl, in_scope) -> List[str]:
    problems = []
    if len(call.in_args) != len(proc.ins):
        problems.append(
            f"call to {proc.name!r} passes {len(call.in_args)} in-arguments, "
            f"expected {len(proc.ins)}"
        )
    if len(call.out_args) != len(proc.outs):
        problems.append(
            f"call to {proc.name!r} passes {len(call.out_args)} out-arguments, "
            f"expected {len(proc.outs)}"
        )
    if len(set(call.out_args)) != len(call.out_args):
        problems.append(f"call to {proc.name!r} repeats an out-argument")
    return problems


def has_procedures(program: Program) -> bool:
    """True if the program declares procedures or contains calls."""
    if getattr(program, "procs", []):
        return True
    return any(isinstance(s, Call) for s in iter_statements(program.body))


def expand_program(program: Program) -> Program:
    """Inline every procedure call; the result has no procs or calls.

    Formals get fresh names per activation (``name#k$formal``); the
    prologue copies the in-actuals, the epilogue copies the
    out-formals to the out-actuals.  Nested calls are expanded
    innermost-first (the body is expanded before being instantiated),
    so the result is always call-free.  Declarations for the fresh
    activation variables are appended.
    """
    problems = validate_procedures(program)
    if problems:
        raise ValidationError("; ".join(problems))
    table: Dict[str, ProcDecl] = {}
    expanded_bodies: Dict[str, Stmt] = {}
    fresh_decls: List[str] = []
    taken = set(used_variables(program.body)) | set(program.declared())
    for proc in getattr(program, "procs", []):
        taken |= set(used_variables(proc.body))
    activation_counter = itertools.count(1)

    from repro.lang.clone import clone_expr, clone_stmt

    def fresh_name(base: str) -> str:
        name = base
        while name in taken:
            name = "_" + name
        taken.add(name)
        return name

    def expand_stmt(stmt: Stmt) -> Stmt:
        from repro.lang.ast import Begin as BeginNode, Cobegin, If, While

        if isinstance(stmt, Call):
            proc = table[stmt.name]
            activation = next(activation_counter)
            site = _loc_of(stmt)
            rename = {
                formal: fresh_name(f"{stmt.name}_{activation}_{formal}")
                for formal in proc.formals
            }
            fresh_decls.extend(rename.values())
            prologue = [
                Assign(rename[formal], clone_expr(actual, default_loc=site), site)
                for formal, actual in zip(proc.ins, stmt.in_args)
            ]
            # unlocated body nodes (builder-made procedures) point at the
            # call site, so diagnostics land somewhere meaningful
            body = clone_stmt(expanded_bodies[stmt.name], rename, default_loc=site)
            epilogue = [
                Assign(actual, _var(rename[formal], stmt), _loc_of(stmt))
                for formal, actual in zip(proc.outs, stmt.out_args)
            ]
            return BeginNode(prologue + [body] + epilogue, _loc_of(stmt))
        if isinstance(stmt, BeginNode):
            return BeginNode([expand_stmt(s) for s in stmt.body], _loc_of(stmt))
        if isinstance(stmt, Cobegin):
            return Cobegin([expand_stmt(s) for s in stmt.branches], _loc_of(stmt))
        if isinstance(stmt, If):
            return If(
                clone_expr(stmt.cond, default_loc=_loc_of(stmt)),
                expand_stmt(stmt.then_branch),
                expand_stmt(stmt.else_branch) if stmt.else_branch else None,
                _loc_of(stmt),
            )
        if isinstance(stmt, While):
            return While(
                clone_expr(stmt.cond, default_loc=_loc_of(stmt)),
                expand_stmt(stmt.body),
                _loc_of(stmt),
            )
        return clone_stmt(stmt)

    for proc in getattr(program, "procs", []):
        expanded_bodies[proc.name] = expand_stmt(proc.body)
        table[proc.name] = proc

    body = expand_stmt(program.body)
    decls = [VarDecl(list(d.names), d.kind, d.initial, d.loc) for d in program.decls]
    if fresh_decls:
        decls.append(VarDecl(fresh_decls, "integer", 0))
    return Program(decls, body, program.loc, procs=(), synthetic=fresh_decls)


def resolve_subject(subject):
    """Normalize an analysis subject to ``(subject, body statement)``.

    Programs containing procedures are expanded first, so every
    downstream analysis sees only the paper's core language.
    """
    if isinstance(subject, Program):
        if has_procedures(subject):
            subject = expand_program(subject)
        return subject, subject.body
    return subject, subject


def _var(name: str, at: Stmt):
    from repro.lang.ast import Var

    return Var(name, _loc_of(at))


def _loc_of(node) -> Loc:
    return Loc(node.loc.line, node.loc.column) if node.loc else Loc.none()

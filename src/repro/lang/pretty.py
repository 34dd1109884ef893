"""Pretty-printer: render any AST node back to parseable source text.

``parse_program(pretty(p))`` yields a structurally identical program,
which the test suite verifies by round-tripping.
"""

from __future__ import annotations

from typing import List

from repro.lang.ast import (
    Assign,
    Begin,
    BinOp,
    BoolLit,
    Cobegin,
    Expr,
    If,
    IntLit,
    Node,
    Program,
    Signal,
    Skip,
    Stmt,
    UnOp,
    Var,
    VarDecl,
    Wait,
    While,
)

_INDENT = "  "

#: Binding strength per operator; higher binds tighter.
_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "not": 3,
    "=": 4,
    "#": 4,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "mod": 6,
    "neg": 7,
}


def pretty_expr(expr: Expr, parent_prec: int = 0) -> str:
    """Render an expression, parenthesizing only where required."""
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, UnOp):
        prec = _PRECEDENCE["not" if expr.op == "not" else "neg"]
        inner = pretty_expr(expr.operand, prec)
        if expr.op == "not":
            text = f"not {inner}"
        elif inner.startswith("-"):
            text = f"- {inner}"  # "--" would open a comment
        else:
            text = f"-{inner}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, BinOp):
        prec = _PRECEDENCE[expr.op]
        # Left-associative: the right operand needs strictly higher context.
        left = pretty_expr(expr.left, prec)
        right = pretty_expr(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if prec < parent_prec else text
    raise TypeError(f"not an expression node: {expr!r}")


def _dangles(stmt: Stmt) -> bool:
    """Would a following ``else`` be captured by this statement's text?

    True when the statement's rightmost open construct is an
    else-less ``if`` (possibly under ``while`` bodies or trailing
    ``else`` branches); ``begin``/``cobegin`` close themselves.
    """
    if isinstance(stmt, If):
        if stmt.else_branch is None:
            return True
        return _dangles(stmt.else_branch)
    if isinstance(stmt, While):
        return _dangles(stmt.body)
    return False


def _stmt_lines(stmt: Stmt, indent: int) -> List[str]:
    pad = _INDENT * indent
    if isinstance(stmt, Assign):
        return [f"{pad}{stmt.target} := {pretty_expr(stmt.expr)}"]
    if isinstance(stmt, Skip):
        return [f"{pad}skip"]
    if isinstance(stmt, Wait):
        return [f"{pad}wait({stmt.sem})"]
    if isinstance(stmt, Signal):
        return [f"{pad}signal({stmt.sem})"]
    if isinstance(stmt, If):
        lines = [f"{pad}if {pretty_expr(stmt.cond)}", f"{pad}then"]
        if stmt.else_branch is not None and _dangles(stmt.then_branch):
            # Reparsing would attach our else to the inner if/while;
            # close the then-branch explicitly.
            lines.append(f"{pad}{_INDENT}begin")
            lines.extend(_stmt_lines(stmt.then_branch, indent + 2))
            lines.append(f"{pad}{_INDENT}end")
        else:
            lines.extend(_stmt_lines(stmt.then_branch, indent + 1))
        if stmt.else_branch is not None:
            lines.append(f"{pad}else")
            lines.extend(_stmt_lines(stmt.else_branch, indent + 1))
        return lines
    if isinstance(stmt, While):
        lines = [f"{pad}while {pretty_expr(stmt.cond)} do"]
        lines.extend(_stmt_lines(stmt.body, indent + 1))
        return lines
    if isinstance(stmt, Begin):
        lines = [f"{pad}begin"]
        for i, child in enumerate(stmt.body):
            child_lines = _stmt_lines(child, indent + 1)
            if i < len(stmt.body) - 1:
                child_lines[-1] += ";"
            lines.extend(child_lines)
        lines.append(f"{pad}end")
        return lines
    if isinstance(stmt, Cobegin):
        lines = [f"{pad}cobegin"]
        for i, branch in enumerate(stmt.branches):
            if i > 0:
                lines.append(f"{pad}||")
            lines.extend(_stmt_lines(branch, indent + 1))
        lines.append(f"{pad}coend")
        return lines
    from repro.lang.procs import Call

    if isinstance(stmt, Call):
        ins = ", ".join(pretty_expr(e) for e in stmt.in_args)
        outs = ", ".join(stmt.out_args)
        if stmt.out_args:
            return [f"{pad}call {stmt.name}({ins}; {outs})"]
        return [f"{pad}call {stmt.name}({ins})"]
    raise TypeError(f"not a statement node: {stmt!r}")


def _decl_line(decl: VarDecl) -> str:
    names = ", ".join(decl.names)
    if decl.kind == "semaphore" or decl.initial != 0:
        return f"{names} : {decl.kind} initially({decl.initial});"
    return f"{names} : {decl.kind};"


def pretty(node: Node) -> str:
    """Render any node (program, statement, or expression) as source text."""
    if isinstance(node, Program):
        lines: List[str] = []
        for proc in node.procs:
            ins = ", ".join(proc.ins)
            outs = ", ".join(proc.outs)
            params = []
            if proc.ins:
                params.append(f"in {ins}")
            if proc.outs:
                params.append(f"out {outs}")
            lines.append(f"proc {proc.name}({'; '.join(params)})")
            lines.extend(_stmt_lines(proc.body, 1))
            lines.append(";")
        if node.decls:
            lines.append("var " + _decl_line(node.decls[0]))
            for decl in node.decls[1:]:
                lines.append("    " + _decl_line(decl))
        lines.extend(_stmt_lines(node.body, 0))
        return "\n".join(lines)
    if isinstance(node, VarDecl):
        return _decl_line(node)
    if isinstance(node, Stmt):
        return "\n".join(_stmt_lines(node, 0))
    if isinstance(node, Expr):
        return pretty_expr(node)
    raise TypeError(f"cannot pretty-print {node!r}")

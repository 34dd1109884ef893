"""Programmatic AST construction DSL.

The parser is the main front door, but generators, tests, and users who
build programs dynamically want a terse Python API::

    from repro.lang import builder as b

    prog = b.program(
        [b.int_decl("x", "y"), b.sem_decl("s")],
        b.begin(
            b.if_(b.ne(b.var("x"), b.lit(0)), b.signal("s")),
            b.wait("s"),
            b.assign("y", b.lit(1)),
        ),
    )

All constructors return ordinary AST nodes, so builder output and parser
output are interchangeable everywhere.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

from repro.lang.ast import (
    Assign,
    Loc,
    Begin,
    BinOp,
    BoolLit,
    Cobegin,
    Expr,
    If,
    IntLit,
    Loc,
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

ExprLike = Union[Expr, int, bool, str]
LocLike = Union[Loc, Tuple[int, int], None]


def _at(node, loc: LocLike):
    """Attach an explicit position, or adopt the first located child.

    Builder output used to carry ``Loc.none()`` everywhere, which turned
    every diagnostic on generated programs into ``0:0``; adopting child
    positions lets mixed parser/builder trees keep meaningful spans.
    """
    if loc is not None:
        node.loc = loc if isinstance(loc, Loc) else Loc(loc[0], loc[1])
    elif not node.loc:
        for child in node.children():
            if child.loc:
                node.loc = Loc(child.loc.line, child.loc.column)
                break
    return node


def _expr(x: ExprLike) -> Expr:
    """Coerce Python values: str -> Var, bool -> BoolLit, int -> IntLit."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, bool):
        return BoolLit(x)
    if isinstance(x, int):
        return IntLit(x)
    if isinstance(x, str):
        return Var(x)
    raise TypeError(f"cannot use {x!r} as an expression")


# -- expressions -------------------------------------------------------


def var(name: str, loc: LocLike = None) -> Var:
    """A variable reference."""
    return _at(Var(name), loc)


def lit(value: Union[int, bool], loc: LocLike = None) -> Expr:
    """An integer or boolean constant."""
    return _at(BoolLit(value) if isinstance(value, bool) else IntLit(value), loc)


def add(a: ExprLike, b: ExprLike, loc: LocLike = None) -> BinOp:
    return _at(BinOp("+", _expr(a), _expr(b)), loc)


def sub(a: ExprLike, b: ExprLike, loc: LocLike = None) -> BinOp:
    return _at(BinOp("-", _expr(a), _expr(b)), loc)


def mul(a: ExprLike, b: ExprLike, loc: LocLike = None) -> BinOp:
    return _at(BinOp("*", _expr(a), _expr(b)), loc)


def div(a: ExprLike, b: ExprLike, loc: LocLike = None) -> BinOp:
    return _at(BinOp("/", _expr(a), _expr(b)), loc)


def mod(a: ExprLike, b: ExprLike, loc: LocLike = None) -> BinOp:
    return _at(BinOp("mod", _expr(a), _expr(b)), loc)


def neg(a: ExprLike, loc: LocLike = None) -> UnOp:
    return _at(UnOp("-", _expr(a)), loc)


def eq(a: ExprLike, b: ExprLike, loc: LocLike = None) -> BinOp:
    """``a = b``."""
    return _at(BinOp("=", _expr(a), _expr(b)), loc)


def ne(a: ExprLike, b: ExprLike, loc: LocLike = None) -> BinOp:
    """``a # b`` (the paper's inequality)."""
    return _at(BinOp("#", _expr(a), _expr(b)), loc)


def lt(a: ExprLike, b: ExprLike, loc: LocLike = None) -> BinOp:
    return _at(BinOp("<", _expr(a), _expr(b)), loc)


def le(a: ExprLike, b: ExprLike, loc: LocLike = None) -> BinOp:
    return _at(BinOp("<=", _expr(a), _expr(b)), loc)


def gt(a: ExprLike, b: ExprLike, loc: LocLike = None) -> BinOp:
    return _at(BinOp(">", _expr(a), _expr(b)), loc)


def ge(a: ExprLike, b: ExprLike, loc: LocLike = None) -> BinOp:
    return _at(BinOp(">=", _expr(a), _expr(b)), loc)


def and_(a: ExprLike, b: ExprLike, loc: LocLike = None) -> BinOp:
    return _at(BinOp("and", _expr(a), _expr(b)), loc)


def or_(a: ExprLike, b: ExprLike, loc: LocLike = None) -> BinOp:
    return _at(BinOp("or", _expr(a), _expr(b)), loc)


def not_(a: ExprLike, loc: LocLike = None) -> UnOp:
    return _at(UnOp("not", _expr(a)), loc)


# -- statements --------------------------------------------------------


def assign(target: str, value: ExprLike, loc: LocLike = None) -> Assign:
    """``target := value``."""
    return _at(Assign(target, _expr(value)), loc)


def if_(
    cond: ExprLike,
    then_branch: Stmt,
    else_branch: Stmt = None,
    loc: LocLike = None,
) -> If:
    """``if cond then S1 [else S2]``."""
    return _at(If(_expr(cond), then_branch, else_branch), loc)


def while_(cond: ExprLike, body: Stmt, loc: LocLike = None) -> While:
    """``while cond do body``."""
    return _at(While(_expr(cond), body), loc)


def begin(*stmts: Stmt, loc: LocLike = None) -> Begin:
    """``begin S1; ...; Sn end``."""
    return _at(Begin(list(stmts)), loc)


def cobegin(*branches: Stmt, loc: LocLike = None) -> Cobegin:
    """``cobegin S1 || ... || Sn coend``."""
    return _at(Cobegin(list(branches)), loc)


def wait(sem: str, loc: LocLike = None) -> Wait:
    return _at(Wait(sem), loc)


def signal(sem: str, loc: LocLike = None) -> Signal:
    return _at(Signal(sem), loc)


def skip(loc: LocLike = None) -> Skip:
    return _at(Skip(), loc)


# -- declarations and programs ------------------------------------------


def int_decl(*names: str, initially: int = 0, loc: LocLike = None) -> VarDecl:
    """Declare integer variables."""
    return _at(VarDecl(list(names), "integer", initially), loc)


def sem_decl(*names: str, initially: int = 0, loc: LocLike = None) -> VarDecl:
    """Declare semaphores."""
    return _at(VarDecl(list(names), "semaphore", initially), loc)


def program(decls: Sequence[VarDecl], body: Stmt, loc: LocLike = None) -> Program:
    """A complete program."""
    return _at(Program(list(decls), body), loc)

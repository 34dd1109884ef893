"""Abstract syntax tree for the concurrent language.

Nodes are plain classes with *identity* equality (two structurally
identical subtrees are still distinct program points — certification
and proofs attach facts to program points, not shapes).  Every node
carries a unique ``uid`` and an optional source location.

The statement forms are exactly the paper's section 2.0 language —
assignment, alternation, iteration, composition, concurrency, and the
semaphore primitives — plus ``skip`` (used for a missing ``else``) and
declarations.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

_uid_counter = itertools.count(1)


class Loc:
    """A 1-based source position; ``Loc.none()`` for synthesized nodes."""

    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int):
        self.line = line
        self.column = column

    @staticmethod
    def none() -> "Loc":
        return Loc(0, 0)

    def __bool__(self) -> bool:
        return self.line > 0

    def __repr__(self) -> str:
        return f"{self.line}:{self.column}" if self else "<synth>"


class Node:
    """Base class for all AST nodes."""

    __slots__ = ("uid", "loc")

    def __init__(self, loc: Optional[Loc] = None):
        #: Unique id of this program point (stable for the node's lifetime).
        self.uid = next(_uid_counter)
        self.loc = loc if loc is not None else Loc.none()

    def children(self) -> Tuple["Node", ...]:
        """Direct child nodes, in source order."""
        return ()

    def __repr__(self) -> str:
        from repro.lang.pretty import pretty  # local import: avoid cycle

        text = pretty(self)
        if len(text) > 60:
            text = text[:57] + "..."
        return f"<{type(self).__name__} {text!r}>"


# ----------------------------------------------------------------------
# Expressions.
# ----------------------------------------------------------------------

#: Operators yielding integers.
ARITH_OPS = ("+", "-", "*", "/", "mod")
#: Operators comparing integers, yielding booleans.  ``#`` is the
#: paper's inequality sign.
REL_OPS = ("=", "#", "<", "<=", ">", ">=")
#: Boolean connectives.
BOOL_OPS = ("and", "or")
#: Every binary operator, for :class:`BinOp`'s check.
_BINARY_OPS = frozenset(ARITH_OPS + REL_OPS + BOOL_OPS)


class Expr(Node):
    """Base class for expressions."""

    __slots__ = ()


class Var(Expr):
    """A variable reference."""

    __slots__ = ("name",)

    def __init__(self, name: str, loc: Optional[Loc] = None):
        super().__init__(loc)
        self.name = name


class IntLit(Expr):
    """An integer constant.  Constants have class ``low`` (Definition 2)."""

    __slots__ = ("value",)

    def __init__(self, value: int, loc: Optional[Loc] = None):
        super().__init__(loc)
        self.value = int(value)


class BoolLit(Expr):
    """A boolean constant (``true``/``false``)."""

    __slots__ = ("value",)

    def __init__(self, value: bool, loc: Optional[Loc] = None):
        super().__init__(loc)
        self.value = bool(value)


class BinOp(Expr):
    """``left op right`` for any arithmetic, relational or boolean ``op``.

    Per Definition 2, the class of ``e1 op e2`` is ``class(e1) (+)
    class(e2)`` regardless of which operator ``op`` is.
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, loc: Optional[Loc] = None):
        super().__init__(loc)
        if op not in _BINARY_OPS:
            raise ValueError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Tuple[Node, ...]:
        return (self.left, self.right)


class UnOp(Expr):
    """``-e`` or ``not e``."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr, loc: Optional[Loc] = None):
        super().__init__(loc)
        if op not in ("-", "not"):
            raise ValueError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def children(self) -> Tuple[Node, ...]:
        return (self.operand,)


# ----------------------------------------------------------------------
# Statements.
# ----------------------------------------------------------------------


class Stmt(Node):
    """Base class for statements."""

    __slots__ = ()


class Assign(Stmt):
    """``x := e`` — executed as one indivisible action (section 2.0)."""

    __slots__ = ("target", "expr")

    def __init__(self, target: str, expr: Expr, loc: Optional[Loc] = None):
        super().__init__(loc)
        self.target = target
        self.expr = expr

    def children(self) -> Tuple[Node, ...]:
        return (self.expr,)


class If(Stmt):
    """``if e then S1 else S2``; ``else_branch`` may be ``None``."""

    __slots__ = ("cond", "then_branch", "else_branch")

    def __init__(
        self,
        cond: Expr,
        then_branch: Stmt,
        else_branch: Optional[Stmt] = None,
        loc: Optional[Loc] = None,
    ):
        super().__init__(loc)
        self.cond = cond
        self.then_branch = then_branch
        self.else_branch = else_branch

    def children(self) -> Tuple[Node, ...]:
        if self.else_branch is None:
            return (self.cond, self.then_branch)
        return (self.cond, self.then_branch, self.else_branch)


class While(Stmt):
    """``while e do S`` — the source of global flows via non-termination."""

    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt, loc: Optional[Loc] = None):
        super().__init__(loc)
        self.cond = cond
        self.body = body

    def children(self) -> Tuple[Node, ...]:
        return (self.cond, self.body)


class Begin(Stmt):
    """``begin S1; ...; Sn end`` — sequential composition."""

    __slots__ = ("body",)

    def __init__(self, body: Sequence[Stmt], loc: Optional[Loc] = None):
        super().__init__(loc)
        self.body: List[Stmt] = list(body)

    def children(self) -> Tuple[Node, ...]:
        return tuple(self.body)


class Cobegin(Stmt):
    """``cobegin S1 || ... || Sn coend`` — concurrent execution."""

    __slots__ = ("branches",)

    def __init__(self, branches: Sequence[Stmt], loc: Optional[Loc] = None):
        super().__init__(loc)
        if len(branches) < 1:
            raise ValueError("cobegin needs at least one branch")
        self.branches: List[Stmt] = list(branches)

    def children(self) -> Tuple[Node, ...]:
        return tuple(self.branches)


class Wait(Stmt):
    """``wait(sem)``: block until the semaphore is positive, then decrement.

    Indivisible; the only statement that can block, hence the only
    source of synchronization-induced global flows.
    """

    __slots__ = ("sem",)

    def __init__(self, sem: str, loc: Optional[Loc] = None):
        super().__init__(loc)
        self.sem = sem


class Signal(Stmt):
    """``signal(sem)``: indivisibly increment the semaphore."""

    __slots__ = ("sem",)

    def __init__(self, sem: str, loc: Optional[Loc] = None):
        super().__init__(loc)
        self.sem = sem


class Skip(Stmt):
    """The empty statement; modifies nothing and produces no flows."""

    __slots__ = ()


# ----------------------------------------------------------------------
# Declarations and programs.
# ----------------------------------------------------------------------


class VarDecl(Node):
    """``x, y : integer`` or ``s : semaphore initially(0)``.

    ``kind`` is ``"integer"`` or ``"semaphore"``; ``initial`` is the
    declared initial value (defaults: 0 for both kinds).
    """

    __slots__ = ("names", "kind", "initial")

    def __init__(
        self,
        names: Sequence[str],
        kind: str,
        initial: int = 0,
        loc: Optional[Loc] = None,
    ):
        super().__init__(loc)
        if kind not in ("integer", "semaphore"):
            raise ValueError(f"unknown declaration kind {kind!r}")
        if not names:
            raise ValueError("declaration with no names")
        self.names: List[str] = list(names)
        self.kind = kind
        self.initial = int(initial)


class Program(Node):
    """A complete program: procedures, declarations, and one statement.

    ``procs`` is empty in the paper's core language; see
    :mod:`repro.lang.procs` for the procedure extension.
    """

    __slots__ = ("decls", "body", "procs", "synthetic")

    def __init__(
        self,
        decls: Sequence[VarDecl],
        body: Stmt,
        loc: Optional[Loc] = None,
        procs: Sequence[Node] = (),
        synthetic: Sequence[str] = (),
    ):
        super().__init__(loc)
        self.decls: List[VarDecl] = list(decls)
        self.body = body
        self.procs: List[Node] = list(procs)
        #: Names introduced by procedure expansion (activation record
        #: temporaries); analyses may classify these automatically.
        self.synthetic: List[str] = list(synthetic)

    def children(self) -> Tuple[Node, ...]:
        return tuple(self.procs) + tuple(self.decls) + (self.body,)

    def declared(self, kind: Optional[str] = None) -> List[str]:
        """Names declared by the program, optionally filtered by kind."""
        out = []
        for d in self.decls:
            if kind is None or d.kind == kind:
                out.extend(d.names)
        return out

    def initial_values(self) -> dict:
        """Mapping of every declared name to its initial value."""
        return {name: d.initial for d in self.decls for name in d.names}


# ----------------------------------------------------------------------
# Traversals.
# ----------------------------------------------------------------------


def iter_nodes(root: Node) -> Iterator[Node]:
    """Every node in ``root``'s subtree, preorder."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def iter_statements(root: Node) -> Iterator[Stmt]:
    """Every statement node in ``root``'s subtree, preorder."""
    for node in iter_nodes(root):
        if isinstance(node, Stmt):
            yield node


def expr_variables(expr: Expr) -> FrozenSet[str]:
    """Names of the variables referenced by ``expr``."""
    return frozenset(n.name for n in iter_nodes(expr) if isinstance(n, Var))


def used_variables(root: Node) -> FrozenSet[str]:
    """Every variable name used anywhere in ``root`` (reads, writes, semaphores)."""
    names = set()
    for node in iter_nodes(root):
        if isinstance(node, Var):
            names.add(node.name)
        elif isinstance(node, Assign):
            names.add(node.target)
        elif isinstance(node, (Wait, Signal)):
            names.add(node.sem)
    return frozenset(names)


def modified_variables(root: Node) -> FrozenSet[str]:
    """Variables *potentially modified*: assignment targets and semaphores.

    Both ``wait`` and ``signal`` modify their semaphore (Figure 2 gives
    them ``mod(S) = sbind(sem)``).
    """
    names = set()
    for node in iter_nodes(root):
        if isinstance(node, Assign):
            names.add(node.target)
        elif isinstance(node, (Wait, Signal)):
            names.add(node.sem)
    return frozenset(names)


def program_size(root: Node) -> int:
    """Number of statement nodes — the paper's "length of the program"."""
    return sum(1 for _ in iter_statements(root))


def max_nesting(root: Node) -> int:
    """Maximum statement-nesting depth (for metrics and generators)."""

    def depth(node: Node) -> int:
        child_depths = [depth(c) for c in node.children()]
        best = max(child_depths, default=0)
        return best + (1 if isinstance(node, Stmt) else 0)

    return depth(root)


def propagate_locs(root: Node) -> Node:
    """Fill in missing source positions on a synthesized subtree.

    Builder- and clone-produced nodes default to ``Loc.none()``, which
    makes every downstream diagnostic point at ``0:0``.  This repairs a
    tree in place with two passes: a node without a position first
    adopts the position of its earliest located descendant (the guard
    of a synthesized ``if``, say), and anything still unlocated then
    inherits the nearest located ancestor's position.  Returns ``root``
    for chaining.  Trees with no located node anywhere are unchanged.
    """

    def adopt_up(node: Node) -> Loc:
        first = node.loc
        for child in node.children():
            child_loc = adopt_up(child)
            if not first and child_loc:
                first = child_loc
        if not node.loc and first:
            node.loc = Loc(first.line, first.column)
        return first

    def push_down(node: Node, inherited: Loc) -> None:
        if not node.loc and inherited:
            node.loc = Loc(inherited.line, inherited.column)
        for child in node.children():
            push_down(child, node.loc)

    adopt_up(root)
    push_down(root, root.loc)
    return root

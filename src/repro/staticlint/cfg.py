"""Control-flow graphs for the paper's concurrent language.

The CFG is the shared substrate of every lint pass.  Nodes are atomic
program actions (assignments, ``wait``/``signal``, ``skip``) plus guard
nodes for ``if``/``while`` and fork/join nodes for ``cobegin``; edges
are labelled:

* ``seq`` — unconditional sequencing;
* ``true``/``false`` — the two outcomes of a guard evaluation;
* ``fork`` — from a ``cobegin`` fork node into each arm;
* ``join`` — from each arm's exits into the matching join node;
* ``sync`` — from every ``signal(s)`` to every ``wait(s)`` on the same
  semaphore: the may-synchronize-with relation.  Most analyses exclude
  these; the must-assigned pass uses them to learn facts that every
  possible signaller establishes.

Each node records the ``cobegin`` arms it executes under (``arm`` — a
stack of ``(fork_index, branch_index)`` pairs), which the race pass
uses to decide whether two actions can run in parallel, and the names
it reads and writes, set once when the node is built.  Nodes are
numbered in the order :func:`build_cfg` meets their statements, so the
atomic actions (``assign``, ``wait``, ``signal``) appear in source
preorder.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.lang.ast import (
    Assign,
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
    Wait,
    While,
    expr_variables,
)

#: Edge labels (see module docstring).
EDGE_KINDS = ("seq", "true", "false", "fork", "join", "sync")

#: Node kinds that correspond to a real program action or guard.
ACTION_KINDS = frozenset({"assign", "wait", "signal", "skip", "branch", "loop"})


class CFGNode:
    """One control-flow node.

    ``kind`` is one of ``entry``, ``exit``, ``nop``, ``assign``,
    ``wait``, ``signal``, ``skip``, ``branch`` (an ``if`` guard),
    ``loop`` (a ``while`` guard), ``fork``, ``join``.  ``reads`` holds
    the names the node reads (guards read their condition;
    ``wait``/``signal`` read their semaphore) and ``writes`` the names
    it writes (``wait``/``signal`` modify their semaphore, per Figure
    2's ``mod``).
    """

    __slots__ = ("idx", "kind", "stmt", "arm", "reads", "writes")

    def __init__(self, idx: int, kind: str, stmt: Optional[Stmt], arm: Tuple):
        self.idx = idx
        self.kind = kind
        self.stmt = stmt
        self.arm = arm
        self.reads: FrozenSet[str] = frozenset()
        self.writes: FrozenSet[str] = frozenset()
        if kind == "assign":
            self.reads = expr_variables(stmt.expr)
            self.writes = frozenset((stmt.target,))
        elif kind in ("branch", "loop"):
            self.reads = expr_variables(stmt.cond)
        elif kind in ("wait", "signal"):
            self.reads = self.writes = frozenset((stmt.sem,))

    @property
    def loc(self) -> Loc:
        """The source position of the underlying statement."""
        return self.stmt.loc if self.stmt is not None else Loc.none()

    def __repr__(self) -> str:
        return f"<CFGNode {self.idx} {self.kind} @{self.loc}>"


class CFG:
    """A labelled control-flow graph with entry/exit sentinels."""

    def __init__(self):
        self.nodes: List[CFGNode] = []
        #: successor adjacency: idx -> list of (succ_idx, edge_kind)
        self.succ: List[List[Tuple[int, str]]] = []
        #: predecessor adjacency: idx -> list of (pred_idx, edge_kind)
        self.pred: List[List[Tuple[int, str]]] = []
        self.entry: Optional[CFGNode] = None
        self.exit: Optional[CFGNode] = None
        #: semaphore name -> wait nodes / signal nodes
        self.waits: Dict[str, List[CFGNode]] = {}
        self.signals: Dict[str, List[CFGNode]] = {}

    # -- construction ---------------------------------------------------

    def add_node(self, kind: str, stmt: Optional[Stmt], arm: Tuple) -> CFGNode:
        """Append a node and return it."""
        node = CFGNode(len(self.nodes), kind, stmt, arm)
        self.nodes.append(node)
        self.succ.append([])
        self.pred.append([])
        if kind == "wait":
            self.waits.setdefault(stmt.sem, []).append(node)
        elif kind == "signal":
            self.signals.setdefault(stmt.sem, []).append(node)
        return node

    def add_edge(self, a: CFGNode, b: CFGNode, kind: str) -> None:
        """Add a labelled edge ``a -> b``."""
        assert kind in EDGE_KINDS, kind
        self.succ[a.idx].append((b.idx, kind))
        self.pred[b.idx].append((a.idx, kind))

    # -- queries ---------------------------------------------------------

    def action_nodes(self) -> List[CFGNode]:
        """Nodes corresponding to real program actions/guards."""
        return [n for n in self.nodes if n.kind in ACTION_KINDS]

    def semaphores(self) -> FrozenSet[str]:
        """Semaphores that appear in a ``wait`` or ``signal``."""
        return frozenset(self.waits) | frozenset(self.signals)

    def guard_constant(self, node: CFGNode):
        """The constant value of a guard node's condition, or ``None``."""
        if node.kind in ("branch", "loop"):
            return const_value(node.stmt.cond)
        return None

    def __repr__(self) -> str:
        edges = sum(len(s) for s in self.succ)
        return f"<CFG {len(self.nodes)} nodes, {edges} edges>"


def const_value(expr: Expr):
    """Fold an expression to a Python constant, or ``None`` if it is not
    constant.  Division by a constant zero folds to ``None`` (the
    runtime faults there; the linter stays silent)."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, UnOp):
        v = const_value(expr.operand)
        if v is None:
            return None
        return (not v) if expr.op == "not" else -v
    if isinstance(expr, BinOp):
        a = const_value(expr.left)
        b = const_value(expr.right)
        if a is None or b is None:
            return None
        try:
            return {
                "+": lambda: a + b,
                "-": lambda: a - b,
                "*": lambda: a * b,
                "/": lambda: int(a / b) if b else None,
                "mod": lambda: a % b if b else None,
                "=": lambda: a == b,
                "#": lambda: a != b,
                "<": lambda: a < b,
                "<=": lambda: a <= b,
                ">": lambda: a > b,
                ">=": lambda: a >= b,
                "and": lambda: bool(a) and bool(b),
                "or": lambda: bool(a) or bool(b),
            }[expr.op]()
        except (ZeroDivisionError, KeyError):
            return None
    return None


def build_cfg(subject: Union[Program, Stmt]) -> CFG:
    """Construct the CFG of ``subject`` (a program's body or a statement),
    with a ``sync`` edge from every ``signal(s)`` to every ``wait(s)``."""
    stmt = subject.body if isinstance(subject, Program) else subject
    cfg = CFG()
    cfg.entry = cfg.add_node("entry", None, ())
    first, exits = _wire(cfg, stmt, ())
    cfg.add_edge(cfg.entry, first, "seq")
    cfg.exit = cfg.add_node("exit", None, ())
    for node, kind in exits:
        cfg.add_edge(node, cfg.exit, kind)
    for sem, signal_nodes in cfg.signals.items():
        for s in signal_nodes:
            for w in cfg.waits.get(sem, ()):
                cfg.add_edge(s, w, "sync")
    return cfg


_ATOMIC = {Assign: "assign", Wait: "wait", Signal: "signal", Skip: "skip"}


def _wire(cfg: CFG, stmt: Stmt, arm: Tuple):
    """Wire ``stmt`` into ``cfg``; returns ``(entry_node, exits)`` where
    ``exits`` is a list of ``(node, edge_kind)`` pairs to connect to
    whatever follows."""
    kind = _ATOMIC.get(type(stmt))
    if kind is not None:
        node = cfg.add_node(kind, stmt, arm)
        return node, [(node, "seq")]
    if isinstance(stmt, Begin):
        if not stmt.body:
            node = cfg.add_node("nop", stmt, arm)
            return node, [(node, "seq")]
        first = None
        pending = []
        for child in stmt.body:
            entry, exits = _wire(cfg, child, arm)
            for node, ekind in pending:
                cfg.add_edge(node, entry, ekind)
            if first is None:
                first = entry
            pending = exits
        return first, pending
    if isinstance(stmt, If):
        guard = cfg.add_node("branch", stmt, arm)
        then_entry, then_exits = _wire(cfg, stmt.then_branch, arm)
        cfg.add_edge(guard, then_entry, "true")
        exits = list(then_exits)
        if stmt.else_branch is not None:
            else_entry, else_exits = _wire(cfg, stmt.else_branch, arm)
            cfg.add_edge(guard, else_entry, "false")
            exits.extend(else_exits)
        else:
            exits.append((guard, "false"))
        return guard, exits
    if isinstance(stmt, While):
        guard = cfg.add_node("loop", stmt, arm)
        body_entry, body_exits = _wire(cfg, stmt.body, arm)
        cfg.add_edge(guard, body_entry, "true")
        for node, ekind in body_exits:
            cfg.add_edge(node, guard, ekind)
        return guard, [(guard, "false")]
    if isinstance(stmt, Cobegin):
        fork = cfg.add_node("fork", stmt, arm)
        join = cfg.add_node("join", stmt, arm)
        for i, branch in enumerate(stmt.branches):
            entry, exits = _wire(cfg, branch, arm + ((fork.idx, i),))
            cfg.add_edge(fork, entry, "fork")
            for node, _ekind in exits:
                cfg.add_edge(node, join, "join")
        return fork, [(join, "seq")]
    raise TypeError(
        f"cannot build a CFG for {type(stmt).__name__}; expand procedures "
        f"first (repro.lang.procs.resolve_subject)"
    )


def may_run_in_parallel(a: CFGNode, b: CFGNode) -> bool:
    """True when the two nodes sit in *different* arms of some common
    ``cobegin`` — the structural may-happen-in-parallel relation."""
    for (fork_a, branch_a) in a.arm:
        for (fork_b, branch_b) in b.arm:
            if fork_a == fork_b and branch_a != branch_b:
                return True
    return False

"""CFM certification conditions as a lattice constraint graph.

Every Figure 2 side condition has the shape ``join(sources) <= meet
(sinks)``, which decomposes into per-pair inequalities ``source <=
sink``.  We materialize these as edges of a directed graph whose nodes
are program variables, lattice constants, and two families of
*auxiliary* nodes that keep the edge count linear in program size:

* ``flow@uid`` — the global flow produced by the statement with that
  uid (``flow(S)`` in the paper);
* ``mod@uid`` — a hub standing for ``mod(S)``: anything required to be
  below ``mod(S)`` gets one edge into the hub, and the hub has one edge
  to each modified variable;
* ``pre@uid/i`` — the running prefix join ``flow(S1) (+) ... (+)
  flow(Si)`` inside the composition with that uid.

An edge ``a -> b`` asserts ``class(a) <= class(b)`` must hold of any
satisfying binding.  The *least solution* (computed by worklist
propagation from the lattice bottom, with some variables pinned) is the
least restrictive completion of a partial binding — the engine behind
:func:`repro.core.inference.infer_binding`.

Whether ``flow(S) = nil`` is a purely syntactic property (``S``
contains a ``while`` or ``wait`` or not), so nil-ness never depends on
the binding and the graph construction can resolve it statically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple, Union

from repro.errors import CertificationError
from repro.lang.ast import (
    Assign,
    Begin,
    Cobegin,
    Expr,
    If,
    Program,
    Signal,
    Skip,
    Stmt,
    Wait,
    While,
    expr_variables,
)
from repro.lattice.base import Element, Lattice


# ----------------------------------------------------------------------
# Graph nodes.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VarNode:
    """A program variable's static binding."""

    name: str

    def __str__(self) -> str:
        return f"sbind({self.name})"


@dataclass(frozen=True)
class ConstNode:
    """A lattice constant (source only)."""

    value: Element

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class FlowNode:
    """``flow(S)`` of the statement with uid ``uid``."""

    uid: int

    def __str__(self) -> str:
        return f"flow@{self.uid}"


@dataclass(frozen=True)
class ModNode:
    """A hub standing for ``mod(S)`` of the statement with uid ``uid``."""

    uid: int

    def __str__(self) -> str:
        return f"mod@{self.uid}"


@dataclass(frozen=True)
class PrefixNode:
    """Prefix flow join inside composition ``uid`` after child ``index``."""

    uid: int
    index: int

    def __str__(self) -> str:
        return f"pre@{self.uid}/{self.index}"


GraphNode = Union[VarNode, ConstNode, FlowNode, ModNode, PrefixNode]


@dataclass(frozen=True)
class Edge:
    """``src <= dst``, with the Figure 2 rule that demanded it."""

    src: GraphNode
    dst: GraphNode
    rule: str
    stmt_uid: int

    def __str__(self) -> str:
        return f"{self.src} <= {self.dst}  [{self.rule}]"


class ConstraintGraph:
    """The constraint graph of one program.

    ``edges`` is the full edge list; ``succ`` indexes edges by source
    node for propagation.
    """

    def __init__(self, edges: List[Edge], variables: FrozenSet[str]):
        self.edges = list(edges)
        self.variables = variables
        self.succ: Dict[GraphNode, List[Edge]] = {}
        for e in self.edges:
            self.succ.setdefault(e.src, []).append(e)

    def nodes(self) -> Set[GraphNode]:
        """Every node mentioned by an edge, plus isolated variables."""
        out: Set[GraphNode] = {VarNode(v) for v in self.variables}
        for e in self.edges:
            out.add(e.src)
            out.add(e.dst)
        return out

    # ------------------------------------------------------------------

    def least_solution(
        self,
        scheme: Lattice,
        fixed: Mapping[str, Element],
    ) -> Tuple[Dict[GraphNode, Element], List[Edge]]:
        """Least valuation satisfying all edges, given pinned variables.

        Free variables and auxiliary nodes start at the scheme bottom
        and are raised by worklist propagation; pinned variables never
        rise.  Returns ``(valuation, violated_edges)`` where a violated
        edge is one whose source value exceeds a *pinned* target — the
        witness that ``fixed`` cannot be completed.
        """
        for name, cls in fixed.items():
            scheme.check(cls)
        value: Dict[GraphNode, Element] = {}
        for node in self.nodes():
            if isinstance(node, ConstNode):
                value[node] = node.value
            elif isinstance(node, VarNode) and node.name in fixed:
                value[node] = fixed[node.name]
            else:
                value[node] = scheme.bottom
        pinned = {VarNode(n) for n in fixed}

        work: List[GraphNode] = list(value)
        on_work = set(work)
        while work:
            node = work.pop()
            on_work.discard(node)
            v = value[node]
            for edge in self.succ.get(node, ()):
                dst = edge.dst
                if dst in pinned or isinstance(dst, ConstNode):
                    continue  # pinned targets are checked afterwards
                joined = scheme.join(value[dst], v)
                if joined != value[dst]:
                    value[dst] = joined
                    if dst not in on_work:
                        work.append(dst)
                        on_work.add(dst)

        violated = [
            e
            for e in self.edges
            if (e.dst in pinned or isinstance(e.dst, ConstNode))
            and not scheme.leq(value[e.src], value[e.dst])
        ]
        return value, violated


# ----------------------------------------------------------------------
# Construction.
# ----------------------------------------------------------------------


class _Builder:
    def __init__(self, scheme: Lattice):
        self.scheme = scheme
        self.edges: List[Edge] = []

    def edge(self, src: GraphNode, dst: GraphNode, rule: str, uid: int) -> None:
        self.edges.append(Edge(src, dst, rule, uid))

    def expr_sources(self, expr: Expr) -> List[GraphNode]:
        return [VarNode(name) for name in sorted(expr_variables(expr))]

    def visit(self, stmt: Stmt) -> Tuple[Optional[FlowNode], FrozenSet[str]]:
        """Emit edges for ``stmt``.

        Returns ``(flow_node, modified_vars)`` where ``flow_node`` is
        ``None`` exactly when ``flow(S) = nil``.  The statement's mod
        hub is created lazily: an edge into ``mod@uid`` plus edges from
        the hub to each modified variable.
        """
        if isinstance(stmt, Assign):
            for src in self.expr_sources(stmt.expr):
                self.edge(src, VarNode(stmt.target), "assignment", stmt.uid)
            return None, frozenset([stmt.target])

        if isinstance(stmt, Skip):
            return None, frozenset()

        if isinstance(stmt, Wait):
            flow = FlowNode(stmt.uid)
            self.edge(VarNode(stmt.sem), flow, "wait-flow", stmt.uid)
            return flow, frozenset([stmt.sem])

        if isinstance(stmt, Signal):
            # flow(signal) = nil; mod(signal) = sbind(sem); cert = true.
            return None, frozenset([stmt.sem])

        if isinstance(stmt, If):
            flow1, vars1 = self.visit(stmt.then_branch)
            if stmt.else_branch is not None:
                flow2, vars2 = self.visit(stmt.else_branch)
            else:
                flow2, vars2 = None, frozenset()
            modified = vars1 | vars2
            hub = self._mod_hub(stmt, modified, "alternation")
            for src in self.expr_sources(stmt.cond):
                self.edge(src, hub, "alternation", stmt.uid)
            if flow1 is None and flow2 is None:
                return None, modified
            flow = FlowNode(stmt.uid)
            for sub in (flow1, flow2):
                if sub is not None:
                    self.edge(sub, flow, "alternation-flow", stmt.uid)
            for src in self.expr_sources(stmt.cond):
                self.edge(src, flow, "alternation-flow", stmt.uid)
            return flow, modified

        if isinstance(stmt, While):
            flow1, vars1 = self.visit(stmt.body)
            flow = FlowNode(stmt.uid)
            if flow1 is not None:
                self.edge(flow1, flow, "iteration-flow", stmt.uid)
            for src in self.expr_sources(stmt.cond):
                self.edge(src, flow, "iteration-flow", stmt.uid)
            hub = self._mod_hub(stmt, vars1, "iteration")
            self.edge(flow, hub, "iteration", stmt.uid)
            return flow, vars1

        if isinstance(stmt, Begin):
            prefix: Optional[PrefixNode] = None
            child_flows: List[Optional[FlowNode]] = []
            modified: FrozenSet[str] = frozenset()
            for i, child in enumerate(stmt.body):
                flow_i, vars_i = self.visit(child)
                if prefix is not None:
                    hub = self._mod_hub(child, vars_i, "composition")
                    self.edge(prefix, hub, "composition", stmt.uid)
                if flow_i is not None:
                    new_prefix = PrefixNode(stmt.uid, i)
                    if prefix is not None:
                        self.edge(prefix, new_prefix, "composition-prefix", stmt.uid)
                    self.edge(flow_i, new_prefix, "composition-prefix", stmt.uid)
                    prefix = new_prefix
                child_flows.append(flow_i)
                modified = modified | vars_i
            if all(f is None for f in child_flows):
                return None, modified
            flow = FlowNode(stmt.uid)
            for f in child_flows:
                if f is not None:
                    self.edge(f, flow, "composition-flow", stmt.uid)
            return flow, modified

        if isinstance(stmt, Cobegin):
            child_flows = []
            modified = frozenset()
            for branch in stmt.branches:
                flow_i, vars_i = self.visit(branch)
                child_flows.append(flow_i)
                modified = modified | vars_i
            if all(f is None for f in child_flows):
                return None, modified
            flow = FlowNode(stmt.uid)
            for f in child_flows:
                if f is not None:
                    self.edge(f, flow, "concurrency-flow", stmt.uid)
            return flow, modified

        raise CertificationError(f"not a statement: {stmt!r}")

    def _mod_hub(self, stmt: Stmt, modified: FrozenSet[str], rule: str) -> ModNode:
        hub = ModNode(stmt.uid)
        for name in sorted(modified):
            self.edge(hub, VarNode(name), f"{rule}-mod", stmt.uid)
        return hub


def complete_synthetic_binding(subject, binding):
    """Classify procedure-expansion temporaries automatically.

    Activation variables (``Program.synthetic``) are not policy
    objects: their classes are whatever the call context dictates.  We
    assign each its *least* class consistent with the constraint graph
    under the user's bindings — so certification of the expansion
    agrees with call-site instantiation of the procedure body.  The
    user's own bindings are never touched.
    """
    from repro.lang.ast import Program

    if not isinstance(subject, Program) or not subject.synthetic:
        return binding
    missing = [name for name in subject.synthetic if name not in binding.variables]
    if not missing:
        return binding
    scheme = binding.scheme
    graph = build_constraint_graph(subject.body, scheme)
    fixed = {
        name: binding.of_var(name)
        for name in graph.variables
        if name in binding.variables
    }
    valuation, _violated = graph.least_solution(scheme, fixed)
    return binding.with_bindings(
        {
            name: valuation.get(VarNode(name), scheme.bottom)
            for name in missing
        }
    )


def build_constraint_graph(
    subject: Union[Program, Stmt], scheme: Lattice
) -> ConstraintGraph:
    """Build the CFM constraint graph of ``subject`` over ``scheme``."""
    from repro.lang.procs import resolve_subject

    subject, stmt = resolve_subject(subject)
    if not isinstance(stmt, Stmt):
        raise CertificationError(f"cannot analyze {subject!r}")
    builder = _Builder(scheme)
    builder.visit(stmt)
    variables = set()
    from repro.lang.ast import used_variables

    variables = used_variables(stmt)
    return ConstraintGraph(builder.edges, frozenset(variables))

"""The variable-to-variable flow relation a program specifies.

CFM's checks collapse to inequalities ``sbind(a) <= sbind(b)`` between
variables (see :mod:`repro.core.constraints`).  This module projects
the constraint graph down to program variables: there is a flow edge
``a -> b`` exactly when certification requires ``sbind(a) <=
sbind(b)`` — i.e. when the program can move information from ``a`` to
``b`` directly, through a local indirect flow, or through a global
(termination / synchronization) flow.

The transitive closure answers "can x reach y?" questions like the
paper's section 4.3 chain ``x -> modify -> m -> y``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple, Union

from repro.core.constraints import (
    ConstraintGraph,
    GraphNode,
    VarNode,
    build_constraint_graph,
)
from repro.lang.ast import Program, Stmt
from repro.lattice.base import Lattice


class FlowGraph:
    """Variable-level flows, with provenance computed on demand.

    ``edges`` is the set of direct ``(source, sink)`` variable pairs;
    :meth:`why` names the Figure 2 rules behind one of them.
    """

    def __init__(
        self,
        variables: FrozenSet[str],
        edges: Set[Tuple[str, str]],
        constraints: ConstraintGraph,
    ):
        self.variables = variables
        self.edges = edges
        self._constraints = constraints
        self._succ: Dict[str, Set[str]] = {}
        for a, bvar in edges:
            self._succ.setdefault(a, set()).add(bvar)

    def flows_to(self, source: str) -> FrozenSet[str]:
        """All variables reachable from ``source`` (transitively)."""
        seen: Set[str] = set()
        work = [source]
        while work:
            cur = work.pop()
            for nxt in self._succ.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
        return frozenset(seen)

    def can_flow(self, source: str, sink: str) -> bool:
        """True iff certification requires ``sbind(source) <= sbind(sink)``."""
        return sink in self.flows_to(source)

    def direct_edges(self) -> List[Tuple[str, str]]:
        """The one-step flow pairs, sorted."""
        return sorted(self.edges)

    def why(self, source: str, sink: str) -> FrozenSet[str]:
        """The Figure 2 rules that induce the direct edge, if any.

        The union over *every* constraint-graph path from ``source``
        to ``sink`` through auxiliary nodes only.  A worklist carries
        the rules reaching each auxiliary node and re-queues a node
        whenever that set grows; with six rule names, a node is
        re-queued at most six times.
        """
        if source == sink:
            return frozenset()
        succ = self._constraints.succ
        start = VarNode(source)
        reaching: Dict[GraphNode, FrozenSet[str]] = {start: frozenset()}
        work = [start]
        rules: Set[str] = set()
        while work:
            node = work.pop()
            for edge in succ.get(node, ()):
                grown = reaching[node] | {edge.rule.split("-")[0]}
                dst = edge.dst
                if isinstance(dst, VarNode):
                    if dst.name == sink:
                        rules |= grown
                    continue
                known = reaching.get(dst)
                if known is None or not grown <= known:
                    reaching[dst] = grown if known is None else known | grown
                    work.append(dst)
        return frozenset(rules)

    def __repr__(self) -> str:
        return f"<FlowGraph {len(self.variables)} variables, {len(self.edges)} edges>"


def flow_graph(subject: Union[Program, Stmt], scheme: Lattice) -> FlowGraph:
    """Project the CFM constraint graph onto program variables.

    Auxiliary (flow/mod/prefix) nodes are eliminated by reachability:
    an edge ``a -> b`` between variables exists when the constraint
    graph connects ``sbind(a)`` to ``sbind(b)`` through auxiliary nodes
    only.  No rule provenance is collected here; :meth:`FlowGraph.why`
    computes it for the edges a caller asks about.
    """
    graph = build_constraint_graph(subject, scheme)
    succ = graph.succ
    edges: Set[Tuple[str, str]] = set()
    for name in graph.variables:
        start = VarNode(name)
        work: List[GraphNode] = [start]
        seen: Set[GraphNode] = set()
        while work:
            for edge in succ.get(work.pop(), ()):
                dst = edge.dst
                if isinstance(dst, VarNode):
                    if dst.name != name:
                        edges.add((name, dst.name))
                elif dst not in seen:
                    seen.add(dst)
                    work.append(dst)
    return FlowGraph(graph.variables, edges, graph)

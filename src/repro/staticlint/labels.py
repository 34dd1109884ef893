"""Security-label lint: label creep and synchronization channels.

* **RPL501 label-creep** — with a policy binding in hand, re-derive for
  each bound variable the *least* class certification actually forces
  on it: pin every other bound variable at its policy class and take
  the least solution of the program's variable flow graph
  (:func:`repro.analysis.flowgraph.flow_graph`), whose edges are the
  CFM constraint graph's variable-to-variable paths.  When the forced
  class is not below the policy class, the binding cannot certify and
  the diagnostic names the precise gap — the per-variable refinement
  of a CFM rejection.  The finding stands whether or not the other
  pins conflict as well, so for a binding that covers the program,
  lint reports an RPL501 exactly when ``certify`` rejects.

* **RPL503 over-classification** — the other side of the same
  computation, in the spirit of the paper's section 5.2 precision gap:
  a *sink* (a variable the program writes) bound strictly above the
  least class any check requires, while the other pins are
  satisfiable.  Informational: the policy is sound but looser than the
  program needs.

* **RPL502 synchronization-channel** — needs no binding: a ``wait`` or
  ``signal`` that is control-dependent on data turns the *order* of
  semaphore operations into a message (the paper's Figure 3).  The
  diagnostic names the guard variables and, via the flow relation, the
  variables the channel can reach.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.lang.ast import If, Signal, Stmt, Wait, While, expr_variables
from repro.staticlint.diagnostics import Diagnostic, make
from repro.staticlint.passes import LintContext, LintPass


def _conditional_sync_ops(stmt: Stmt) -> List[Tuple[Stmt, Tuple[str, ...]]]:
    """Every ``wait``/``signal`` with an ``if``/``while`` ancestor,
    paired with the sorted union of the guard variables above it."""
    out: List[Tuple[Stmt, Tuple[str, ...]]] = []

    def walk(node: Stmt, guards: Set[str]) -> None:
        if isinstance(node, (Wait, Signal)):
            if guards:
                out.append((node, tuple(sorted(guards))))
            return
        if isinstance(node, (If, While)):
            inner = guards | set(expr_variables(node.cond))
            for child in node.children():
                if isinstance(child, Stmt):
                    walk(child, inner)
            return
        for child in node.children():
            if isinstance(child, Stmt):
                walk(child, guards)

    walk(stmt, set())
    return out


class LabelPass(LintPass):
    """RPL5xx: label-creep, over-classification, synchronization channels."""

    name = "labels"
    codes = ("RPL501", "RPL502", "RPL503")
    description = "policy-binding precision and covert-channel lint"

    def run(self, ctx: LintContext) -> List[Diagnostic]:
        """Channel detection always runs; creep needs a binding.

        Both halves read the program's variable flow graph, built once
        here.
        """
        from repro.analysis.flowgraph import flow_graph
        from repro.lattice.chain import two_level

        scheme = ctx.scheme if ctx.scheme is not None else two_level()
        try:
            graph = flow_graph(ctx.stmt, scheme)
        except Exception:  # flow extraction must never kill the lint run
            graph = None
        out = self._channels(ctx, graph)
        if ctx.binding is not None and graph is not None:
            out.extend(self._creep(ctx, graph))
        out.sort(key=Diagnostic.sort_key)
        return out

    def _channels(self, ctx: LintContext, graph) -> List[Diagnostic]:
        out = []
        for op, guards in _conditional_sync_ops(ctx.stmt):
            verb = "signal" if isinstance(op, Signal) else "wait"
            downstream: List[str] = []
            if graph is not None and op.sem in graph.variables:
                downstream = sorted(
                    v for v in graph.flows_to(op.sem)
                    if v != op.sem and v not in guards
                )
            hint = (
                "every statement sequenced after a wait on "
                f"'{op.sem}' observes the guard"
            )
            if downstream:
                hint += "; reaches: " + ", ".join(downstream[:4])
            out.append(make(
                "RPL502",
                f"{verb}({op.sem}) is control-dependent on "
                f"{{{', '.join(guards)}}}: the order of semaphore "
                f"operations carries their information "
                f"(synchronization channel)",
                op,
                pass_name=self.name,
                hint=hint,
                extra={"semaphore": op.sem, "guards": list(guards),
                       "reaches": downstream},
            ))
        return out

    def _creep(self, ctx: LintContext, graph) -> List[Diagnostic]:
        from repro.core.constraints import ConstraintGraph, Edge, VarNode
        from repro.errors import ReproError

        binding = ctx.binding
        scheme = binding.scheme
        policy: Dict[str, object] = {}
        for name in sorted(graph.variables):
            try:
                policy[name] = binding.of_var(name)
            except ReproError:
                continue  # unbound and no default: stays free
        # Every constraint edge has one source, and the auxiliary
        # flow/mod/prefix nodes are never pinned; so over the flow
        # graph's edges (variable-to-variable paths through auxiliary
        # nodes) each variable gets the same least class, and the same
        # pins conflict, as over the full constraint graph.
        solver = ConstraintGraph(
            [Edge(VarNode(a), VarNode(b), "flow", 0)
             for a, b in graph.direct_edges()],
            graph.variables,
        )
        # The sinks: every variable the program writes, with the first
        # statement that does (the CFG numbers them in source preorder).
        first_write: Dict[str, Stmt] = {}
        for node in ctx.cfg.nodes:
            for name in node.writes:
                first_write.setdefault(name, node.stmt)
        out = []
        for name in policy:
            others = {n: c for n, c in policy.items() if n != name}
            # A conflict among the other pins does not excuse this
            # variable's own gap (freeing a leaking variable raises it
            # into the next hop's conflict), so RPL501 ignores it; the
            # RPL503 hint calls the binding sound, so that code needs
            # the other pins to be satisfiable.
            valuation, violated = solver.least_solution(scheme, others)
            required = valuation[VarNode(name)]
            declared = policy[name]
            anchor = first_write.get(name, ctx.stmt)
            if not scheme.leq(required, declared):
                out.append(make(
                    "RPL501",
                    f"certification forces the class of '{name}' up to "
                    f"{required!r}, but the policy binds it at {declared!r}",
                    anchor,
                    pass_name=self.name,
                    hint=f"either raise the binding of '{name}' to "
                         f"{required!r} or break the flow that forces it",
                    extra={"variable": name,
                           "declared": str(declared),
                           "required": str(required)},
                ))
            elif not violated and name in first_write and required != declared:
                out.append(make(
                    "RPL503",
                    f"'{name}' is bound at {declared!r} but certification "
                    f"only requires {required!r} (labels may have crept)",
                    anchor,
                    pass_name=self.name,
                    hint=f"the binding is sound; lowering '{name}' to "
                         f"{required!r} would still certify",
                    extra={"variable": name,
                           "declared": str(declared),
                           "required": str(required)},
                ))
        return out

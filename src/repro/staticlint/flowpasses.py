"""Dataflow lint passes: use-before-assign, dead stores, dead code.

All three are instances of the generic engine in
:mod:`repro.staticlint.dataflow`:

* **RPL301 use-before-assign** — a forward *must-assigned* analysis.
  ``cobegin`` join nodes union their arms (all arms complete before the
  join); a ``wait`` additionally learns the intersection of the facts
  established before every possible matching ``signal`` (some signal
  happened-before the wait completed), which is how the pass sees
  through Figure 3's hand-off protocol.  Only variables that *are*
  assigned somewhere are reported — a never-assigned variable is a
  program input by this language's convention.

* **RPL302 dead-assignment** — a backward liveness analysis.  The final
  store is observable (the explorer reports it), so every variable is
  live at exit; an assignment is dead only when some later assignment
  always overwrites it first.  Variables shared across ``cobegin`` arms
  are exempt (a parallel read may observe the value mid-flight).

* **RPL303 unreachable-code** — reachability with constant-folded
  guards (``if 1 = 2 then S`` and friends).
"""

from __future__ import annotations

from typing import FrozenSet, List, Set

from repro.staticlint.cfg import CFG, CFGNode
from repro.staticlint.dataflow import DataflowAnalysis, reachable, solve
from repro.staticlint.diagnostics import Diagnostic, make
from repro.staticlint.passes import LintContext, LintPass


class MustAssigned(DataflowAnalysis):
    """Forward must-analysis of "an assignment has definitely reached
    this point" (see the module docstring for the concurrency rules)."""

    direction = "forward"
    include_sync = True

    def __init__(self, variables: FrozenSet[str], pre_assigned: FrozenSet[str]):
        self.variables = variables
        self.pre_assigned = pre_assigned

    def boundary(self, cfg: CFG) -> FrozenSet[str]:
        """Variables with a non-default declared initial count as assigned."""
        return self.pre_assigned

    def init(self, cfg: CFG) -> FrozenSet[str]:
        """Optimistic top: everything (narrowed by the fixpoint)."""
        return self.variables

    def join2(self, a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
        """Must-join: intersection."""
        return a & b

    def join(self, node: CFGNode, incoming, cfg: CFG) -> FrozenSet[str]:
        """Node-aware join.

        * ``join`` nodes union their arms — every arm has completed.
        * ``wait`` nodes intersect their sequential predecessors, then
          add what *every* possible signaller guarantees (at least one
          ``signal`` happened-before the wait completed).
        * everything else intersects.
        """
        seq = [v for kind, v in incoming if kind != "sync"]
        sync = [v for kind, v in incoming if kind == "sync"]
        if node.kind == "join":
            acc: FrozenSet[str] = frozenset()
            for v in seq:
                acc |= v
            return acc
        if seq:
            base = seq[0]
            for v in seq[1:]:
                base &= v
        else:
            base = frozenset()
        if node.kind == "wait" and sync:
            every_signaller = sync[0]
            for v in sync[1:]:
                every_signaller &= v
            base |= every_signaller
        return base

    def transfer(self, node: CFGNode, value: FrozenSet[str], cfg: CFG) -> FrozenSet[str]:
        """Assignments establish their target."""
        if node.kind == "assign":
            return value | {node.stmt.target}
        return value


class Liveness(DataflowAnalysis):
    """Backward may-analysis of "this value may still be read"."""

    direction = "backward"
    include_sync = True  # a parallel waiter may observe the value

    def __init__(self, variables: FrozenSet[str]):
        self.variables = variables

    def boundary(self, cfg: CFG) -> FrozenSet[str]:
        """The final store is observable: everything is live at exit."""
        return self.variables

    def init(self, cfg: CFG) -> FrozenSet[str]:
        """Optimistic bottom for a may-analysis: nothing live."""
        return frozenset()

    def join2(self, a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
        """May-join: union."""
        return a | b

    def transfer(self, node: CFGNode, value: FrozenSet[str], cfg: CFG) -> FrozenSet[str]:
        """Kill the written name, gen every read name."""
        if node.kind == "assign":
            value = value - {node.stmt.target}
        return value | node.reads()


class UseBeforeAssignPass(LintPass):
    """RPL301: reads that may observe the implicit initial value."""

    name = "use-before-assign"
    codes = ("RPL301",)
    description = "reads that no assignment is guaranteed to reach"

    def run(self, ctx: LintContext) -> List[Diagnostic]:
        """Report the first offending read of each variable."""
        cfg = ctx.cfg
        assigned_somewhere = frozenset(
            n.stmt.target for n in cfg.nodes if n.kind == "assign"
        )
        if not assigned_somewhere:
            return []
        variables = frozenset(ctx.kinds)
        pre = frozenset(
            name for name in variables
            if ctx.kinds.get(name) == "semaphore" or ctx.initial(name) != 0
        )
        solution = solve(cfg, MustAssigned(variables, pre))
        live = reachable(cfg)
        worst: dict = {}
        for node in cfg.action_nodes():
            if node.idx not in live:
                continue  # unreachable reads are RPL303's business
            must = solution[node.idx][0]
            for v in node.reads():
                if ctx.kinds.get(v) == "semaphore":
                    continue
                if v in assigned_somewhere and v not in must:
                    key = (node.loc.line, node.loc.column, node.idx)
                    if v not in worst or key < worst[v][0]:
                        worst[v] = (key, node)
        out = []
        for v, (_key, node) in sorted(worst.items()):
            out.append(make(
                "RPL301",
                f"'{v}' may be read before any assignment reaches it; the "
                f"read would see the initial value {ctx.initial(v)}",
                node.stmt,
                pass_name=self.name,
                hint=f"assign '{v}' on every path (and in every "
                     f"interleaving) before this statement, or declare the "
                     f"intended initial value explicitly",
                extra={"variable": v, "initial": ctx.initial(v)},
            ))
        out.sort(key=Diagnostic.sort_key)
        return out


class DeadAssignmentPass(LintPass):
    """RPL302: stores certainly overwritten before any read."""

    name = "dead-assignment"
    codes = ("RPL302",)
    description = "assignments whose value is always overwritten unread"

    def run(self, ctx: LintContext) -> List[Diagnostic]:
        """Report assignments that are dead on every path."""
        cfg = ctx.cfg
        variables = frozenset(ctx.kinds)
        solution = solve(cfg, Liveness(variables))
        live_nodes = reachable(cfg)
        out = []
        for node in cfg.action_nodes():
            if node.kind != "assign" or node.idx not in live_nodes:
                continue
            target = node.stmt.target
            if ctx.kinds.get(target) == "semaphore" or target in ctx.shared:
                continue
            live_out = solution[node.idx][0]  # backward pre = after in program order
            if target not in live_out:
                out.append(make(
                    "RPL302",
                    f"the value assigned to '{target}' is always "
                    f"overwritten before it can be read",
                    node.stmt,
                    pass_name=self.name,
                    hint="delete the assignment or use the value before "
                         "the next store",
                    extra={"variable": target},
                ))
        out.sort(key=Diagnostic.sort_key)
        return out


class UnreachablePass(LintPass):
    """RPL303: statements no execution can reach."""

    name = "unreachable"
    codes = ("RPL303",)
    description = "statements cut off by constant guards"

    def run(self, ctx: LintContext) -> List[Diagnostic]:
        """Report the frontier of each unreachable region once."""
        cfg = ctx.cfg
        live = reachable(cfg)
        out = []
        dead: Set[int] = set()
        for node in cfg.action_nodes():
            if node.idx in live:
                continue
            dead.add(node.idx)
        for idx in sorted(dead):
            node = cfg.nodes[idx]
            preds = [p for p, kind in cfg.pred[idx] if kind != "sync"]
            if preds and all(p in dead for p in preds):
                continue  # interior of a region already reported at its head
            out.append(make(
                "RPL303",
                f"this statement can never execute",
                node.stmt,
                pass_name=self.name,
                hint="a guard on the way here folds to a constant",
                extra={},
            ))
        out.sort(key=Diagnostic.sort_key)
        return out


class UnusedPass(LintPass):
    """RPL401/RPL402: declarations the program never touches."""

    name = "unused"
    codes = ("RPL401", "RPL402")
    description = "declared but unused variables and semaphores"

    def run(self, ctx: LintContext) -> List[Diagnostic]:
        """Compare the declarations against the body's used names."""
        if ctx.program is None:
            return []  # bare statements declare nothing
        out = []
        for decl in ctx.program.decls:
            for name in decl.names:
                if name in ctx.used or name in ctx.program.synthetic:
                    continue
                if decl.kind == "semaphore":
                    out.append(make(
                        "RPL402",
                        f"semaphore '{name}' is declared but never waited "
                        f"on or signalled",
                        decl,
                        pass_name=self.name,
                        hint=f"remove '{name}' from the declaration",
                        extra={"variable": name},
                    ))
                else:
                    out.append(make(
                        "RPL401",
                        f"variable '{name}' is declared but never used",
                        decl,
                        pass_name=self.name,
                        hint=f"remove '{name}' from the declaration",
                        extra={"variable": name},
                    ))
        out.sort(key=Diagnostic.sort_key)
        return out

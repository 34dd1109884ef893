"""Race and atomicity lint: unsynchronized access to shared state.

Two families:

* **RPL201** — a variable is written in one ``cobegin`` arm and read or
  written in a sibling arm while the two actions hold no semaphore in
  common.  "Held" is computed by a must-dataflow over the CFG
  (``wait(s)`` acquires, ``signal(s)`` releases, branches meet by
  intersection), so the classic ``wait(mutex) ... signal(mutex)``
  bracket is recognized on every path.  This is the static counterpart
  of what :func:`repro.analysis.atomicity.check_atomicity` assumes and
  the scheduler explores.

* **RPL202** — the section 2.0 at-most-one-shared-reference condition,
  reported through the existing :mod:`repro.analysis.atomicity`
  checker (its violation scan, over the context's shared set) but as
  spanned diagnostics.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.staticlint.cfg import CFG, CFGNode, may_run_in_parallel
from repro.staticlint.dataflow import DataflowAnalysis, solve
from repro.staticlint.diagnostics import Diagnostic, make
from repro.staticlint.passes import LintContext, LintPass


class HeldSemaphores(DataflowAnalysis):
    """Forward must-analysis: semaphores certainly held at each point.

    ``wait(s)`` acquires ``s``; ``signal(s)`` releases it.  The lattice
    is sets of semaphore names ordered by ⊇ (top = all), met by
    intersection — a semaphore is "held" only when every path agrees.
    """

    direction = "forward"
    include_sync = False

    def __init__(self, semaphores: FrozenSet[str]):
        self.semaphores = semaphores

    def boundary(self, cfg: CFG) -> FrozenSet[str]:
        """Nothing is held at program entry."""
        return frozenset()

    def init(self, cfg: CFG) -> FrozenSet[str]:
        """Optimistic top: all semaphores (narrowed by the fixpoint)."""
        return self.semaphores

    def join2(self, a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
        """Must-join: intersection."""
        return a & b

    def transfer(self, node: CFGNode, value: FrozenSet[str], cfg: CFG) -> FrozenSet[str]:
        """Acquire on ``wait``, release on ``signal``."""
        if node.kind == "wait":
            return value | {node.stmt.sem}
        if node.kind == "signal":
            return value - {node.stmt.sem}
        return value


class RacePass(LintPass):
    """RPL201/RPL202: shared-state races and atomicity violations."""

    name = "races"
    codes = ("RPL201", "RPL202")
    description = "unsynchronized shared writes across cobegin arms"

    def run(self, ctx: LintContext) -> List[Diagnostic]:
        """Report conflicting parallel accesses with no common guard."""
        diagnostics = list(self._races(ctx))
        diagnostics.extend(self._atomicity(ctx))
        return diagnostics

    def _races(self, ctx: LintContext) -> List[Diagnostic]:
        cfg = ctx.cfg
        shared = ctx.shared
        if not shared:
            return []
        held = solve(cfg, HeldSemaphores(ctx.semaphores))
        # collect (node, held-at-node) per variable, split by write/read
        accesses: Dict[str, List[Tuple[CFGNode, bool, FrozenSet[str]]]] = {}
        for node in cfg.action_nodes():
            guard = held[node.idx][0]  # value flowing *into* the action
            for v in node.writes:
                if v in shared:
                    accesses.setdefault(v, []).append((node, True, guard))
            for v in node.reads:
                if v in shared:
                    accesses.setdefault(v, []).append((node, False, guard))
        out: List[Diagnostic] = []
        reported = set()
        for v, pairs in sorted(accesses.items()):
            for i, (a, a_writes, a_held) in enumerate(pairs):
                for b, b_writes, b_held in pairs[i + 1:]:
                    if not (a_writes or b_writes):
                        continue
                    if not may_run_in_parallel(a, b):
                        continue
                    if a_held & b_held:
                        continue  # a common semaphore brackets both
                    key = (v, a.arm[-1] if a.arm else None,
                           b.arm[-1] if b.arm else None)
                    if key in reported:
                        continue
                    reported.add(key)
                    writer, other = (a, b) if a_writes else (b, a)
                    kind = "written" if (a_writes and b_writes) else "read"
                    out.append(make(
                        "RPL201",
                        f"'{v}' is written here and {kind} at {other.loc} in "
                        f"a parallel arm with no common semaphore held",
                        writer.stmt,
                        pass_name=self.name,
                        hint=f"bracket both accesses with wait/signal on one "
                             f"mutex semaphore, or confine '{v}' to one arm",
                        extra={"variable": v,
                               "other_line": other.loc.line,
                               "other_column": other.loc.column},
                    ))
        out.sort(key=Diagnostic.sort_key)
        return out

    def _atomicity(self, ctx: LintContext) -> List[Diagnostic]:
        from repro.analysis.atomicity import atomicity_violations

        out = []
        for violation in atomicity_violations(ctx.stmt, ctx.shared):
            out.append(make(
                "RPL202",
                f"atomic action references shared variables "
                f"{list(violation.variables)} {violation.references} times; "
                f"statement-level atomicity is a modelling assumption here",
                violation.stmt,
                pass_name=self.name,
                hint="split the action so it touches at most one "
                     "process-shared variable (Owicki-Gries)",
                extra={"variables": list(violation.variables),
                       "references": violation.references},
            ))
        return out

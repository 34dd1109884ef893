"""The Concurrent Flow Mechanism (paper Figure 2, Definitions 4-5).

CFM certifies a program against a static binding by computing three
syntax-directed functions over the *extended* classification scheme
(the base scheme with ``nil`` adjoined below everything):

* ``mod(S)`` — the greatest lower bound of the bindings of the
  variables potentially modified by ``S`` (the lattice top when ``S``
  modifies nothing, so the empty meet imposes no constraint);
* ``flow(S)`` — the least upper bound of the global flows produced by
  ``S``; ``nil`` when ``S`` produces none.  A statement produces a
  global flow iff it contains a ``while`` (conditional termination) or
  a ``wait`` (conditional delay) — a purely syntactic property;
* ``cert(S)`` — true iff no flow specified by ``S`` violates the
  binding.

The table below is Figure 2 verbatim; each row's side conditions become
:class:`Check` records in the returned report:

====================  =========================================================
``x := e``            ``sbind(e) <= sbind(x)``
``if e ...``          ``cert(S1) and cert(S2) and sbind(e) <= mod(S)``
``while e do S1``     ``cert(S1) and flow(S) <= mod(S)``
``begin S1;..Sn end`` ``cert(Si)`` and ``flow(Sj) <= mod(Si)`` for ``j < i``
``cobegin ... coend`` ``cert(S1) and ... and cert(Sn)``
``wait(sem)``         always certified (but ``flow = sbind(sem)``)
``signal(sem)``       always certified
====================  =========================================================

Everything is computed in a single post-order pass: O(program length)
lattice operations, which is the paper's section 6 complexity claim
(benchmarked in ``benchmarks/bench_linearity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple, Union

from repro.core.binding import StaticBinding
from repro.errors import CertificationError
from repro.lang.ast import (
    Assign,
    Begin,
    Cobegin,
    If,
    Node,
    Program,
    Signal,
    Skip,
    Stmt,
    Wait,
    While,
)
from repro.lattice.base import Element
from repro.lattice.extended import NIL


@dataclass(frozen=True)
class Check:
    """One evaluated side condition from Figure 2.

    ``lhs`` and ``rhs`` are the concrete classes compared; ``passed``
    is ``extended.leq(lhs, rhs)``.  ``condition`` is the symbolic form
    from the paper (e.g. ``"sbind(e) <= mod(S)"``); ``detail`` explains
    the concrete comparison.
    """

    rule: str
    stmt: Stmt
    condition: str
    lhs: Element
    rhs: Element
    passed: bool
    detail: str

    def __str__(self) -> str:
        mark = "ok " if self.passed else "FAIL"
        loc = f" at {self.stmt.loc}" if self.stmt.loc else ""
        return f"[{mark}] {self.rule}{loc}: {self.condition} -- {self.detail}"


@dataclass
class CFMAnalysis:
    """Per-statement ``mod``/``flow`` facts keyed by node uid."""

    mod_class: Dict[int, Element] = field(default_factory=dict)
    flow_class: Dict[int, Element] = field(default_factory=dict)
    modified: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    def mod(self, stmt: Stmt) -> Element:
        """``mod(S)`` — glb of bindings of variables modified by ``stmt``."""
        return self.mod_class[stmt.uid]

    def flow(self, stmt: Stmt) -> Element:
        """``flow(S)`` — lub of global flows; ``NIL`` when there are none."""
        return self.flow_class[stmt.uid]

    def modified_vars(self, stmt: Stmt) -> FrozenSet[str]:
        """Names of variables potentially modified by ``stmt``."""
        return self.modified[stmt.uid]


class CertificationReport:
    """The complete result of running CFM over one program.

    ``certified`` is the paper's ``cert(S)``; ``checks`` records every
    side condition with its concrete classes, and ``violations`` the
    failed ones.  ``analysis`` exposes ``mod``/``flow`` for each
    statement so callers (and the Theorem 1 proof generator) can reuse
    the pass.
    """

    def __init__(
        self,
        subject: Node,
        binding: StaticBinding,
        analysis: CFMAnalysis,
        checks: List[Check],
    ):
        self.subject = subject
        self.binding = binding
        self.analysis = analysis
        self.checks = list(checks)

    @property
    def certified(self) -> bool:
        """True iff every Figure 2 condition holds (``cert(S)``)."""
        return all(c.passed for c in self.checks)

    @property
    def violations(self) -> List[Check]:
        """The failed checks."""
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        """A human-readable account of the certification run."""
        lines = [
            f"CFM certification: {'CERTIFIED' if self.certified else 'REJECTED'}",
            f"  scheme: {self.binding.scheme.name}",
            f"  checks: {len(self.checks)} total, {len(self.violations)} failed",
        ]
        for check in self.checks:
            lines.append("  " + str(check))
        return "\n".join(lines)

    def __repr__(self) -> str:
        state = "certified" if self.certified else f"{len(self.violations)} violations"
        return f"<CertificationReport {state}, {len(self.checks)} checks>"


class _Certifier:
    """Single post-order Figure 2 evaluation."""

    def __init__(self, binding: StaticBinding):
        self.binding = binding
        self.base = binding.scheme
        self.ext = binding.extended
        self.analysis = CFMAnalysis()
        self.checks: List[Check] = []

    # -- helpers ---------------------------------------------------------

    def _record(self, stmt: Stmt, mod: Element, flow: Element, modified: FrozenSet[str]):
        self.analysis.mod_class[stmt.uid] = mod
        self.analysis.flow_class[stmt.uid] = flow
        self.analysis.modified[stmt.uid] = modified
        return mod, flow, modified

    def _check(
        self,
        rule: str,
        stmt: Stmt,
        condition: str,
        lhs: Element,
        rhs: Element,
        detail_note: str = "",
    ) -> None:
        passed = self.ext.leq(lhs, rhs)
        detail = f"{lhs!r} <= {rhs!r}"
        if detail_note:
            detail += f" ({detail_note})"
        self.checks.append(Check(rule, stmt, condition, lhs, rhs, passed, detail))

    def _join_flows(self, flows) -> Element:
        result: Element = NIL
        for f in flows:
            result = self.ext.join(result, f)
        return result

    # -- the Figure 2 table ------------------------------------------------

    def visit(self, stmt: Stmt) -> Tuple[Element, Element, FrozenSet[str]]:
        """Return ``(mod(S), flow(S), modified-variables(S))``."""
        if isinstance(stmt, Assign):
            mod = self.binding.of_var(stmt.target)
            self._check(
                "assignment",
                stmt,
                "sbind(e) <= sbind(x)",
                self.binding.of_expr(stmt.expr),
                mod,
                detail_note=f"expression into {stmt.target!r}",
            )
            return self._record(stmt, mod, NIL, frozenset([stmt.target]))

        if isinstance(stmt, Skip):
            return self._record(stmt, self.base.top, NIL, frozenset())

        if isinstance(stmt, Wait):
            sem = self.binding.of_var(stmt.sem)
            # cert(wait) = true; the conditional delay is a global flow.
            return self._record(stmt, sem, sem, frozenset([stmt.sem]))

        if isinstance(stmt, Signal):
            sem = self.binding.of_var(stmt.sem)
            return self._record(stmt, sem, NIL, frozenset([stmt.sem]))

        if isinstance(stmt, If):
            mod1, flow1, vars1 = self.visit(stmt.then_branch)
            if stmt.else_branch is not None:
                mod2, flow2, vars2 = self.visit(stmt.else_branch)
            else:
                mod2, flow2, vars2 = self.base.top, NIL, frozenset()
            modified = vars1 | vars2
            mod = self.base.meet(mod1, mod2)
            cond_cls = self.binding.of_expr(stmt.cond)
            if flow1 is NIL and flow2 is NIL:
                flow: Element = NIL
            else:
                flow = self.ext.join(self.ext.join(flow1, flow2), cond_cls)
            self._check(
                "alternation",
                stmt,
                "sbind(e) <= mod(S)",
                cond_cls,
                mod,
                detail_note=f"condition into modified {sorted(modified)}",
            )
            return self._record(stmt, mod, flow, modified)

        if isinstance(stmt, While):
            mod1, flow1, vars1 = self.visit(stmt.body)
            cond_cls = self.binding.of_expr(stmt.cond)
            flow = self.ext.join(flow1, cond_cls)
            self._check(
                "iteration",
                stmt,
                "flow(S) <= mod(S)",
                flow,
                mod1,
                detail_note=f"loop global flow into modified {sorted(vars1)}",
            )
            return self._record(stmt, mod1, flow, vars1)

        if isinstance(stmt, Begin):
            prefix_flow: Element = NIL
            mods: List[Element] = []
            flows: List[Element] = []
            var_sets: List[FrozenSet[str]] = []
            for i, child in enumerate(stmt.body):
                mod_i, flow_i, vars_i = self.visit(child)
                if prefix_flow is not NIL:
                    # flow(Sj) <= mod(Si) for all j < i, folded into one
                    # prefix join (equivalent since join is the lub).
                    passed = self.ext.leq(prefix_flow, mod_i)
                    note = (
                        "sequencing global flow into this statement"
                        if passed
                        else self._blame_prefix(stmt.body[:i], flows, mod_i)
                    )
                    self._check(
                        "composition",
                        child,
                        "flow(Sj) <= mod(Si), j < i",
                        prefix_flow,
                        mod_i,
                        detail_note=note,
                    )
                mods.append(mod_i)
                flows.append(flow_i)
                var_sets.append(vars_i)
                prefix_flow = self.ext.join(prefix_flow, flow_i)
            modified = frozenset().union(*var_sets) if var_sets else frozenset()
            mod = self.base.top if not mods else self.base.meet_all_nonempty(mods)
            return self._record(stmt, mod, self._join_flows(flows), modified)

        if isinstance(stmt, Cobegin):
            mods = []
            flows = []
            var_sets = []
            for branch in stmt.branches:
                mod_i, flow_i, vars_i = self.visit(branch)
                mods.append(mod_i)
                flows.append(flow_i)
                var_sets.append(vars_i)
            modified = frozenset().union(*var_sets) if var_sets else frozenset()
            mod = self.base.top if not mods else self.base.meet_all_nonempty(mods)
            # No extra check: components execute independently (section 4.2).
            return self._record(stmt, mod, self._join_flows(flows), modified)

        raise CertificationError(f"not a statement: {stmt!r}")

    def _blame_prefix(self, earlier: List[Stmt], flows: List[Element], mod_i: Element) -> str:
        """Name the earliest earlier statement whose flow breaks the bound.

        Only consulted to build the message; certification itself uses
        the folded prefix join.
        """
        for stmt_j, flow_j in zip(earlier, flows):
            if flow_j is not NIL and not self.ext.leq(flow_j, mod_i):
                loc = f" at {stmt_j.loc}" if stmt_j.loc else ""
                return f"global flow {flow_j!r} from statement{loc}"
        return "prefix global flow"


def certify(subject: Union[Program, Stmt], binding: StaticBinding) -> CertificationReport:
    """Run CFM over a program or bare statement against ``binding``.

    Every variable used by the subject must be covered by the binding
    (or the binding must have a default class); otherwise a
    :class:`~repro.errors.BindingError` is raised before any analysis.
    Rejection is *not* an exception — inspect ``report.certified``.
    """
    from repro.core.constraints import complete_synthetic_binding
    from repro.lang.procs import resolve_subject

    subject, stmt = resolve_subject(subject)
    if not isinstance(stmt, Stmt):
        raise CertificationError(f"cannot certify {subject!r}")
    binding = complete_synthetic_binding(subject, binding)
    binding.require_covers(stmt)
    certifier = _Certifier(binding)
    certifier.visit(stmt)
    return CertificationReport(subject, binding, certifier.analysis, certifier.checks)

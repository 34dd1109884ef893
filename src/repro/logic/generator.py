"""Theorem 1, constructively: certified program -> completely invariant proof.

The paper's appendix proves that whenever ``cert(S)`` holds for a
static binding ``sbind``, and ``l (+) g <= mod(S)``, a *completely
invariant* flow proof of

    {I, local <= l, global <= g}
        S
    {I, local <= l, global <= g (+) l (+) flow(S)}

exists, where ``I`` is the policy assertion corresponding to ``sbind``
(Definition 6).  This module turns that induction into an algorithm: it
recurses over the statement exactly as the appendix does, inserting
consequence steps where the hand proof appeals to weakening.  Two
refinements from the appendix are honoured:

* when ``flow(S) = nil`` the produced postcondition keeps the tighter
  bound ``global <= g`` (the appendix's "left to the reader" case: a
  statement without global flows never touches ``global``);
* the iteration case first weakens the precondition to the loop
  invariant's global bound ``g (+) local' (+) flow(body)``, since the
  Figure 1 while rule requires premise and conclusion-pre to share G.

Every generated proof is meant to be (and in the test-suite, is)
verified by the independent checker in :mod:`repro.logic.checker`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.binding import StaticBinding
from repro.core.cfm import CertificationReport, certify
from repro.errors import GenerationError
from repro.lang.ast import (
    Assign,
    Begin,
    Cobegin,
    If,
    Signal,
    Skip,
    Stmt,
    Wait,
    While,
)
from repro.lattice.base import Element
from repro.lattice.extended import NIL
from repro.logic.assertions import FlowAssertion, policy_assertion, vlg_assertion
from repro.logic.checker import action_substitution
from repro.logic.classexpr import const_expr
from repro.logic.proof import ProofNode


class _Generator:
    def __init__(self, binding: StaticBinding, report: CertificationReport, variables):
        self.binding = binding
        self.base = binding.scheme
        self.ext = binding.extended
        self.analysis = report.analysis
        self.invariant = policy_assertion(binding, variables)

    # -- assertion helpers ----------------------------------------------------

    def state(self, l: Element, g: Element) -> FlowAssertion:
        """``{I, local <= l, global <= g}``."""
        return vlg_assertion(self.invariant, const_expr(l), const_expr(g))

    def post_global(self, l: Element, g: Element, flow: Element) -> Element:
        """The bound after ``S``: ``g`` if ``flow = nil``, else ``g+l+flow``."""
        if flow is NIL:
            return g
        return self.ext.join(self.ext.join(g, l), flow)

    def weaken(self, node: ProofNode, pre: FlowAssertion, post: FlowAssertion) -> ProofNode:
        """Wrap in a consequence step unless it would be the identity."""
        if node.pre == pre and node.post == post:
            return node
        return ProofNode("consequence", node.stmt, pre, post, [node])

    # -- the induction ---------------------------------------------------------

    def generate(self, stmt: Stmt, l: Element, g: Element) -> ProofNode:
        """A proof of ``{I, local<=l, global<=g} stmt {I, local<=l, global<=g'}``.

        Maintains the appendix's induction hypothesis
        ``l (+) g <= mod(stmt)``; ``g'`` is :meth:`post_global`.
        """
        pre = self.state(l, g)

        if isinstance(stmt, (Assign, Signal)):
            # Axiom with P := the (unchanged) invariant state, then
            # strengthen the substituted precondition from {I, L, G}.
            post = pre
            axiom_pre = post.substitute(action_substitution(stmt, self.base), self.ext)
            rule = "assignment" if isinstance(stmt, Assign) else "signal"
            axiom = ProofNode(rule, stmt, axiom_pre, post)
            return self.weaken(axiom, pre, post)

        if isinstance(stmt, Wait):
            flow = self.analysis.flow(stmt)  # = sbind(sem)
            post = self.state(l, self.post_global(l, g, flow))
            axiom_pre = post.substitute(action_substitution(stmt, self.base), self.ext)
            axiom = ProofNode("wait", stmt, axiom_pre, post)
            return self.weaken(axiom, pre, post)

        if isinstance(stmt, Skip):
            return ProofNode("skip", stmt, pre, pre)

        if isinstance(stmt, If):
            return self._generate_if(stmt, l, g)

        if isinstance(stmt, While):
            return self._generate_while(stmt, l, g)

        if isinstance(stmt, Begin):
            return self._generate_begin(stmt, l, g)

        if isinstance(stmt, Cobegin):
            return self._generate_cobegin(stmt, l, g)

        raise GenerationError(f"cannot generate a proof for {stmt!r}")

    def _generate_if(self, stmt: If, l: Element, g: Element) -> ProofNode:
        cond_cls = self.binding.of_expr(stmt.cond)
        l_inner = self.base.join(l, cond_cls)
        p1 = self.generate(stmt.then_branch, l_inner, g)
        if stmt.else_branch is not None:
            p2 = self.generate(stmt.else_branch, l_inner, g)
        else:
            skip = Skip()  # synthesized: a missing else executes nothing
            p2 = ProofNode("skip", skip, self.state(l_inner, g), self.state(l_inner, g))
        # Weaken both premises to the joined postcondition.
        flow = self.analysis.flow(stmt)
        g_out = self.post_global(l, g, flow)
        # flow(S) already includes sbind(e) when non-nil, so g_out bounds
        # both branches' posts; l_inner >= l makes the premise posts weaken.
        common_post = self.state(l_inner, g_out)
        common_pre = self.state(l_inner, g)
        p1 = self.weaken(p1, common_pre, common_post)
        p2 = self.weaken(p2, common_pre, common_post)
        return ProofNode(
            "alternation",
            stmt,
            self.state(l, g),
            self.state(l, g_out),
            [p1, p2],
            note=f"local raised to {l_inner!r} inside the branches",
        )

    def _generate_while(self, stmt: While, l: Element, g: Element) -> ProofNode:
        cond_cls = self.binding.of_expr(stmt.cond)
        l_inner = self.base.join(l, cond_cls)
        flow = self.analysis.flow(stmt)  # = flow(body) (+) sbind(e), never nil
        g_inv = self.ext.join(g, self.ext.join(l_inner, flow))
        body = self.generate(stmt.body, l_inner, g_inv)
        # The body proof already returns global <= g_inv (+) ... = g_inv
        # because g_inv absorbs l_inner and flow(body); normalize anyway.
        body = self.weaken(body, self.state(l_inner, g_inv), self.state(l_inner, g_inv))
        while_node = ProofNode(
            "iteration",
            stmt,
            self.state(l, g_inv),
            self.state(l, g_inv),
            [body],
            note=f"loop invariant global bound {g_inv!r}",
        )
        return self.weaken(while_node, self.state(l, g), self.state(l, g_inv))

    def _generate_begin(self, stmt: Begin, l: Element, g: Element) -> ProofNode:
        premises = []
        g_cur = g
        for child in stmt.body:
            premise = self.generate(child, l, g_cur)
            premises.append(premise)
            g_cur = self.post_global(l, g_cur, self.analysis.flow(child))
        return ProofNode(
            "composition",
            stmt,
            self.state(l, g),
            self.state(l, g_cur),
            premises,
        )

    def _generate_cobegin(self, stmt: Cobegin, l: Element, g: Element) -> ProofNode:
        flow = self.analysis.flow(stmt)
        g_out = self.post_global(l, g, flow)
        premises = []
        for branch in stmt.branches:
            premise = self.generate(branch, l, g)
            premise = self.weaken(premise, self.state(l, g), self.state(l, g_out))
            premises.append(premise)
        return ProofNode(
            "concurrency",
            stmt,
            self.state(l, g),
            self.state(l, g_out),
            premises,
        )


def generate_proof(
    subject,
    binding: StaticBinding,
    l: Optional[Element] = None,
    g: Optional[Element] = None,
    report: Optional[CertificationReport] = None,
) -> ProofNode:
    """Build the Theorem 1 completely invariant proof for ``subject``.

    ``l`` and ``g`` default to the scheme bottom (``low``); Theorem 1
    requires ``l (+) g <= mod(S)``, which is checked here.  ``report``
    may pass in an existing CFM run to avoid recomputing it.

    Raises :class:`~repro.errors.GenerationError` when the program is
    not CFM-certified (Theorem 1 guarantees nothing then) or when
    ``l (+) g`` exceeds ``mod(S)``.
    """
    from repro.core.constraints import complete_synthetic_binding
    from repro.lang.procs import resolve_subject

    subject, stmt = resolve_subject(subject)
    binding = complete_synthetic_binding(subject, binding)
    if report is None:
        report = certify(stmt, binding)
    if not report.certified:
        raise GenerationError(
            "Theorem 1 requires cert(S); CFM rejected the program: "
            + "; ".join(str(v) for v in report.violations[:3])
        )
    base = binding.scheme
    l = base.bottom if l is None else base.check(l)
    g = base.bottom if g is None else base.check(g)
    mod = report.analysis.mod(stmt)
    if not base.leq(base.join(l, g), mod):
        raise GenerationError(
            f"Theorem 1 requires l (+) g <= mod(S): {base.join(l, g)!r} "
            f"is not below {mod!r}"
        )
    from repro.lang.ast import used_variables

    return _Generator(binding, report, used_variables(stmt)).generate(stmt, l, g)

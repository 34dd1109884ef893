"""Proof search: from a flow-sensitive analysis to an explicit flow proof.

The paper laments that "no practical mechanism based on this
theoretical method has been developed to date" (section 1).  The
flow-sensitive certifier (:mod:`repro.core.flowsensitive`) is such a
mechanism; this module closes the loop by converting a successful
analysis of a *sequential* program into an explicit Figure 1 proof
tree, which the independent checker then verifies.  The proofs it finds
are exactly the kind the paper exhibits in section 5.2: intermediate
assertions may be *stronger* than the policy (e.g. ``x <= low`` right
after ``x := 0`` although ``sbind(x) = high``), which is what CFM — and
completely invariant proofs — cannot express.

Concurrent programs are analyzed soundly by the certifier but are not
given proof trees here: their Figure 1 proofs require
interference-free annotations, which flow-sensitive state assertions
generally are not (a sibling may raise a shared variable's class).
"""

from __future__ import annotations

from typing import Union

from repro.core.binding import StaticBinding
from repro.core.flowsensitive import FSReport, FSState, analyze
from repro.errors import LogicError
from repro.lang.ast import (
    Assign,
    Begin,
    Cobegin,
    If,
    Program,
    Signal,
    Skip,
    Stmt,
    Wait,
    While,
)
from repro.lattice.extended import ExtendedLattice
from repro.logic.assertions import Bound, FlowAssertion, vlg_assertion
from repro.logic.checker import action_substitution
from repro.logic.classexpr import const_expr, var_class
from repro.logic.proof import ProofNode


def state_assertion(state: FSState) -> FlowAssertion:
    """``{v <= class(v) for all v, local <= l, global <= g}``."""
    v = FlowAssertion(
        Bound(var_class(name), const_expr(cls))
        for name, cls in state.classes.items()
    )
    return vlg_assertion(v, const_expr(state.local), const_expr(state.global_))


class _ProofBuilder:
    def __init__(self, binding: StaticBinding, report: FSReport):
        self.binding = binding
        self.scheme = binding.scheme
        self.ext = ExtendedLattice(binding.scheme)
        self.pre = report.pre_states
        self.post = report.post_states

    def _axiom(self, rule: str, stmt: Stmt) -> ProofNode:
        """Axiom + consequence for an atomic statement, from the states."""
        pre = state_assertion(self.pre[stmt.uid])
        post = state_assertion(self.post[stmt.uid])
        axiom_pre = post.substitute(
            action_substitution(stmt, self.scheme), self.ext
        )
        axiom = ProofNode(rule, stmt, axiom_pre, post)
        if pre == axiom_pre:
            return axiom
        return ProofNode("consequence", stmt, pre, post, [axiom])

    def _weaken(self, node: ProofNode, pre: FlowAssertion, post: FlowAssertion) -> ProofNode:
        if node.pre == pre and node.post == post:
            return node
        return ProofNode("consequence", node.stmt, pre, post, [node])

    def build(self, stmt: Stmt) -> ProofNode:
        if isinstance(stmt, Assign):
            return self._axiom("assignment", stmt)
        if isinstance(stmt, Signal):
            return self._axiom("signal", stmt)
        if isinstance(stmt, Wait):
            return self._axiom("wait", stmt)
        if isinstance(stmt, Skip):
            a = state_assertion(self.pre[stmt.uid])
            return ProofNode("skip", stmt, a, a)
        if isinstance(stmt, Begin):
            premises = [self.build(child) for child in stmt.body]
            return ProofNode(
                "composition",
                stmt,
                state_assertion(self.pre[stmt.uid]),
                state_assertion(self.post[stmt.uid]),
                premises,
            )
        if isinstance(stmt, If):
            return self._build_if(stmt)
        if isinstance(stmt, While):
            return self._build_while(stmt)
        if isinstance(stmt, Cobegin):
            raise LogicError(
                "proof search covers sequential programs; flow-sensitive "
                "state assertions are not interference-free in general"
            )
        raise LogicError(f"not a statement: {stmt!r}")

    def _build_if(self, stmt: If) -> ProofNode:
        pre_state = self.pre[stmt.uid]
        post_state = self.post[stmt.uid]
        guard = pre_state.expr_cls(stmt.cond)
        l_inner = self.scheme.join(pre_state.local, guard)
        inner_state = pre_state.with_local(l_inner)
        inner = state_assertion(inner_state)
        # Premise posts must agree: the joined classes/global, local l'.
        common_post = state_assertion(post_state.with_local(l_inner))
        p1 = self._weaken(self.build(stmt.then_branch), inner, common_post)
        if stmt.else_branch is not None:
            p2 = self._weaken(self.build(stmt.else_branch), inner, common_post)
        else:
            skip = Skip()
            p2 = self._weaken(
                ProofNode("skip", skip, inner, inner), inner, common_post
            )
        return ProofNode(
            "alternation",
            stmt,
            state_assertion(pre_state),
            state_assertion(post_state),
            [p1, p2],
            note=f"guard class {guard!r} raises local to {l_inner!r}",
        )

    def _build_while(self, stmt: While) -> ProofNode:
        pre_state = self.pre[stmt.uid]
        fix_state = self.post[stmt.uid]  # the least fixpoint, local restored
        guard = fix_state.expr_cls(stmt.cond)
        l_inner = self.scheme.join(fix_state.local, guard)
        invariant_inner = state_assertion(
            fix_state.with_local(l_inner)
        )
        body = self.build(stmt.body)
        body = self._weaken(body, invariant_inner, invariant_inner)
        invariant = state_assertion(fix_state)
        while_node = ProofNode(
            "iteration",
            stmt,
            invariant,
            invariant,
            [body],
            note=f"least-fixpoint invariant, global {fix_state.global_!r}",
        )
        return self._weaken(while_node, state_assertion(pre_state), invariant)


def proof_from_analysis(
    subject: Union[Program, Stmt],
    binding: StaticBinding,
    report: FSReport = None,
) -> ProofNode:
    """Build a Figure 1 proof from the flow-sensitive analysis.

    The program must be sequential (no ``cobegin``) and the analysis
    must certify it; the resulting proof shows exactly the analysis
    states as assertions and is designed to pass the independent
    checker (which the test suite asserts for random corpora).
    """
    from repro.core.constraints import complete_synthetic_binding
    from repro.lang.procs import resolve_subject

    subject, stmt = resolve_subject(subject)
    binding = complete_synthetic_binding(subject, binding)
    if report is None:
        report = analyze(stmt, binding)
    if not report.certified:
        raise LogicError(
            "the analysis rejected the program; no policy proof exists "
            "along the analysis states: "
            + "; ".join(str(v) for v in report.violations[:3])
        )
    return _ProofBuilder(binding, report).build(stmt)

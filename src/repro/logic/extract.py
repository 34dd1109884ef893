"""Theorem 2: a completely invariant proof implies CFM certification.

Definition 7 calls a policy assertion ``I`` *completely invariant* over
``S`` when a flow proof of ``{I, local<=l, global<=g} S {I, local<=l,
global<=g''}`` exists in which the precondition of *every* statement of
``S`` has the shape ``{I, local<=l', global<=g'}`` with ``l'``, ``g'``
lattice constants.  Theorem 2 says that the existence of such a proof
forces ``cert(S)`` to hold.

This module provides the executable counterpart:

* :func:`is_completely_invariant` — decide whether a (valid) proof tree
  is completely invariant with respect to a binding's policy assertion;
* :func:`certification_from_proof` — the Theorem 2 direction: given a
  completely invariant proof, return the CFM report, raising if the
  theorem were violated (i.e. CFM rejects despite the proof — which the
  test suite demonstrates never happens).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.binding import StaticBinding
from repro.core.cfm import CertificationReport, certify
from repro.errors import LogicError
from repro.lang.ast import Skip, iter_statements
from repro.logic.assertions import FlowAssertion, policy_assertion
from repro.logic.classexpr import ClassExpr
from repro.logic.entailment import Entailment
from repro.logic.proof import ProofNode


def _constant_bound(expr: Optional[ClassExpr]) -> bool:
    """Definition 7 requires l' and g' to be lattice *constants*."""
    return expr is not None and expr.is_constant


def completely_invariant_problems(
    proof: ProofNode, binding: StaticBinding
) -> List[str]:
    """Why ``proof`` fails Definition 7 for ``binding`` (empty = it holds).

    Checks, for every statement of the proved program, that the
    outermost proof node for that statement has a precondition
    equivalent to ``{I, local <= l', global <= g'}`` with constant
    bounds, where ``I`` is the policy assertion of ``binding``.  The
    root's postcondition must restore ``{I, local <= l, global <= g''}``.
    """
    from repro.lang.ast import used_variables

    engine = Entailment(binding.extended)
    invariant = policy_assertion(binding, used_variables(proof.stmt))
    problems: List[str] = []

    def examine(assertion: FlowAssertion, where: str) -> None:
        try:
            v, local_bound, global_bound = assertion.vlg()
        except LogicError as exc:
            problems.append(f"{where}: not {{V, L, G}} shaped ({exc})")
            return
        if not engine.equivalent(v, invariant):
            problems.append(
                f"{where}: V-part {v!r} is not the policy assertion {invariant!r}"
            )
        if not _constant_bound(local_bound):
            problems.append(f"{where}: local bound {local_bound!r} is not a constant")
        if not _constant_bound(global_bound):
            problems.append(f"{where}: global bound {global_bound!r} is not a constant")

    for stmt in iter_statements(proof.stmt):
        node = proof.outermost_for(stmt)
        if node is None:
            if isinstance(stmt, Skip):
                continue  # synthesized skips need no program-point node
            problems.append(f"no proof node covers statement at {stmt.loc}")
            continue
        examine(node.pre, f"pre of {type(stmt).__name__} at {stmt.loc}")
    examine(proof.pre, "root precondition")
    examine(proof.post, "root postcondition")
    return problems


def is_completely_invariant(proof: ProofNode, binding: StaticBinding) -> bool:
    """True iff ``proof`` is a completely invariant proof for ``binding``."""
    return not completely_invariant_problems(proof, binding)


def certification_from_proof(
    proof: ProofNode, binding: StaticBinding
) -> CertificationReport:
    """Theorem 2, executably.

    Requires ``proof`` to be completely invariant for ``binding``
    (raises :class:`LogicError` otherwise, listing the reasons), then
    runs CFM and raises if certification fails — which Theorem 2
    guarantees cannot happen for a valid completely invariant proof.
    """
    problems = completely_invariant_problems(proof, binding)
    if problems:
        raise LogicError(
            "proof is not completely invariant: " + "; ".join(problems[:5])
        )
    report = certify(proof.stmt, binding)
    if not report.certified:
        raise LogicError(
            "Theorem 2 violated: completely invariant proof exists but CFM "
            "rejected the program: "
            + "; ".join(str(v) for v in report.violations[:5])
        )
    return report

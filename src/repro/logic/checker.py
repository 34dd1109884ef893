"""Independent verification of flow-logic proof trees (Figure 1).

``check_proof`` validates every rule application in a proof tree
against the paper's Figure 1: structural fit (the right statement
forms, the right premise counts), assertion plumbing (premise pre/post
agreement), side conditions (via the entailment engine), and — for
``cobegin`` — Owicki–Gries-style *interference freedom*, adapted as
the paper specifies: "indirect flows in one process do not affect
indirect flows in another process", so only the V-parts of a sibling's
assertions are exposed to interference, while the acting statement's
``local``/``global`` are bounded by its own precondition.

The checker shares no code with the Theorem 1 generator beyond the
assertion data structures, so generated proofs are genuinely verified
rather than trusted.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.errors import AssertionFormError, ProofError
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
from repro.lattice.base import Lattice
from repro.lattice.extended import ExtendedLattice
from repro.logic.assertions import Bound, FlowAssertion
from repro.logic.classexpr import (
    GLOBAL,
    LOCAL,
    ClassExpr,
    Symbol,
    VarClass,
    cert_expr,
    class_of_expr,
)
from repro.logic.entailment import Entailment
from repro.logic.proof import ProofNode


class CheckedProof:
    """Result of checking one proof tree."""

    def __init__(self, proof: ProofNode, problems: List[str]):
        self.proof = proof
        self.problems = list(problems)

    @property
    def ok(self) -> bool:
        return not self.problems

    def raise_if_invalid(self) -> "CheckedProof":
        if self.problems:
            raise ProofError(
                f"invalid proof ({len(self.problems)} problems): "
                + "; ".join(self.problems[:5])
            )
        return self

    def __repr__(self) -> str:
        state = "valid" if self.ok else f"{len(self.problems)} problems"
        return f"<CheckedProof {state}>"


def action_substitution(stmt: Stmt, scheme: Lattice) -> Mapping[Symbol, ClassExpr]:
    """The axiom substitution of an atomic statement (Figure 1).

    * ``x := e``     : ``x <- e (+) local (+) global``
    * ``signal(sem)``: ``sem <- sem (+) local (+) global``
    * ``wait(sem)``  : ``sem <- sem (+) local (+) global`` and
      ``global <- sem (+) local (+) global`` simultaneously.
    """
    ext = ExtendedLattice(scheme)
    if isinstance(stmt, Assign):
        rhs = (
            class_of_expr(stmt.expr, scheme)
            .join(cert_expr(LOCAL), ext)
            .join(cert_expr(GLOBAL), ext)
        )
        return {VarClass(stmt.target): rhs}
    if isinstance(stmt, (Wait, Signal)):
        rhs = (
            ClassExpr([VarClass(stmt.sem)])
            .join(cert_expr(LOCAL), ext)
            .join(cert_expr(GLOBAL), ext)
        )
        mapping: Dict[Symbol, ClassExpr] = {VarClass(stmt.sem): rhs}
        if isinstance(stmt, Wait):
            mapping[GLOBAL] = rhs
        return mapping
    raise ProofError(f"{stmt!r} is not an atomic action")


class _Checker:
    def __init__(self, scheme: Lattice):
        self.scheme = scheme
        self.ext = ExtendedLattice(scheme)
        self.engine = Entailment(self.ext)
        self.problems: List[str] = []

    # -- reporting ---------------------------------------------------------

    def _fail(self, node: ProofNode, message: str) -> None:
        loc = f" at {node.stmt.loc}" if node.stmt.loc else ""
        self.problems.append(f"{node.rule}{loc}: {message}")

    def _equiv(self, node: ProofNode, a: FlowAssertion, b: FlowAssertion, what: str) -> bool:
        if self.engine.equivalent(a, b):
            return True
        self._fail(node, f"{what}: {a!r} is not equivalent to {b!r}")
        return False

    def _entails(self, node: ProofNode, hyp: FlowAssertion, goal, what: str) -> bool:
        if self.engine.entails(hyp, goal):
            return True
        self._fail(node, f"{what}: cannot derive {goal!r} from {hyp!r}")
        return False

    def _vlg(self, node: ProofNode, assertion: FlowAssertion, which: str):
        try:
            return assertion.vlg()
        except AssertionFormError as exc:
            self._fail(node, f"{which} is not {{V, L, G}} shaped: {exc}")
            return None

    # -- dispatch ------------------------------------------------------------

    def check(self, node: ProofNode) -> None:
        handler = getattr(self, f"_check_{node.rule}", None)
        if handler is None:
            self._fail(node, "unknown rule")
            return
        handler(node)

    def _expect_premises(self, node: ProofNode, count: int) -> bool:
        if len(node.premises) != count:
            self._fail(node, f"expected {count} premises, found {len(node.premises)}")
            return False
        return True

    # -- axioms ---------------------------------------------------------------

    def _check_assignment(self, node: ProofNode) -> None:
        if not isinstance(node.stmt, Assign):
            self._fail(node, "assignment axiom applied to a non-assignment")
            return
        self._expect_premises(node, 0)
        expected_pre = node.post.substitute(action_substitution(node.stmt, self.scheme), self.ext)
        self._equiv(node, node.pre, expected_pre, "axiom precondition")

    def _check_signal(self, node: ProofNode) -> None:
        if not isinstance(node.stmt, Signal):
            self._fail(node, "signal axiom applied to a non-signal")
            return
        self._expect_premises(node, 0)
        expected_pre = node.post.substitute(action_substitution(node.stmt, self.scheme), self.ext)
        self._equiv(node, node.pre, expected_pre, "axiom precondition")

    def _check_wait(self, node: ProofNode) -> None:
        if not isinstance(node.stmt, Wait):
            self._fail(node, "wait axiom applied to a non-wait")
            return
        self._expect_premises(node, 0)
        expected_pre = node.post.substitute(action_substitution(node.stmt, self.scheme), self.ext)
        self._equiv(node, node.pre, expected_pre, "axiom precondition")

    def _check_skip(self, node: ProofNode) -> None:
        if not isinstance(node.stmt, Skip):
            self._fail(node, "skip axiom applied to a non-skip")
            return
        self._expect_premises(node, 0)
        self._equiv(node, node.pre, node.post, "skip preserves the assertion")

    # -- structural rules --------------------------------------------------------

    def _check_consequence(self, node: ProofNode) -> None:
        if not self._expect_premises(node, 1):
            return
        premise = node.premises[0]
        if premise.stmt is not node.stmt:
            self._fail(node, "consequence premise concerns a different statement")
        self._entails(node, node.pre, premise.pre, "pre-strengthening P |- P'")
        self._entails(node, premise.post, node.post, "post-weakening Q' |- Q")
        self.check(premise)

    def _check_composition(self, node: ProofNode) -> None:
        if not isinstance(node.stmt, Begin):
            self._fail(node, "composition rule applied to a non-begin")
            return
        if not self._expect_premises(node, len(node.stmt.body)):
            return
        for premise, child in zip(node.premises, node.stmt.body):
            if premise.stmt is not child:
                self._fail(node, "composition premises out of order with the body")
        self._equiv(node, node.pre, node.premises[0].pre, "P0 matches the first premise")
        for i in range(len(node.premises) - 1):
            self._equiv(
                node,
                node.premises[i].post,
                node.premises[i + 1].pre,
                f"P{i + 1} agrees between premises {i} and {i + 1}",
            )
        self._equiv(node, node.post, node.premises[-1].post, "Pn matches the last premise")
        for premise in node.premises:
            self.check(premise)

    def _check_alternation(self, node: ProofNode) -> None:
        if not isinstance(node.stmt, If):
            self._fail(node, "alternation rule applied to a non-if")
            return
        if not self._expect_premises(node, 2):
            return
        p1, p2 = node.premises
        if p1.stmt is not node.stmt.then_branch:
            self._fail(node, "first premise is not the then-branch")
        if node.stmt.else_branch is not None:
            if p2.stmt is not node.stmt.else_branch:
                self._fail(node, "second premise is not the else-branch")
        elif not isinstance(p2.stmt, Skip):
            self._fail(node, "missing else branch requires a skip premise")

        pre = self._vlg(node, node.pre, "conclusion pre")
        post = self._vlg(node, node.post, "conclusion post")
        pre1 = self._vlg(node, p1.pre, "premise pre")
        post1 = self._vlg(node, p1.post, "premise post")
        if None in (pre, post, pre1, post1):
            return
        if pre1.local is None:
            self._fail(node, "premise pre lacks a local bound L'")
            return
        # Premises share pre and post ({V, L', G} Si {V', L', G'}).
        self._equiv(node, p1.pre, p2.pre, "both premises share the precondition")
        self._equiv(node, p1.post, p2.post, "both premises share the postcondition")
        self._equiv(node, pre.v, pre1.v, "V agrees between conclusion and premises")
        if pre.global_ != pre1.global_:
            self._fail(node, f"G differs: {pre.global_!r} vs {pre1.global_!r}")
        if post1.local != pre1.local:
            self._fail(node, "premises must preserve local (L' in pre and post)")
        if post.local != pre.local:
            self._fail(node, "conclusion must preserve local (L in pre and post)")
        self._equiv(node, post.v, post1.v, "V' agrees between conclusion and premises")
        if post.global_ != post1.global_:
            self._fail(node, f"G' differs: {post.global_!r} vs {post1.global_!r}")
        # Side condition: V,L,G |- L'[local <- local (+) e].
        cond_cls = class_of_expr(node.stmt.cond, self.scheme)
        lhs = cert_expr(LOCAL).join(cond_cls, self.ext)
        self._entails(
            node,
            node.pre,
            Bound(lhs, pre1.local),
            "side condition V,L,G |- L'[local <- local (+) e]",
        )
        self.check(p1)
        self.check(p2)

    def _check_iteration(self, node: ProofNode) -> None:
        if not isinstance(node.stmt, While):
            self._fail(node, "iteration rule applied to a non-while")
            return
        if not self._expect_premises(node, 1):
            return
        premise = node.premises[0]
        if premise.stmt is not node.stmt.body:
            self._fail(node, "premise is not the loop body")
        self._equiv(node, premise.pre, premise.post, "{V, L', G} is invariant over S")
        pre = self._vlg(node, node.pre, "conclusion pre")
        post = self._vlg(node, node.post, "conclusion post")
        prem = self._vlg(node, premise.pre, "premise assertion")
        if None in (pre, post, prem):
            return
        if prem.local is None:
            self._fail(node, "premise lacks a local bound L'")
            return
        self._equiv(node, pre.v, prem.v, "V agrees between conclusion and premise")
        if pre.global_ != prem.global_:
            self._fail(node, f"G differs: {pre.global_!r} vs {prem.global_!r}")
        self._equiv(node, post.v, pre.v, "V preserved by the conclusion")
        if post.local != pre.local:
            self._fail(node, "conclusion must preserve local (L in pre and post)")
        if post.global_ is None:
            self._fail(node, "conclusion post lacks a global bound G'")
            return
        cond_cls = class_of_expr(node.stmt.cond, self.scheme)
        lhs_local = cert_expr(LOCAL).join(cond_cls, self.ext)
        self._entails(
            node,
            node.pre,
            Bound(lhs_local, prem.local),
            "side condition V,L,G |- L'[local <- local (+) e]",
        )
        lhs_global = cert_expr(GLOBAL).join(lhs_local, self.ext)
        self._entails(
            node,
            node.pre,
            Bound(lhs_global, post.global_),
            "side condition V,L,G |- G'[global <- global (+) local (+) e]",
        )
        self.check(premise)

    def _check_concurrency(self, node: ProofNode) -> None:
        if not isinstance(node.stmt, Cobegin):
            self._fail(node, "concurrency rule applied to a non-cobegin")
            return
        if not self._expect_premises(node, len(node.stmt.branches)):
            return
        for premise, branch in zip(node.premises, node.stmt.branches):
            if premise.stmt is not branch:
                self._fail(node, "concurrency premises out of order with the branches")

        pres = [self._vlg(node, p.pre, f"premise {i} pre") for i, p in enumerate(node.premises)]
        posts = [self._vlg(node, p.post, f"premise {i} post") for i, p in enumerate(node.premises)]
        pre = self._vlg(node, node.pre, "conclusion pre")
        post = self._vlg(node, node.post, "conclusion post")
        if None in pres or None in posts or pre is None or post is None:
            return
        locals_ = {v.local for v in pres} | {v.local for v in posts}
        if len(locals_) != 1:
            self._fail(node, f"premises do not share one local bound: {locals_!r}")
        globals_pre = {v.global_ for v in pres}
        globals_post = {v.global_ for v in posts}
        if len(globals_pre) != 1:
            self._fail(node, f"premise pres do not share one global bound: {globals_pre!r}")
        if len(globals_post) != 1:
            self._fail(node, f"premise posts do not share one global bound: {globals_post!r}")
        if pre.local != next(iter(locals_)) or pre.global_ != next(iter(globals_pre)):
            self._fail(node, "conclusion pre L,G must match the premises")
        if post.local != pre.local or post.global_ != next(iter(globals_post)):
            self._fail(node, "conclusion post L,G must match the premises")
        conj_v_pre = FlowAssertion(frozenset().union(*(v.v.bounds for v in pres)))
        conj_v_post = FlowAssertion(frozenset().union(*(v.v.bounds for v in posts)))
        self._equiv(node, pre.v, conj_v_pre, "conclusion V is the premises' conjunction")
        self._equiv(node, post.v, conj_v_post, "conclusion V' is the premises' conjunction")

        self._check_interference_freedom(node)
        for premise in node.premises:
            self.check(premise)

    # -- interference freedom ----------------------------------------------------

    def _atomic_actions(self, proof: ProofNode) -> List[Tuple[Stmt, FlowAssertion]]:
        """Outermost (statement, precondition) pairs for each atomic action."""
        seen: Dict[int, Tuple[Stmt, FlowAssertion]] = {}
        for n in proof.walk():
            if isinstance(n.stmt, (Assign, Wait, Signal)) and n.stmt.uid not in seen:
                seen[n.stmt.uid] = (n.stmt, n.pre)
        return list(seen.values())

    def _check_interference_freedom(self, node: ProofNode) -> None:
        """Every assertion of each premise survives each sibling's actions.

        For assertion ``A`` of process i and action ``T`` (with proof
        precondition ``pre(T)``) of process j, we require

            ``A.V and pre(T)  |-  A.V[subst(T)]``

        following Owicki & Gries, except that only ``A``'s V-part is
        exposed: the paper notes that "indirect flows in one process do
        not affect indirect flows in another process", i.e. process
        i's local/global are distinct certification variables from the
        ones mentioned by ``T``'s substitution and precondition.
        """
        for i, proof_i in enumerate(node.premises):
            assertions = []
            for n in proof_i.walk():
                assertions.append(n.pre)
                assertions.append(n.post)
            for j, proof_j in enumerate(node.premises):
                if i == j:
                    continue
                for action, action_pre in self._atomic_actions(proof_j):
                    mapping = action_substitution(action, self.scheme)
                    for assertion in assertions:
                        a_v = assertion.v_part()
                        goal = a_v.substitute(mapping, self.ext)
                        hyp = a_v.conjoin(action_pre)
                        if not self.engine.entails(hyp, goal):
                            self._fail(
                                node,
                                f"interference: process {j}'s action "
                                f"{type(action).__name__} at {action.loc} breaks "
                                f"process {i}'s assertion {assertion!r}",
                            )


def check_proof(proof: ProofNode, scheme: Lattice) -> CheckedProof:
    """Verify ``proof`` against Figure 1 over the base ``scheme``.

    Returns a :class:`CheckedProof`; use ``.ok`` or
    ``.raise_if_invalid()``.  The checker records *all* problems it
    finds, not just the first.
    """
    checker = _Checker(scheme)
    checker.check(proof)
    return CheckedProof(proof, checker.problems)

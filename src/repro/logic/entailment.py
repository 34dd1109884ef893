"""The derivability relation ``P |- Q`` of the flow logic.

The paper: "P |- Q indicates that using lattice theory and
propositional logic Q can be derived from P."  Assertions here are
conjunctions of bounds ``join(symbols, const) <= join(symbols, const)``
over an arbitrary complete lattice, so a complete decision procedure
for the general fragment is subtle; this engine implements a *sound*
procedure that is complete for the restricted assertion forms appearing
in completely invariant proofs (right-hand sides that are constants or
single symbols, hypotheses that bound individual symbols) — which is
everything Theorems 1 and 2 require.

Reasoning principles used:

* ``join(A) <= R``  iff  every component of ``A`` is ``<= R`` (join is
  the least upper bound);
* a symbol ``s <= R`` if ``s`` occurs in ``R``, or some hypothesis
  bounds ``s`` above by ``U`` with ``U <= R`` (transitivity, with a
  cycle guard);
* a constant ``c <= R`` if ``c`` is below ``R``'s constant part joined
  with known constant *lower* bounds of ``R``'s symbols (from
  hypotheses of the form ``c' <= s``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Union

from repro.lattice.base import Element
from repro.lattice.extended import NIL, ExtendedLattice
from repro.logic.assertions import Bound, FlowAssertion
from repro.logic.classexpr import ClassExpr, Symbol


class Entailment:
    """Decides ``P |- Q`` over one extended classification scheme."""

    def __init__(self, ext: ExtendedLattice):
        self.ext = ext

    # ------------------------------------------------------------------

    def entails(
        self,
        hypothesis: FlowAssertion,
        goal: Union[FlowAssertion, Bound],
    ) -> bool:
        """True if every conjunct of ``goal`` is derivable from ``hypothesis``."""
        upper, lower = self._index(hypothesis)
        goals = goal.bounds if isinstance(goal, FlowAssertion) else (goal,)
        return all(self._bound_holds(b, upper, lower) for b in goals)

    def equivalent(self, a: FlowAssertion, b: FlowAssertion) -> bool:
        """Mutual derivability (the assertions restrict states identically)."""
        if a == b:
            return True
        return self.entails(a, b) and self.entails(b, a)

    # ------------------------------------------------------------------

    def _index(self, hypothesis: FlowAssertion):
        """Decompose hypothesis bounds into per-symbol upper bounds and
        constant lower bounds.

        ``join(S, c) <= R`` yields ``s <= R`` for each ``s`` in ``S``
        (components of a join are below any bound of the join).  When
        ``R`` is a single bare symbol ``t``, the constant part ``c``
        is a lower bound of ``t``.
        """
        upper: Dict[Symbol, List[ClassExpr]] = {}
        lower: Dict[Symbol, Element] = {}
        for b in hypothesis.bounds:
            for s in b.lhs.symbols:
                upper.setdefault(s, []).append(b.rhs)
            if b.lhs.const is not NIL and len(b.rhs.symbols) == 1 and b.rhs.const is NIL:
                (t,) = b.rhs.symbols
                lower[t] = self.ext.join(lower.get(t, NIL), b.lhs.const)
        return upper, lower

    def _bound_holds(
        self,
        bound: Bound,
        upper: Dict[Symbol, List[ClassExpr]],
        lower: Dict[Symbol, Element],
    ) -> bool:
        rhs = bound.rhs
        for s in bound.lhs.symbols:
            if not self._symbol_below(s, rhs, upper, frozenset()):
                return False
        return self._const_below(bound.lhs.const, rhs, lower)

    def _symbol_below(
        self,
        s: Symbol,
        rhs: ClassExpr,
        upper: Dict[Symbol, List[ClassExpr]],
        visiting: FrozenSet[Symbol],
    ) -> bool:
        if s in rhs.symbols:
            return True
        if s in visiting:
            return False  # cyclic chain of hypotheses: no new information
        for ub in upper.get(s, ()):
            if self._expr_below(ub, rhs, upper, visiting | {s}):
                return True
        return False

    def _expr_below(
        self,
        lhs: ClassExpr,
        rhs: ClassExpr,
        upper: Dict[Symbol, List[ClassExpr]],
        visiting: FrozenSet[Symbol],
    ) -> bool:
        for s in lhs.symbols:
            if not self._symbol_below(s, rhs, upper, visiting):
                return False
        # Constant part: compare against the rhs constant only (lower
        # bounds of rhs symbols are folded in by _const_below at top
        # level; here a conservative check keeps the recursion sound).
        if lhs.const is NIL:
            return True
        if rhs.const is NIL:
            return False
        return self.ext.leq(lhs.const, rhs.const)

    def _const_below(
        self,
        const: Element,
        rhs: ClassExpr,
        lower: Dict[Symbol, Element],
    ) -> bool:
        if const is NIL:
            return True
        effective = rhs.const
        for s in rhs.symbols:
            effective = self.ext.join(effective, lower.get(s, NIL))
        if effective is NIL:
            return False
        return self.ext.leq(const, effective)

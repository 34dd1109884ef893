"""Flow assertions — conjunctions of upper bounds on class expressions.

An assertion is a finite conjunction of *bounds* ``lhs <= rhs`` where
both sides are class expressions.  The paper's {V, L, G} notation
partitions a flow assertion into three parts:

* **V** — bounds mentioning neither ``local`` nor ``global``;
* **L** — the single bound ``local <= l`` (``l`` free of cert vars);
* **G** — the single bound ``global <= g`` (``g`` free of cert vars).

Intermediate assertions produced by axiom substitution need not have
the {V, L, G} shape (e.g. the wait axiom's precondition bounds
``sem (+) local (+) global``), so shape is checked only on demand via
:meth:`FlowAssertion.vlg`.

The *policy assertion corresponding to a static binding* (Definition 6)
is the conjunction of ``class(v) <= sbind(v)`` over all bound
variables; see :func:`policy_assertion`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional

from repro.core.binding import StaticBinding
from repro.errors import AssertionFormError
from repro.lattice.extended import ExtendedLattice
from repro.logic.classexpr import (
    GLOBAL,
    LOCAL,
    ClassExpr,
    Symbol,
    cert_expr,
    const_expr,
)


class Bound:
    """One conjunct: ``lhs <= rhs``."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: ClassExpr, rhs: ClassExpr):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __setattr__(self, name, value):
        raise AttributeError("Bound is immutable")

    def substitute(self, mapping: Mapping[Symbol, ClassExpr], ext: ExtendedLattice) -> "Bound":
        """Apply a simultaneous substitution to both sides."""
        return Bound(self.lhs.substitute(mapping, ext), self.rhs.substitute(mapping, ext))

    def mentions_cert_vars(self) -> bool:
        return self.lhs.mentions_cert_vars() or self.rhs.mentions_cert_vars()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bound) and other.lhs == self.lhs and other.rhs == self.rhs

    def __hash__(self) -> int:
        return hash((self.lhs, self.rhs))

    def __repr__(self) -> str:
        return f"{self.lhs} <= {self.rhs}"


class VLG(NamedTuple):
    """The {V, L, G} decomposition of a well-shaped assertion."""

    v: "FlowAssertion"
    local: Optional[ClassExpr]  # the bound l in "local <= l", or None
    global_: Optional[ClassExpr]  # the bound g in "global <= g", or None


class FlowAssertion:
    """An immutable conjunction of :class:`Bound` terms."""

    __slots__ = ("bounds",)

    def __init__(self, bounds: Iterable[Bound] = ()):
        object.__setattr__(self, "bounds", frozenset(bounds))
        for b in self.bounds:
            if not isinstance(b, Bound):
                raise AssertionFormError(f"not a bound: {b!r}")

    def __setattr__(self, name, value):
        raise AttributeError("FlowAssertion is immutable")

    # -- construction ------------------------------------------------------

    @staticmethod
    def true() -> "FlowAssertion":
        """The empty conjunction (no restriction)."""
        return FlowAssertion()

    def conjoin(self, other: "FlowAssertion") -> "FlowAssertion":
        """``self and other``."""
        return FlowAssertion(self.bounds | other.bounds)

    def with_bound(self, lhs: ClassExpr, rhs: ClassExpr) -> "FlowAssertion":
        return FlowAssertion(self.bounds | {Bound(lhs, rhs)})

    def substitute(
        self, mapping: Mapping[Symbol, ClassExpr], ext: ExtendedLattice
    ) -> "FlowAssertion":
        """Simultaneous syntactic substitution ``P[x <- e, ...]``."""
        return FlowAssertion(b.substitute(mapping, ext) for b in self.bounds)

    # -- {V, L, G} shape -----------------------------------------------------

    def vlg(self) -> VLG:
        """Decompose into {V, L, G}, or raise :class:`AssertionFormError`.

        Requires every bound to be a pure V term, the L term
        ``local <= l``, or the G term ``global <= g`` (at most one of
        each; ``l``/``g`` must not mention cert variables).
        """
        v_terms = []
        local_bound: Optional[ClassExpr] = None
        global_bound: Optional[ClassExpr] = None
        for b in self.bounds:
            if not b.mentions_cert_vars():
                v_terms.append(b)
                continue
            if b.lhs == cert_expr(LOCAL) and not b.rhs.mentions_cert_vars():
                if local_bound is not None and local_bound != b.rhs:
                    raise AssertionFormError(f"two distinct local bounds in {self!r}")
                local_bound = b.rhs
                continue
            if b.lhs == cert_expr(GLOBAL) and not b.rhs.mentions_cert_vars():
                if global_bound is not None and global_bound != b.rhs:
                    raise AssertionFormError(f"two distinct global bounds in {self!r}")
                global_bound = b.rhs
                continue
            raise AssertionFormError(f"bound {b!r} is neither V, L, nor G shaped")
        return VLG(FlowAssertion(v_terms), local_bound, global_bound)

    def v_part(self) -> "FlowAssertion":
        """The bounds free of certification variables."""
        return FlowAssertion(b for b in self.bounds if not b.mentions_cert_vars())

    def is_vlg(self) -> bool:
        """True if :meth:`vlg` would succeed."""
        try:
            self.vlg()
            return True
        except AssertionFormError:
            return False

    # -- dunders ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FlowAssertion) and other.bounds == self.bounds

    def __hash__(self) -> int:
        return hash(self.bounds)

    def __iter__(self):
        return iter(self.bounds)

    def __len__(self) -> int:
        return len(self.bounds)

    def __repr__(self) -> str:
        if not self.bounds:
            return "{true}"
        return "{" + ", ".join(sorted(repr(b) for b in self.bounds)) + "}"


def policy_assertion(binding: StaticBinding, variables=None) -> FlowAssertion:
    """Definition 6: the conjunction of ``class(v) <= sbind(v)``.

    ``variables`` defaults to the binding's explicitly bound names;
    pass the program's variable set when the binding uses a default
    class, so defaulted variables get policy terms too.
    """
    from repro.logic.classexpr import var_class

    names = binding.variables if variables is None else frozenset(variables)
    bounds = [
        Bound(var_class(name), const_expr(binding.of_var(name)))
        for name in sorted(names)
    ]
    return FlowAssertion(bounds)


def vlg_assertion(
    v: FlowAssertion,
    local_bound: Optional[ClassExpr],
    global_bound: Optional[ClassExpr],
) -> FlowAssertion:
    """Assemble ``{V, local <= l, global <= g}`` (either bound optional)."""
    out = v
    if local_bound is not None:
        out = out.with_bound(cert_expr(LOCAL), local_bound)
    if global_bound is not None:
        out = out.with_bound(cert_expr(GLOBAL), global_bound)
    return out

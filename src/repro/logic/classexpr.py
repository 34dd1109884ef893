"""Class expressions — the terms of the flow logic.

A class expression denotes a security class built from:

* ``VarClass(v)`` — the *current* class of program variable ``v`` (the
  paper's underlined ``v``);
* the certification variables ``local`` and ``global``;
* lattice constants;
* joins (the paper's ``(+)``) of the above.

Join is associative, commutative, and idempotent, so every expression
has a normal form: a set of symbols plus a single constant (the join of
all constant parts).  :class:`ClassExpr` *is* that normal form, which
makes substitution and syntactic comparison straightforward.

The constant part lives in the *extended* lattice: ``NIL`` is the join
identity, used for "no constant contribution".
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Mapping, Union

from repro.errors import LogicError
from repro.lang.ast import BoolLit, Expr, IntLit, expr_variables, iter_nodes
from repro.lattice.base import Element, Lattice
from repro.lattice.extended import NIL, ExtendedLattice


class VarClass:
    """The current classification of program variable ``name``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarClass) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("VarClass", self.name))

    def __repr__(self) -> str:
        return f"_{self.name}_"  # underlined v, rendered with underscores


class CertVar:
    """A certification variable: ``local`` or ``global``."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in ("local", "global"):
            raise LogicError(f"unknown certification variable {kind!r}")
        self.kind = kind

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CertVar) and other.kind == self.kind

    def __hash__(self) -> int:
        return hash(("CertVar", self.kind))

    def __repr__(self) -> str:
        return self.kind


#: The two certification variables (shared instances for convenience).
LOCAL = CertVar("local")
GLOBAL = CertVar("global")

Symbol = Union[VarClass, CertVar]


class ClassExpr:
    """A join of symbols and one constant, in normal form.

    Immutable.  ``symbols`` is a frozenset of :class:`VarClass` /
    :class:`CertVar`; ``const`` is an element of the extended lattice
    (``NIL`` meaning "no constant part").
    """

    __slots__ = ("symbols", "const")

    def __init__(self, symbols: Iterable[Symbol] = (), const: Element = NIL):
        object.__setattr__(self, "symbols", frozenset(symbols))
        object.__setattr__(self, "const", const)
        for s in self.symbols:
            if not isinstance(s, (VarClass, CertVar)):
                raise LogicError(f"not a class symbol: {s!r}")

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("ClassExpr is immutable")

    # -- algebra -----------------------------------------------------------

    def join(self, other: "ClassExpr", ext: ExtendedLattice) -> "ClassExpr":
        """``self (+) other`` in normal form."""
        return ClassExpr(self.symbols | other.symbols, ext.join(self.const, other.const))

    def substitute(self, mapping: Mapping[Symbol, "ClassExpr"], ext: ExtendedLattice) -> "ClassExpr":
        """Simultaneous substitution of symbols by class expressions."""
        symbols = set()
        const = self.const
        for s in self.symbols:
            if s in mapping:
                repl = mapping[s]
                symbols |= repl.symbols
                const = ext.join(const, repl.const)
            else:
                symbols.add(s)
        return ClassExpr(symbols, const)

    def mentions(self, symbol: Symbol) -> bool:
        """True if ``symbol`` occurs in this expression."""
        return symbol in self.symbols

    def mentions_cert_vars(self) -> bool:
        """True if ``local`` or ``global`` occurs."""
        return any(isinstance(s, CertVar) for s in self.symbols)

    @property
    def is_constant(self) -> bool:
        return not self.symbols

    def variables(self) -> FrozenSet[str]:
        """Program-variable names whose classes occur in the expression."""
        return frozenset(s.name for s in self.symbols if isinstance(s, VarClass))

    # -- value --------------------------------------------------------------

    def evaluate(self, ext: ExtendedLattice, valuation: Mapping[Symbol, Element]) -> Element:
        """The concrete class under a symbol valuation."""
        result = self.const
        for s in self.symbols:
            if s not in valuation:
                raise LogicError(f"no valuation for symbol {s!r}")
            result = ext.join(result, valuation[s])
        return result

    # -- dunders --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ClassExpr)
            and other.symbols == self.symbols
            and other.const == self.const
        )

    def __hash__(self) -> int:
        return hash((self.symbols, self.const))

    def __repr__(self) -> str:
        parts = sorted((repr(s) for s in self.symbols))
        if self.const is not NIL or not parts:
            parts.append(repr(self.const))
        return " (+) ".join(parts)


# -- constructors ------------------------------------------------------------


def var_class(name: str) -> ClassExpr:
    """The expression consisting of one variable class."""
    return ClassExpr([VarClass(name)])


def cert_expr(which: CertVar) -> ClassExpr:
    """The expression consisting of ``local`` or ``global`` alone."""
    return ClassExpr([which])


def const_expr(value: Element) -> ClassExpr:
    """A constant class expression."""
    return ClassExpr((), value)


def join_all(exprs: Iterable[ClassExpr], ext: ExtendedLattice) -> ClassExpr:
    """Join of several class expressions (``NIL`` for the empty join)."""
    result = ClassExpr()
    for e in exprs:
        result = result.join(e, ext)
    return result


def class_of_expr(expr: Expr, scheme: Lattice) -> ClassExpr:
    """The symbolic class of a program expression (Definition 2).

    Variables contribute their current class; constants contribute
    ``low`` (the base-scheme bottom); operators join their operands.
    """
    symbols = [VarClass(v) for v in expr_variables(expr)]
    has_literal = any(isinstance(n, (IntLit, BoolLit)) for n in iter_nodes(expr))
    const = scheme.bottom if (has_literal or not symbols) else NIL
    return ClassExpr(symbols, const)

"""Security classification schemes as complete lattices.

The paper (Definition 1) models a security classification scheme as a
complete lattice ``(C, <=)`` with top ``high``, bottom ``low``, least upper
bound ``join`` and greatest lower bound ``meet``.  This package provides:

* :class:`~repro.lattice.base.Lattice` — the abstract interface plus
  generic helpers (``join_all``, ``meet_all``, axiom validation).
* :class:`~repro.lattice.chain.ChainLattice` — total orders such as the
  classic ``low < high`` or military ``unclassified < ... < topsecret``.
* :class:`~repro.lattice.powerset.PowersetLattice` — need-to-know category
  sets ordered by inclusion (Denning's lattice model).
* :class:`~repro.lattice.product.ProductLattice` — componentwise products,
  e.g. level x categories.
* :class:`~repro.lattice.finite.FiniteLattice` — an arbitrary finite order
  given explicitly, with full lattice-axiom validation.
* :class:`~repro.lattice.extended.ExtendedLattice` — the paper's
  Definition 4: a fresh bottom ``nil`` adjoined below an existing scheme,
  used by CFM so that ``flow(S) = nil`` means "no global flow".

Convenience constructors :func:`two_level`, :func:`four_level`,
:func:`military` build the most common schemes; :data:`SCHEMES` names
the ones the CLI, the pipeline config and the fused certifier accept.
"""

from repro.lattice.base import Lattice
from repro.lattice.chain import ChainLattice, two_level, four_level
from repro.lattice.powerset import PowersetLattice
from repro.lattice.product import ProductLattice, military
from repro.lattice.finite import FiniteLattice, diamond
from repro.lattice.extended import NIL, ExtendedLattice, Nil
from repro.lattice.parse import load_scheme, parse_scheme
from repro.lattice.render import hasse_edges, to_dot, ascii_order

#: The named schemes, name -> constructor: ``--scheme`` and the
#: pipeline's ``scheme`` config key choose among these.
SCHEMES = {
    "two-level": two_level,
    "four-level": four_level,
    "diamond": diamond,
}

__all__ = [
    "Lattice",
    "ChainLattice",
    "PowersetLattice",
    "ProductLattice",
    "FiniteLattice",
    "ExtendedLattice",
    "Nil",
    "NIL",
    "two_level",
    "four_level",
    "military",
    "SCHEMES",
    "hasse_edges",
    "to_dot",
    "ascii_order",
    "parse_scheme",
    "load_scheme",
]

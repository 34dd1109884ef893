"""repro — a reproduction of Reitman's Concurrent Flow Mechanism (SOSP 1979).

The library certifies the information security of parallel programs at
compile time.  The headline API:

>>> from repro import parse_program, StaticBinding, certify, two_level
>>> scheme = two_level()
>>> prog = parse_program('''
...     var x, y : integer; s : semaphore initially(0);
...     cobegin
...         if x # 0 then signal(s)
...     ||
...         begin wait(s); y := 1 end
...     coend
... ''')
>>> binding = StaticBinding(scheme, {"x": "high", "y": "low", "s": "low"})
>>> certify(prog, binding).certified
False

See README.md for the full tour and DESIGN.md for the paper mapping.
"""

from repro.lang import (
    parse_expression,
    parse_program,
    parse_statement,
    pretty,
    validate_program,
)
from repro.lattice import (
    ChainLattice,
    ExtendedLattice,
    FiniteLattice,
    Lattice,
    NIL,
    PowersetLattice,
    ProductLattice,
    four_level,
    military,
    two_level,
)
from repro.core import (
    StaticBinding,
    certify,
    certify_denning,
    certify_flow_sensitive,
    infer_binding,
)
from repro.logic import check_proof, generate_proof
from repro.observe import Budget
from repro.runtime import (
    EnforcingMonitor,
    TaintMonitor,
    check_noninterference,
    explore,
    run,
)

__version__ = "1.3.0"

__all__ = [
    "__version__",
    # language
    "parse_program",
    "parse_statement",
    "parse_expression",
    "pretty",
    "validate_program",
    # lattices
    "Lattice",
    "ChainLattice",
    "PowersetLattice",
    "ProductLattice",
    "FiniteLattice",
    "ExtendedLattice",
    "NIL",
    "two_level",
    "four_level",
    "military",
    # core mechanisms
    "StaticBinding",
    "certify",
    "certify_denning",
    "certify_flow_sensitive",
    "infer_binding",
    # flow logic
    "generate_proof",
    "check_proof",
    # observability
    "Budget",
    # runtime
    "run",
    "explore",
    "check_noninterference",
    "TaintMonitor",
    "EnforcingMonitor",
]

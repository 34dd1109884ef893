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
The headline names resolve on first use: ``import repro`` loads no other
module of the package, and ``import repro.<module>`` loads only what that
module imports.
"""

import importlib
from typing import Callable, Dict, List, Tuple

__version__ = "1.3.0"


def _lazy(
    namespace: dict, exports: Dict[str, Tuple[str, ...]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """A package's PEP 562 ``__getattr__`` and ``__dir__``.

    ``exports`` maps each submodule, relative to the package whose
    globals are ``namespace``, to the names the package re-exports from
    it.  A name imports its submodule on first use and is then kept in
    ``namespace``, so importing one module of the package runs none of
    the others it re-exports.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f".{origin[name]}", package)
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__


_EXPORTS = {
    "lang": (
        "parse_program",
        "parse_statement",
        "parse_expression",
        "pretty",
        "validate_program",
    ),
    "lattice": (
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
    ),
    "core": (
        "StaticBinding",
        "certify",
        "certify_denning",
        "certify_flow_sensitive",
        "infer_binding",
    ),
    "logic": ("generate_proof", "check_proof"),
    "observe": ("Budget",),
    "runtime": (
        "run",
        "explore",
        "check_noninterference",
        "TaintMonitor",
        "EnforcingMonitor",
    ),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]

__getattr__, __dir__ = _lazy(globals(), _EXPORTS)

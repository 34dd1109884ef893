"""The fused single-sweep certifier (the section 6 complexity claim, made real).

The reference certifiers (:mod:`repro.core.cfm`, :mod:`repro.core.denning`)
re-walk the dataclass AST once per analysis and build a
:class:`~repro.core.cfm.Check` record — detail string included — for
every side condition.  That is the honest paper mechanism, and it is
the hot path every ``repro batch``, ``repro serve`` and ``repro fuzz``
cycle pays.  This package is the fast path behind the registry's
``cert`` and ``denning`` analyses:

* :mod:`repro.fastpath.interning` — lattice elements become small ints
  with O(1) join/meet/leq (rank comparisons for chains, bit operations
  for powersets, precomputed tables for anything finite);
* :mod:`repro.fastpath.ir` — programs are lowered once into a
  hash-consed array-of-structs IR, so structurally identical subtrees
  share one node id across an entire corpus;
* :mod:`repro.fastpath.engine` — ``mod``/``flow``/``cert`` and the
  Denning baseline are evaluated in one fused linear sweep over the IR,
  memoized per subtree.

The contract is byte-identity: for every subject the fast path supports,
its result dicts equal the reference implementation's exactly (the
``cert-equiv`` fuzz oracle, the golden differential tests, and
``benchmarks/bench_cert.py`` all pin this).  Subjects the fast path does
not support (procedure programs, exotic nodes) return ``None`` and the
registry falls back to the reference implementation — the fast path may
only ever be faster, never different.  Disable it with the ``fastpath``
config key (``repro batch/serve/fuzz --no-fastpath``).
"""

from repro.fastpath.engine import (
    cache_stats,
    clear_caches,
    fused_cert,
    fused_denning,
)
from repro.fastpath.interning import (
    ChainInterned,
    ExtendedInterned,
    InternedLattice,
    PowersetInterned,
    ProductInterned,
    TableInterned,
    intern_lattice,
)
from repro.fastpath.ir import NodeStore, lower

__all__ = [
    "ChainInterned",
    "ExtendedInterned",
    "InternedLattice",
    "NodeStore",
    "PowersetInterned",
    "ProductInterned",
    "TableInterned",
    "cache_stats",
    "clear_caches",
    "fused_cert",
    "fused_denning",
    "intern_lattice",
    "lower",
]

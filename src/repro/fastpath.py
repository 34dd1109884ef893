"""The fused certifier: CFM and the Denning baseline in one sweep.

The reference certifiers (:mod:`repro.core.cfm`, :mod:`repro.core.denning`)
each walk the AST once and build a :class:`~repro.core.cfm.Check`
record, detail string included, for every side condition.  The
registry's ``cert`` and ``denning`` results need much less: a check
count, the sorted names of the failed rules, and for Denning the count
of concurrency constructs.  This module computes both results in one
post-order walk, the section 6 single pass made literal.

**Why one bit per class is exact.**  The registry's policy binds every
variable in ``config["high"]`` to the scheme's top and every other
variable to its bottom, and constants are bottom.  Every class the
certifiers compute is a join or meet of those, and ``{top, bottom}``
is closed under join and meet in every lattice.  So each class is a
bool, True for top: join is ``or``, meet is ``and``, and ``a <= b`` is
``not a or b``.  That last step needs ``top <= bottom`` to be false,
which holds in every scheme with two or more elements, so in all three
registered ones.  ``flow`` is ``None`` for the extended scheme's
``nil``, the identity of the flow join.

**The record.**  The walk returns, for each statement, the 8-slot
record ``(mod, flow, cn, cf, dmod, dn, df, du)``:

* ``mod``/``flow`` are Figure 2's ``mod(S)`` and ``flow(S)``;
* ``cn``/``cf`` are how many CFM side conditions ``S`` evaluates and
  the set of rule names among them that fail;
* ``dmod`` is the Denning ``mod(S)``, which leaves out semaphores:
  they are not data variables to the sequential mechanism;
* ``dn``/``df`` are the Denning check count and failed rule names;
* ``du`` counts ``wait``/``signal``/``cobegin`` nodes, reported as
  unsupported under ``on_concurrency="reject"`` and as zero under
  ``"ignore"``.

**The recursion.**  The walk recurses like the reference ``visit``, so
it needs no deeper stack than the reference does.  Nothing outlives a
call: a call's cost depends only on its subject.

**The decline contract.**  The entry points return ``None`` for
anything they do not model, and the registry then runs the reference
implementation, errors included: a ``Program`` with procedures or
synthetic names (the reference expands them first), an unknown
statement or expression node, a scheme the registry does not know, an
``on_concurrency`` other than ``reject`` or ``ignore``, and a subject
that is not a statement.  The fast path may only ever be faster, never
different; ``tests/fastpath/`` and the ``cert-equiv`` fuzz oracle hold
it to that.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from repro.lang.ast import (
    Assign,
    Begin,
    BinOp,
    BoolLit,
    Cobegin,
    If,
    IntLit,
    Program,
    Signal,
    Skip,
    Stmt,
    UnOp,
    Var,
    Wait,
    While,
)
from repro.lattice import SCHEMES

__all__ = ["fused_cert", "fused_denning"]

Record = Tuple[
    bool, Optional[bool], int, FrozenSet[str], bool, int, FrozenSet[str], int
]

_EMPTY: FrozenSet[str] = frozenset()
_ASSIGNMENT = frozenset(["assignment"])
_ALTERNATION = frozenset(["alternation"])
_ITERATION = frozenset(["iteration"])
_COMPOSITION = frozenset(["composition"])

#: ``skip``, and the missing ``else`` of an ``if``.
_SKIP: Record = (True, None, 0, _EMPTY, True, 0, _EMPTY, 0)


class _Decline(Exception):
    """A node the sweep does not model; the entry point returns ``None``."""


def _is_top(expr, high: FrozenSet[str]) -> bool:
    """Whether ``sbind(expr)`` is top: some variable in it is high."""
    if isinstance(expr, Var):
        return expr.name in high
    if isinstance(expr, BinOp):
        # ``|``, not ``or``: the whole tree is walked, so an unknown
        # node anywhere declines.
        return _is_top(expr.left, high) | _is_top(expr.right, high)
    if isinstance(expr, (IntLit, BoolLit)):
        return False
    if isinstance(expr, UnOp):
        return _is_top(expr.operand, high)
    raise _Decline


def _sweep(stmt, high: FrozenSet[str]) -> Record:
    """The record of ``stmt``: its children's records, then its own rule."""
    if isinstance(stmt, Assign):
        target = stmt.target in high
        failed = _ASSIGNMENT if _is_top(stmt.expr, high) and not target else _EMPTY
        return (target, None, 1, failed, target, 1, failed, 0)
    if isinstance(stmt, (Begin, Cobegin)):
        # Composition checks each statement against the flows before it;
        # concurrency checks nothing, and is a construct Denning rejects.
        sequential = isinstance(stmt, Begin)
        mod = dmod = True
        flow = None
        cn = dn = 0
        du = 0 if sequential else 1
        cf = df = _EMPTY
        for child in stmt.body if sequential else stmt.branches:
            m, f, c, cfi, dm, d, dfi, u = _sweep(child, high)
            if sequential and flow is not None:
                # flow(Sj) <= mod(Si) for j < i, folded into the running
                # prefix join exactly like the reference.
                cn += 1
                if flow and not m:
                    cf = cf | _COMPOSITION
            mod = mod and m
            dmod = dmod and dm
            if f is not None:
                flow = f if flow is None else flow or f
            cn += c
            cf = cf | cfi
            dn += d
            df = df | dfi
            du += u
        return (mod, flow, cn, cf, dmod, dn, df, du)
    if isinstance(stmt, If):
        m1, f1, c1, cf1, dm1, d1, df1, u1 = _sweep(stmt.then_branch, high)
        if stmt.else_branch is None:
            m2, f2, c2, cf2, dm2, d2, df2, u2 = _SKIP
        else:
            m2, f2, c2, cf2, dm2, d2, df2, u2 = _sweep(stmt.else_branch, high)
        cond = _is_top(stmt.cond, high)
        mod = m1 and m2
        dmod = dm1 and dm2
        flow = None if f1 is None and f2 is None else f1 or f2 or cond
        cf = cf1 | cf2
        if cond and not mod:
            cf = cf | _ALTERNATION
        df = df1 | df2
        if cond and not dmod:
            df = df | _ALTERNATION
        return (mod, flow, c1 + c2 + 1, cf, dmod, d1 + d2 + 1, df, u1 + u2)
    if isinstance(stmt, While):
        mod, f1, cn, cf, dmod, dn, df, du = _sweep(stmt.body, high)
        cond = _is_top(stmt.cond, high)
        flow = f1 or cond
        if flow and not mod:
            cf = cf | _ITERATION
        if cond and not dmod:
            df = df | _ITERATION
        return (mod, flow, cn + 1, cf, dmod, dn + 1, df, du)
    if isinstance(stmt, Skip):
        return _SKIP
    if isinstance(stmt, Wait):
        sem = stmt.sem in high
        return (sem, sem, 0, _EMPTY, True, 0, _EMPTY, 1)
    if isinstance(stmt, Signal):
        return (stmt.sem in high, None, 0, _EMPTY, True, 0, _EMPTY, 1)
    raise _Decline


def _record(subject, config: dict) -> Optional[Record]:
    """The subject's record under the config policy; ``None`` declines."""
    if isinstance(subject, Program):
        if subject.procs or subject.synthetic:
            return None
        subject = subject.body
    elif not isinstance(subject, Stmt):
        return None
    if str(config.get("scheme", "")) not in SCHEMES:
        return None
    try:
        high = frozenset(config.get("high", ()))
    except TypeError:
        return None
    try:
        return _sweep(subject, high)
    except _Decline:
        return None


def fused_cert(subject, config: dict) -> Optional[dict]:
    """The ``cert`` registry result via the sweep; ``None`` declines."""
    record = _record(subject, config)
    if record is None:
        return None
    failed = record[3]
    return {
        "certified": not failed,
        "checks": record[2],
        "violations": sorted(failed),
    }


def fused_denning(subject, config: dict) -> Optional[dict]:
    """The ``denning`` registry result via the sweep; ``None`` declines."""
    mode = str(config.get("on_concurrency", ""))
    if mode not in ("reject", "ignore"):
        return None
    record = _record(subject, config)
    if record is None:
        return None
    unsupported = record[7] if mode == "reject" else 0
    failed = record[6]
    return {
        "certified": not failed and not unsupported,
        "checks": record[5],
        "violations": sorted(failed),
        "unsupported": unsupported,
    }

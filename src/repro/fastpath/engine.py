"""The fused single-sweep evaluation of cert + denning.

One linear pass over the hash-consed IR computes, per node id, an
8-slot record covering *both* certifiers at once:

``(mod, flow, cn, cf, dmod, dn, df, du)``

* ``mod``/``flow`` — CFM's Figure 2 functions, as interned class ids
  (``flow`` uses :data:`NIL` for "no global flow");
* ``cn``/``cf`` — how many CFM side conditions the subtree evaluates,
  and the frozenset of rule names among them that *fail*;
* ``dmod`` — the Denning ``mod`` (semaphores excluded: they are not
  data variables to the sequential mechanism);
* ``dn``/``df`` — Denning check count and failed rule names (identical
  under both ``on_concurrency`` modes);
* ``du`` — how many ``wait``/``signal``/``cobegin`` nodes the subtree
  contains (reported as unsupported under ``on_concurrency="reject"``,
  as zero under ``"ignore"``).

That record is exactly enough to assemble the registry's result dicts
— ``certified``, ``checks``, ``violations`` (sorted rule names), and
``unsupported`` are location-free aggregates — which is why records can
be memoized by *structure* and shared across every program in a corpus
that repeats a subtree.  Records are keyed by ``(scheme, high)``
context; the policy is the registry's config-derived binding (names in
``high`` bind to the scheme top, everything else to bottom), so a
variable's class is a set-membership test.

Entry points return ``None`` for anything they do not model (procedure
programs, unknown nodes, unknown schemes); the registry then runs the
reference implementation.  The fast path may only ever be faster,
never different — ``tests/fastpath/`` and the ``cert-equiv`` fuzz
oracle hold it to that.

All shared state (one IR store, per-context record memos, the root
memo) sits behind a single re-entrant lock; caps trigger a coordinated
clear, since records dangle once the store resets.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Optional, Tuple

from repro.fastpath.interning import InternedLattice, intern_lattice
from repro.fastpath.ir import (
    K_ASSIGN,
    K_BEGIN,
    K_COBEGIN,
    K_IF,
    K_SIGNAL,
    K_SKIP,
    K_WAIT,
    K_WHILE,
    NO_NODE,
    NodeStore,
    Unsupported,
    child_nids,
    lower,
)
from repro.lang.ast import Program, Stmt

#: ``flow(S)`` id for "no global flow" (Definition 4's ``nil``).
NIL = -1

#: Cap on interned IR rows before a coordinated cache clear.
MAX_IR_ROWS = 250_000
#: Cap on memoized records summed across all ``(scheme, high)`` contexts.
MAX_RECORDS = 1_000_000
#: Cap on memoized root uid -> nid entries.
MAX_ROOT_ENTRIES = 65_536

_EMPTY: FrozenSet[str] = frozenset()
_ASSIGNMENT = frozenset(["assignment"])
_ALTERNATION = frozenset(["alternation"])
_ITERATION = frozenset(["iteration"])
_COMPOSITION = frozenset(["composition"])

Record = Tuple[int, int, int, FrozenSet[str], int, int, FrozenSet[str], int]


class _Context:
    """Interned scheme + high-variable set + the record memo they key."""

    __slots__ = ("base", "high", "memo")

    def __init__(self, base: InternedLattice, high: FrozenSet[str]):
        self.base = base
        self.high = high
        self.memo: Dict[int, Record] = {}


_LOCK = threading.RLock()
_STORE = NodeStore()
_SCHEMES_INTERNED: Dict[str, InternedLattice] = {}
_CONTEXTS: Dict[Tuple[str, Tuple[str, ...]], _Context] = {}
# Root uid -> interned nid.  AST uids come from a process-global counter
# and are never reused, and nothing in the repo mutates a node after
# construction (the shrinker and builders rebuild), so a uid hit means
# the exact structure already lowered — the warm path skips the walk.
_ROOT_NIDS: Dict[int, int] = {}


def clear_caches() -> None:
    """Drop the IR store, every record memo, and the root memo."""
    with _LOCK:
        _STORE.clear()
        _SCHEMES_INTERNED.clear()
        _CONTEXTS.clear()
        _ROOT_NIDS.clear()


def cache_stats() -> Dict[str, int]:
    """Sizes of the shared caches (for benchmarks and diagnostics)."""
    with _LOCK:
        return {
            "irs": len(_STORE),
            "memo": sum(len(ctx.memo) for ctx in _CONTEXTS.values()),
            "schemes": len(_SCHEMES_INTERNED),
        }


def _trim_if_needed() -> None:
    """Clear everything when a cap trips (records dangle once rows do)."""
    if (
        len(_STORE) > MAX_IR_ROWS
        or sum(len(ctx.memo) for ctx in _CONTEXTS.values()) > MAX_RECORDS
        or len(_ROOT_NIDS) > MAX_ROOT_ENTRIES
    ):
        _STORE.clear()
        for ctx in _CONTEXTS.values():
            ctx.memo.clear()
        _ROOT_NIDS.clear()


def _interned_scheme(name: str) -> Optional[InternedLattice]:
    interned = _SCHEMES_INTERNED.get(name)
    if interned is None:
        # Late import: the registry imports this module, not vice versa.
        from repro.pipeline.analyses import _SCHEMES

        factory = _SCHEMES.get(name)
        if factory is None:
            return None
        interned = intern_lattice(factory())
        _SCHEMES_INTERNED[name] = interned
    return interned


def _context(config: dict) -> Optional[_Context]:
    name = str(config.get("scheme", ""))
    raw_high = config.get("high", ())
    try:
        high = tuple(sorted(str(h) for h in raw_high))
    except TypeError:
        return None
    key = (name, high)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        base = _interned_scheme(name)
        if base is None:
            return None
        ctx = _Context(base, frozenset(high))
        _CONTEXTS[key] = ctx
    return ctx


def _supported_body(subject) -> Optional[Stmt]:
    """The statement the reference would analyze, or ``None`` to decline.

    Procedure programs go through expansion (``resolve_subject``) and
    synthetic-binding completion in the reference path; the fast path
    declines them rather than re-modeling that machinery.
    """
    if isinstance(subject, Program):
        if subject.procs or subject.synthetic:
            return None
        return subject.body
    if isinstance(subject, Stmt):
        return subject
    return None


def _lowered(subject, config) -> Optional[Tuple[int, _Context]]:
    """Intern ``subject`` and resolve its context; ``None`` declines."""
    stmt = _supported_body(subject)
    if stmt is None:
        return None
    ctx = _context(config)
    if ctx is None:
        return None
    _trim_if_needed()
    nid = _ROOT_NIDS.get(stmt.uid)
    if nid is None:
        try:
            nid = lower(stmt, _STORE)
        except Unsupported:
            return None
        _ROOT_NIDS[stmt.uid] = nid
    return nid, ctx


def _evaluate(root: int, ctx: _Context) -> Record:
    """The fused linear sweep: children first, both certifiers at once.

    Rows are interned bottom-up, so child ids are smaller than parent
    ids; sorting the not-yet-memoized ids ascending makes one flat loop
    sufficient — no recursion, and a memo hit prunes its whole subtree.
    """
    memo = ctx.memo
    rec = memo.get(root)
    if rec is not None:
        return rec
    rows = _STORE.rows
    pending = []
    seen = set()
    stack = [root]
    while stack:
        nid = stack.pop()
        if nid in seen or nid in memo:
            continue
        seen.add(nid)
        pending.append(nid)
        stack.extend(child_nids(rows[nid]))
    pending.sort()

    base = ctx.base
    high = ctx.high
    top, bot = base.top, base.bottom
    join, meet, leq = base.join, base.meet, base.leq
    # Config-derived policy: every class is top or bot, so the join
    # fold over an expression's variables is a membership test.
    skip_rec: Record = (top, NIL, 0, _EMPTY, top, 0, _EMPTY, 0)

    for nid in pending:
        row = rows[nid]
        kind = row[0]
        if kind == K_ASSIGN:
            target = top if row[1] in high else bot
            expr_cls = top if any(n in high for n in row[2]) else bot
            failed = _EMPTY if leq(expr_cls, target) else _ASSIGNMENT
            rec = (target, NIL, 1, failed, target, 1, failed, 0)
        elif kind == K_SKIP:
            rec = skip_rec
        elif kind == K_WAIT:
            sem = top if row[1] in high else bot
            rec = (sem, sem, 0, _EMPTY, top, 0, _EMPTY, 1)
        elif kind == K_SIGNAL:
            sem = top if row[1] in high else bot
            rec = (sem, NIL, 0, _EMPTY, top, 0, _EMPTY, 1)
        elif kind == K_IF:
            m1, f1, c1, cf1, dm1, d1, df1, u1 = memo[row[2]]
            if row[3] == NO_NODE:
                m2, f2, c2, cf2, dm2, d2, df2, u2 = skip_rec
            else:
                m2, f2, c2, cf2, dm2, d2, df2, u2 = memo[row[3]]
            cond = top if any(n in high for n in row[1]) else bot
            mod = meet(m1, m2)
            if f1 == NIL and f2 == NIL:
                flow = NIL
            else:
                branch_flow = f2 if f1 == NIL else (f1 if f2 == NIL else join(f1, f2))
                flow = join(branch_flow, cond)
            cf = cf1 | cf2
            if not leq(cond, mod):
                cf = cf | _ALTERNATION
            dmod = meet(dm1, dm2)
            df = df1 | df2
            if not leq(cond, dmod):
                df = df | _ALTERNATION
            rec = (mod, flow, c1 + c2 + 1, cf, dmod, d1 + d2 + 1, df, u1 + u2)
        elif kind == K_WHILE:
            m1, f1, c1, cf1, dm1, d1, df1, u1 = memo[row[2]]
            cond = top if any(n in high for n in row[1]) else bot
            flow = cond if f1 == NIL else join(f1, cond)
            cf = cf1 if leq(flow, m1) else cf1 | _ITERATION
            df = df1 if leq(cond, dm1) else df1 | _ITERATION
            rec = (m1, flow, c1 + 1, cf, dm1, d1 + 1, df, u1)
        elif kind == K_BEGIN:
            mod, flow = top, NIL
            cn, cf = 0, _EMPTY
            dmod, dn, df, du = top, 0, _EMPTY, 0
            first = True
            for cnid in row[1]:
                m, f, c, cfi, dm, d, dfi, u = memo[cnid]
                cn += c
                cf = cf | cfi
                dn += d
                df = df | dfi
                du += u
                if flow != NIL:
                    # flow(Sj) <= mod(Si) for j < i, folded into the
                    # running prefix join exactly like the reference.
                    cn += 1
                    if not leq(flow, m):
                        cf = cf | _COMPOSITION
                mod = m if first else meet(mod, m)
                dmod = dm if first else meet(dmod, dm)
                first = False
                if f != NIL:
                    flow = f if flow == NIL else join(flow, f)
            rec = (mod, flow, cn, cf, dmod, dn, df, du)
        else:  # K_COBEGIN
            mod, flow = top, NIL
            cn, cf = 0, _EMPTY
            dmod, dn, df, du = top, 0, _EMPTY, 1  # the cobegin itself
            first = True
            for cnid in row[1]:
                m, f, c, cfi, dm, d, dfi, u = memo[cnid]
                cn += c
                cf = cf | cfi
                dn += d
                df = df | dfi
                du += u
                mod = m if first else meet(mod, m)
                dmod = dm if first else meet(dmod, dm)
                first = False
                if f != NIL:
                    flow = f if flow == NIL else join(flow, f)
            rec = (mod, flow, cn, cf, dmod, dn, df, du)
        memo[nid] = rec
    return memo[root]


def fused_cert(subject, config: dict) -> Optional[dict]:
    """The ``cert`` registry result via the fused sweep; ``None`` declines."""
    with _LOCK:
        lowered = _lowered(subject, config)
        if lowered is None:
            return None
        nid, ctx = lowered
        _mod, _flow, checks, failed, *_rest = _evaluate(nid, ctx)
    return {
        "certified": not failed,
        "checks": checks,
        "violations": sorted(failed),
    }


def fused_denning(subject, config: dict) -> Optional[dict]:
    """The ``denning`` registry result via the fused sweep; ``None`` declines."""
    mode = str(config.get("on_concurrency", ""))
    if mode not in ("reject", "ignore"):
        return None
    with _LOCK:
        lowered = _lowered(subject, config)
        if lowered is None:
            return None
        nid, ctx = lowered
        rec = _evaluate(nid, ctx)
    unsupported = rec[7] if mode == "reject" else 0
    failed = rec[6]
    return {
        "certified": not failed and not unsupported,
        "checks": rec[5],
        "violations": sorted(failed),
        "unsupported": unsupported,
    }

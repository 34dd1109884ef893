"""A generic forward/backward dataflow fixpoint engine over the CFG.

An analysis is described by a :class:`DataflowAnalysis` subclass: a
direction, a boundary value, an optimistic initial value, a join, and a
transfer function.  :func:`solve` runs a worklist to the least (with
respect to the analysis' join) fixpoint.  Values must be immutable and
comparable with ``==`` — ``frozenset`` is the workhorse.

Join receives the *node* and the labelled incoming values, so analyses
can treat ``cobegin`` join nodes or ``sync`` edges specially (see the
must-assigned pass for the canonical example).  The engine never
inspects value contents, so any finite-height lattice works.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.staticlint.cfg import CFG, CFGNode


class DataflowAnalysis:
    """Base class: parameterize and pass to :func:`solve`.

    Subclasses set :attr:`direction` (``"forward"`` or ``"backward"``)
    and :attr:`include_sync` (whether ``sync`` edges propagate values),
    and implement the four functions below.
    """

    direction = "forward"
    include_sync = False

    def boundary(self, cfg: CFG):
        """The value at the entry (forward) / exit (backward) node."""
        raise NotImplementedError

    def init(self, cfg: CFG):
        """The optimistic initial value for every other node (the
        lattice top for must-analyses, bottom for may-analyses)."""
        raise NotImplementedError

    def join2(self, a, b):
        """Binary join of two values (used by the default :meth:`join`)."""
        raise NotImplementedError

    def join(self, node: CFGNode, incoming: List[Tuple[str, object]], cfg: CFG):
        """Combine the labelled incoming values ``(edge_kind, value)``.

        The default folds :meth:`join2` over all of them; override to
        be node- or edge-kind-aware.
        """
        it = iter(incoming)
        acc = next(it)[1]
        for _kind, value in it:
            acc = self.join2(acc, value)
        return acc

    def transfer(self, node: CFGNode, value, cfg: CFG):
        """The effect of executing ``node`` on ``value``."""
        raise NotImplementedError


def solve(cfg: CFG, analysis: DataflowAnalysis) -> Dict[int, Tuple[object, object]]:
    """Run ``analysis`` to fixpoint; returns ``{idx: (pre, post)}``.

    ``pre`` is the joined value flowing *into* the node in the analysis
    direction and ``post`` the value after :meth:`transfer`.  For a
    backward analysis, ``pre`` is therefore the value *after* the node
    in program order.
    """
    forward = analysis.direction == "forward"
    edges_in = cfg.pred if forward else cfg.succ
    edges_out = cfg.succ if forward else cfg.pred
    start = cfg.entry if forward else cfg.exit

    boundary = analysis.boundary(cfg)
    init = analysis.init(cfg)
    pre: Dict[int, object] = {}
    post: Dict[int, object] = {n.idx: init for n in cfg.nodes}
    post[start.idx] = analysis.transfer(start, boundary, cfg)
    pre[start.idx] = boundary

    order = range(len(cfg.nodes)) if forward else range(len(cfg.nodes) - 1, -1, -1)
    worklist = list(order)
    queued = set(worklist)
    while worklist:
        idx = worklist.pop(0)
        queued.discard(idx)
        node = cfg.nodes[idx]
        incoming = [
            (kind, post[p])
            for p, kind in edges_in[idx]
            if analysis.include_sync or kind != "sync"
        ]
        if idx == start.idx:
            value = boundary
        elif incoming:
            value = analysis.join(node, incoming, cfg)
        else:
            value = init
        new_post = analysis.transfer(node, value, cfg)
        pre[idx] = value
        if new_post != post[idx]:
            post[idx] = new_post
            for s, kind in edges_out[idx]:
                if not analysis.include_sync and kind == "sync":
                    continue
                if s not in queued:
                    worklist.append(s)
                    queued.add(s)
    return {idx: (pre.get(idx, init), post[idx]) for idx in range(len(cfg.nodes))}


def reachable(cfg: CFG) -> frozenset:
    """Node indices reachable from the entry along non-``sync`` edges.

    A guard whose condition folds to a constant only lets the
    corresponding edge through — this is what makes ``if 1 = 2 then S``
    report ``S`` as unreachable.
    """
    seen = set()
    stack = [cfg.entry.idx]
    while stack:
        idx = stack.pop()
        if idx in seen:
            continue
        seen.add(idx)
        node = cfg.nodes[idx]
        const = cfg.guard_constant(node)
        for s, kind in cfg.succ[idx]:
            if kind == "sync":
                continue
            if const is not None and kind in ("true", "false"):
                wanted = "true" if const else "false"
                if kind != wanted:
                    continue
            if s not in seen:
                stack.append(s)
    return frozenset(seen)

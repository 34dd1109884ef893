"""Static deadlock analysis: semaphore wait-for and imbalance checks.

The exponential complement of :mod:`repro.analysis.deadlock`: instead
of exploring interleavings, this pass proves a *sufficient* condition
for deadlock freedom and reports every semaphore for which the proof
fails.  The analysis is conservative in the sound direction — it never
claims "deadlock-free" for a program in which the explorer can find a
witness (cross-validated on the litmus suite by
``tests/staticlint/test_cross_validation.py``) — and polynomial: one
AST traversal per semaphore plus a cycle check.

The balance argument.  Call a ``signal(s)`` *guaranteed* when it has
no ``if``/``while`` ancestor (it executes in every run) and nothing
that could block or diverge — a ``wait`` or a loop — precedes it in
its sequential prefix.  Guaranteed signals always fire.  If, for every
semaphore, the maximum number of ``wait``\\ s any single execution can
attempt (``if`` takes the larger branch, a ``wait`` under ``while``
counts as unbounded) is covered by the initial value plus the
guaranteed signals, then in any global state where every process is
blocked some guaranteed token is still owed to a blocked waiter — a
contradiction, so no deadlock is reachable.  Programs that synchronize
conditionally (Figure 3) fail the proof and are reported, which is
exactly the conservatism the paper prices into CFM itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.lang.ast import (
    Begin,
    Cobegin,
    If,
    Program,
    Signal,
    Stmt,
    Wait,
    While,
    iter_statements,
)
from repro.staticlint.diagnostics import Diagnostic, make
from repro.staticlint.passes import LintContext, LintPass


@dataclass
class SemaphoreFacts:
    """Everything the analysis learned about one semaphore."""

    name: str
    initial: int
    #: Max waits a single execution can attempt (math.inf under loops).
    possible_waits: float
    #: Signals that are guaranteed to fire (never guarded, never
    #: preceded by a wait or a loop).
    guaranteed_signals: int
    #: Total signal occurrences in the text.
    signal_occurrences: int
    #: First wait statement (for diagnostics), if any.
    first_wait: Optional[Wait] = None
    #: Semaphores whose waits can precede a wait on this one.
    waited_before: Set[str] = field(default_factory=set)

    @property
    def balanced(self) -> bool:
        """True when every possible wait is covered by guaranteed tokens."""
        return self.possible_waits <= self.initial + self.guaranteed_signals


@dataclass
class StaticDeadlockReport:
    """Result of :func:`static_deadlock`.

    ``deadlock_free`` is a *proof*; ``may_deadlock`` is the
    conservative complement (it may be a false alarm, never a missed
    real deadlock).
    """

    facts: Dict[str, SemaphoreFacts]
    diagnostics: List[Diagnostic]
    cycles: List[Tuple[str, ...]]

    @property
    def may_deadlock(self) -> bool:
        """Conservatively, could any schedule starve a waiter?"""
        return any(not f.balanced for f in self.facts.values() if f.first_wait)

    @property
    def deadlock_free(self) -> bool:
        """True only when the balance proof succeeds for every semaphore."""
        return not self.may_deadlock

    def __repr__(self) -> str:
        verdict = "deadlock-free" if self.deadlock_free else "may deadlock"
        return f"<StaticDeadlockReport {verdict}, {len(self.facts)} semaphores>"


def _collect(stmt: Stmt, facts: Dict[str, SemaphoreFacts],
             guarded: bool, prefix_blocked: bool,
             waited: Set[str]) -> bool:
    """Walk ``stmt`` accumulating per-semaphore facts.

    ``guarded`` — an ``if``/``while`` ancestor exists; ``prefix_blocked``
    — a ``wait`` or loop precedes this statement in sequence; ``waited``
    — semaphores waited on earlier in this statement's sequential
    prefix (mutated only through copies).  Returns whether the subtree
    can block or diverge (contains a wait or a while).
    """
    if isinstance(stmt, Wait):
        f = facts[stmt.sem]
        f.possible_waits += 1
        if f.first_wait is None:
            f.first_wait = stmt
        f.waited_before |= waited - {stmt.sem}
        waited.add(stmt.sem)
        return True
    if isinstance(stmt, Signal):
        f = facts[stmt.sem]
        f.signal_occurrences += 1
        if not guarded and not prefix_blocked:
            f.guaranteed_signals += 1
        return False
    if isinstance(stmt, Begin):
        blocked = prefix_blocked
        inner_waited = set(waited)
        any_block = False
        for child in stmt.body:
            child_blocks = _collect(child, facts, guarded, blocked, inner_waited)
            blocked = blocked or child_blocks
            any_block = any_block or child_blocks
        waited |= inner_waited
        return any_block
    if isinstance(stmt, If):
        before_then: Dict[str, float] = {s: f.possible_waits for s, f in facts.items()}
        then_waited = set(waited)
        a = _collect(stmt.then_branch, facts, True, prefix_blocked, then_waited)
        after_then = {s: f.possible_waits for s, f in facts.items()}
        # rewind, walk the else branch, then take the per-semaphore max
        for s, f in facts.items():
            f.possible_waits = before_then.get(s, 0)
        b = False
        else_waited = set(waited)
        if stmt.else_branch is not None:
            b = _collect(stmt.else_branch, facts, True, prefix_blocked, else_waited)
        for s, f in facts.items():
            f.possible_waits = max(f.possible_waits, after_then.get(s, 0))
        waited |= then_waited | else_waited
        return a or b
    if isinstance(stmt, While):
        body_waited = set(waited)
        _collect(stmt.body, facts, True, True, body_waited)
        # any wait under a loop may repeat without bound
        for s in iter_statements(stmt.body):
            if isinstance(s, Wait):
                facts[s.sem].possible_waits = math.inf
        waited |= body_waited
        return True
    if isinstance(stmt, Cobegin):
        any_block = False
        arm_waiteds = []
        for branch in stmt.branches:
            arm_waited = set(waited)
            child_blocks = _collect(branch, facts, guarded, prefix_blocked, arm_waited)
            any_block = any_block or child_blocks
            arm_waiteds.append(arm_waited)
        for w in arm_waiteds:
            waited |= w
        return any_block
    return False  # Assign / Skip never block


def _cycles(facts: Dict[str, SemaphoreFacts]) -> List[Tuple[str, ...]]:
    """Cycles in the waited-before relation (wait-ordering cycles)."""
    graph = {s: sorted(f.waited_before) for s, f in facts.items()}
    cycles: List[Tuple[str, ...]] = []
    seen_cycles: Set[frozenset] = set()
    for root in sorted(graph):
        stack = [(root, (root,))]
        while stack:
            node, path = stack.pop()
            for nxt in graph.get(node, ()):
                if nxt == root and len(path) > 1:
                    key = frozenset(path)
                    if key not in seen_cycles:
                        seen_cycles.add(key)
                        cycles.append(path)
                elif nxt not in path and nxt > root:
                    stack.append((nxt, path + (nxt,)))
    return cycles


def static_deadlock(subject: Union[Program, Stmt]) -> StaticDeadlockReport:
    """Analyse ``subject`` without exploring interleavings.

    Semaphore initial values come from the declarations; bare
    statements default every semaphore to 0, matching the runtime.
    """
    program = subject if isinstance(subject, Program) else None
    stmt = subject.body if isinstance(subject, Program) else subject
    sems = {
        s.sem for s in iter_statements(stmt) if isinstance(s, (Wait, Signal))
    }
    declared_initials: Dict[str, int] = {}
    if program is not None:
        for d in program.decls:
            if d.kind == "semaphore":
                for name in d.names:
                    declared_initials[name] = d.initial
                    sems.add(name)

    facts = {
        s: SemaphoreFacts(
            name=s,
            initial=declared_initials.get(s, 0),
            possible_waits=0,
            guaranteed_signals=0,
            signal_occurrences=0,
        )
        for s in sorted(sems)
    }
    _collect(stmt, facts, guarded=False, prefix_blocked=False, waited=set())

    diagnostics: List[Diagnostic] = []
    for name, f in sorted(facts.items()):
        if f.first_wait is None or f.balanced:
            continue
        waits = "unbounded" if f.possible_waits == math.inf else int(f.possible_waits)
        extra = {
            "semaphore": name,
            "initial": f.initial,
            "possible_waits": -1 if waits == "unbounded" else waits,
            "guaranteed_signals": f.guaranteed_signals,
            "signal_occurrences": f.signal_occurrences,
        }
        if f.signal_occurrences == 0:
            diagnostics.append(make(
                "RPL101",
                f"semaphore '{name}' is waited on but never signalled "
                f"(initial value {f.initial} cannot cover {waits} possible "
                f"wait(s))",
                f.first_wait,
                pass_name="deadlock",
                hint=f"add a signal({name}) on every path that reaches this "
                     f"wait, or raise the initial value",
                extra=extra,
            ))
        else:
            diagnostics.append(make(
                "RPL102",
                f"semaphore '{name}': {waits} wait(s) possible but only "
                f"{f.guaranteed_signals} signal(s) guaranteed "
                f"(initial {f.initial}); a schedule may starve this wait",
                f.first_wait,
                pass_name="deadlock",
                hint="signals that are conditional, inside loops, or "
                     "sequenced after a wait are not guaranteed to fire",
                extra=extra,
            ))
    cycles = _cycles(facts)
    for cycle in cycles:
        involved = [facts[s] for s in cycle if facts[s].first_wait is not None]
        if not involved or all(f.balanced for f in involved):
            continue  # a balanced cycle cannot starve anyone
        anchor = involved[0].first_wait
        diagnostics.append(make(
            "RPL103",
            "semaphores are waited on in a cyclic order: "
            + " -> ".join(cycle + (cycle[0],)),
            anchor,
            pass_name="deadlock",
            hint="acquire semaphores in one global order to break the cycle",
            extra={"cycle": list(cycle)},
        ))
    return StaticDeadlockReport(facts, diagnostics, cycles)


class DeadlockPass(LintPass):
    """RPL1xx: conservative semaphore wait-for / imbalance analysis."""

    name = "deadlock"
    codes = ("RPL101", "RPL102", "RPL103")
    description = "static deadlock detection (polynomial, conservative)"

    def run(self, ctx: LintContext) -> List[Diagnostic]:
        """Run :func:`static_deadlock` against the context's program."""
        report = static_deadlock(
            ctx.program if ctx.program is not None else ctx.stmt
        )
        return report.diagnostics

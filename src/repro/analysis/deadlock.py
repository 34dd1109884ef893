"""Deadlock analysis via exhaustive exploration.

The language's only blocking construct is ``wait``, so a deadlock is
always a starved or cyclically-dependent semaphore wait.  This module
wraps the interleaving explorer to answer the questions the paper asks
of Figure 3 ("the program of Figure 3 cannot deadlock"): is any
deadlock reachable, and if so, under which schedule and with whom
blocked?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.lang.ast import Program, Stmt


from repro.runtime.eval import Value
from repro.runtime.explorer import explore
from repro.runtime.machine import Machine, Pid
from repro.runtime.scheduler import FixedScheduler


@dataclass(frozen=True)
class DeadlockWitness:
    """A reachable deadlock: the schedule into it and who is stuck."""

    schedule: Tuple[Pid, ...]
    blocked: Tuple[Pid, ...]
    store: Tuple[Tuple[str, Value], ...]

    def __str__(self) -> str:
        names = ", ".join("/".join(map(str, p)) or "root" for p in self.blocked)
        return (
            f"deadlock after {len(self.schedule)} steps; blocked: {names}; "
            f"store: {dict(self.store)}"
        )


@dataclass
class DeadlockReport:
    """Result of :func:`find_deadlock`."""

    deadlock_free: bool
    complete: bool
    witness: Optional[DeadlockWitness]
    states_visited: int

    def __repr__(self) -> str:
        verdict = "deadlock-free" if self.deadlock_free else "deadlock reachable"
        return f"<DeadlockReport {verdict}, complete={self.complete}>"


def find_deadlock(
    subject: Union[Program, Stmt],
    store: Optional[Dict[str, Value]] = None,
    max_states: int = 200_000,
    max_depth: int = 2_000,
) -> DeadlockReport:
    """Exhaustively search for a reachable deadlock.

    ``deadlock_free`` is conclusive only when ``complete`` is true
    (no exploration budget was hit).  The witness schedule is
    replayable; :func:`replay` drives a fresh machine into the
    reported state.
    """
    result = explore(subject, store=store, max_states=max_states, max_depth=max_depth)
    witness = None
    # Canonical order: the witness must not depend on set iteration
    # order, which varies with PYTHONHASHSEED across worker processes.
    for outcome in result.sorted_outcomes():
        if outcome.status != "deadlock":
            continue
        schedule = result.schedules[outcome]
        machine = replay(subject, schedule, store)
        witness = DeadlockWitness(
            tuple(schedule), tuple(machine.blocked_pids()), outcome.store
        )
        break
    return DeadlockReport(
        deadlock_free=witness is None,
        complete=result.complete,
        witness=witness,
        states_visited=result.states_visited,
    )


def replay(
    subject: Union[Program, Stmt],
    schedule: Sequence[Pid],
    store: Optional[Dict[str, Value]] = None,
) -> Machine:
    """Drive a fresh machine of ``subject`` through ``schedule``.

    The machine never mutates the AST, so the same subject can be
    re-executed any number of times.
    """
    machine = Machine(subject, store=store)
    scheduler = FixedScheduler(list(schedule), fallback="error")
    for _ in schedule:
        machine.step(scheduler.pick(machine))
    return machine

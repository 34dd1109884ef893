"""Top-level execution: run a program under a scheduler to completion.

:func:`run` drives a :class:`~repro.runtime.machine.Machine` until the
program finishes, deadlocks, or exhausts its step budget, and returns
an :class:`ExecutionResult` with the final store, the status, and
(optionally) the full event trace.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.errors import DeadlockError
from repro.lang.ast import Program, Stmt
from repro.runtime.eval import Value
from repro.runtime.machine import Event, Machine
from repro.runtime.scheduler import RoundRobinScheduler

#: Result statuses.
COMPLETED = "completed"
DEADLOCK = "deadlock"
STEP_LIMIT = "step-limit"


class ExecutionResult:
    """Outcome of one run."""

    def __init__(
        self,
        status: str,
        store: Dict[str, Value],
        steps: int,
        trace: Optional[List[Event]],
        machine: Machine,
    ):
        self.status = status
        self.store = store
        self.steps = steps
        self.trace = trace
        self.machine = machine

    @property
    def completed(self) -> bool:
        return self.status == COMPLETED

    @property
    def deadlocked(self) -> bool:
        return self.status == DEADLOCK

    def __repr__(self) -> str:
        return f"<ExecutionResult {self.status} after {self.steps} steps>"


def run(
    subject: Union[Program, Stmt],
    scheduler=None,
    store: Optional[Dict[str, Value]] = None,
    monitor=None,
    max_steps: int = 100_000,
    collect_trace: bool = False,
    on_deadlock: str = "return",
) -> ExecutionResult:
    """Execute ``subject`` and return the result.

    ``scheduler`` defaults to round-robin.  ``on_deadlock`` is
    ``"return"`` (report status ``"deadlock"``) or ``"raise"``
    (raise :class:`~repro.errors.DeadlockError`); step-limit exhaustion
    likewise reports status ``"step-limit"`` rather than raising, so
    callers can treat possible divergence as an observable outcome.
    """
    scheduler = scheduler or RoundRobinScheduler()
    machine = Machine(subject, store=store, monitor=monitor)
    trace: Optional[List[Event]] = [] if collect_trace else None
    steps = 0
    while not machine.done:
        if machine.deadlocked:
            if on_deadlock == "raise":
                raise DeadlockError(
                    "all live processes are blocked", machine.blocked_pids()
                )
            return ExecutionResult(DEADLOCK, dict(machine.store), steps, trace, machine)
        if steps >= max_steps:
            return ExecutionResult(STEP_LIMIT, dict(machine.store), steps, trace, machine)
        pid = scheduler.pick(machine)
        event = machine.step(pid)
        if trace is not None:
            trace.append(event)
        steps += 1
    return ExecutionResult(COMPLETED, dict(machine.store), steps, trace, machine)

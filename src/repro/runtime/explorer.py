"""Exhaustive interleaving exploration — a small model checker.

``explore`` walks every reachable interleaving of a program (DFS with
state memoization), collecting the set of distinct *outcomes*: final
stores of completed runs, deadlocked states, and depth cutoffs (which
flag possible divergence).  The paper argues operationally about what
parallel programs *can* transmit ("it could occur and would be
considered by CFM"); the explorer makes those possibility claims
executable — e.g. that Figure 3 is deadlock-free under every schedule
and always copies the zero-ness of ``x`` into ``y``.

State identity includes the attached monitor (if any), so label
evolution can be explored exhaustively too.

``explore(..., por=True)`` enables an independence-based partial-order
reduction: when some enabled process's next action has a variable
footprint disjoint from everything every *other* process may ever
touch, the two orders of any pair of such steps commute, so only one
representative interleaving is expanded from that state.  The
reduction preserves the outcome set exactly (see ``docs/pipeline.md``
for the argument) while visiting strictly fewer states on programs
with thread-local work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.errors import ExplorationLimitExceeded
from repro.observe.budget import DEADLINE_CHECK_EVERY, Budget
from repro.lang.ast import (
    Assign,
    If,
    Program,
    Signal,
    Stmt,
    Wait,
    While,
    expr_variables,
    used_variables,
)
from repro.runtime.eval import Value
from repro.runtime.machine import VALUE_SKETCH_BITS, Machine, Pid, format_value

#: Outcome statuses.
COMPLETED = "completed"
DEADLOCK = "deadlock"
CUTOFF = "cutoff"


def _json_value(value: Value) -> object:
    """A value as JSON can carry it: huge ints become sketch strings."""
    if (
        isinstance(value, int)
        and not isinstance(value, bool)
        and value.bit_length() > VALUE_SKETCH_BITS
    ):
        return format_value(value)
    return value


@dataclass(frozen=True)
class Outcome:
    """One terminal observation: a status plus the final store."""

    status: str
    store: Tuple[Tuple[str, Value], ...]

    def value(self, name: str) -> Value:
        for key, val in self.store:
            if key == name:
                return val
        raise KeyError(name)

    def project(self, names) -> "Outcome":
        """Restrict the store to ``names`` (an observer's view)."""
        keep = frozenset(names)
        return Outcome(self.status, tuple(kv for kv in self.store if kv[0] in keep))

    def sort_key(self) -> Tuple:
        """A total order on outcomes, stable across processes and runs.

        Serialization paths must never rely on set/dict iteration order
        (which varies with ``PYTHONHASHSEED``); sorting by this key
        makes any outcome listing canonical.
        """
        return (self.status, self.store)

    def to_dict(self) -> Dict[str, object]:
        """JSON shape: ``{"status": ..., "store": [[name, value], ...]}``.

        Integers past :data:`~repro.runtime.machine.VALUE_SKETCH_BITS`
        become magnitude-sketch strings — ``json.dumps`` shares
        CPython's int->str digit limit, and a value a bounded loop
        squared into megadigits would otherwise make the outcome
        unserializable.
        """
        return {
            "status": self.status,
            "store": [[k, _json_value(v)] for k, v in self.store],
        }

    def __str__(self) -> str:
        items = ", ".join(f"{k}={format_value(v)}" for k, v in self.store)
        return f"{self.status}({items})"


class ExplorationResult:
    """Everything ``explore`` learned."""

    def __init__(
        self,
        outcomes: FrozenSet[Outcome],
        states_visited: int,
        transitions: int,
        complete: bool,
        schedules: Dict[Outcome, Tuple[Pid, ...]],
        por: bool = False,
        abandoned: int = 0,
        limit: Optional[str] = None,
        elapsed_seconds: float = 0.0,
        reduced_states: int = 0,
        peak_processes: int = 0,
    ):
        self.outcomes = outcomes
        self.states_visited = states_visited
        self.transitions = transitions
        #: True when no budget limit truncated the exploration.
        self.complete = complete
        #: One witness schedule per outcome (replayable via FixedScheduler).
        self.schedules = dict(schedules)
        #: True when partial-order reduction was active for this run.
        self.por = por
        #: Frontier entries discarded when a limit fired (the popped
        #: state plus everything left on the stack) — the audit trail
        #: behind ``complete=False``.
        self.abandoned = abandoned
        #: Which budget fired: ``"states"``, ``"depth"``, ``"deadline"``
        #: or ``None`` when the exploration ran to exhaustion.
        self.limit = limit
        #: Wall-clock seconds the exploration took (volatile — never
        #: part of a deterministic document).
        self.elapsed_seconds = elapsed_seconds
        #: States at which the POR ample-set reduction actually fired.
        self.reduced_states = reduced_states
        #: Largest live process count in any visited state.
        self.peak_processes = peak_processes

    @property
    def degraded(self) -> bool:
        """True when a budget truncated the exploration (partial result)."""
        return not self.complete

    @property
    def completed_outcomes(self) -> FrozenSet[Outcome]:
        return frozenset(o for o in self.outcomes if o.status == COMPLETED)

    @property
    def deadlock_outcomes(self) -> FrozenSet[Outcome]:
        return frozenset(o for o in self.outcomes if o.status == DEADLOCK)

    @property
    def deadlock_free(self) -> bool:
        """No reachable deadlock (meaningful when ``complete``)."""
        return not self.deadlock_outcomes

    def final_values(self, name: str) -> Set[Value]:
        """All values ``name`` can hold at completion."""
        return {o.value(name) for o in self.completed_outcomes}

    def sorted_outcomes(self) -> List[Outcome]:
        """The outcomes in canonical order (see :meth:`Outcome.sort_key`)."""
        return sorted(self.outcomes, key=Outcome.sort_key)

    def __repr__(self) -> str:
        return (
            f"<ExplorationResult {len(self.outcomes)} outcomes, "
            f"{self.states_visited} states, complete={self.complete}>"
        )


def _action_footprint(head) -> FrozenSet[str]:
    """Variables the next atomic action of a process reads or writes.

    Semaphore operations count as read+write of the semaphore (a
    ``signal`` can enable a blocked ``wait``, so two operations on the
    same semaphore never commute).  ``skip`` touches nothing.
    """
    if isinstance(head, Assign):
        return expr_variables(head.expr) | {head.target}
    if isinstance(head, (If, While)):
        return expr_variables(head.cond)
    if isinstance(head, (Wait, Signal)):
        return frozenset((head.sem,))
    return frozenset()


class _Footprints:
    """POR footprints, memoized for one exploration.

    Every machine copy of one exploration shares the AST, so a
    statement's action footprint and a continuation's future footprint
    never change; each is computed once per ``explore`` call.
    """

    def __init__(self) -> None:
        self._actions: Dict[Stmt, FrozenSet[str]] = {}
        self._futures: Dict[Tuple, FrozenSet[str]] = {}
        self._statements: Dict[Stmt, FrozenSet[str]] = {}

    def action(self, head: Stmt) -> FrozenSet[str]:
        """``head``'s action footprint (see :func:`_action_footprint`)."""
        footprint = self._actions.get(head)
        if footprint is None:
            footprint = self._actions[head] = _action_footprint(head)
        return footprint

    def future(self, continuation: Tuple) -> FrozenSet[str]:
        """Every variable a process with ``continuation`` can touch.

        Every action a process (or any process it later spawns) can
        ever perform sits in the subtree of some statement currently on
        its continuation — loop bodies stay attached to their ``while``
        node and ``cobegin`` branches are children of the ``cobegin`` —
        so the statically collected variable set over-approximates the
        process's entire future footprint.
        """
        footprint = self._futures.get(continuation)
        if footprint is None:
            names: Set[str] = set()
            for item in continuation:
                if isinstance(item, Stmt):
                    used = self._statements.get(item)
                    if used is None:
                        used = self._statements[item] = used_variables(item)
                    names |= used
            footprint = self._futures[continuation] = frozenset(names)
        return footprint


def _ample(machine: Machine, enabled: List[Pid], footprints: _Footprints) -> List[Pid]:
    """Pick a sound subset of ``enabled`` to expand (POR step).

    If some enabled process's next action touches only variables no
    other live process can ever touch again, that action commutes with
    every other-process action in any future schedule, and a maximal
    run reaching a terminal state must eventually perform it (it can
    never be disabled, and completion/deadlock both require this
    process to move).  Expanding only that process therefore preserves
    the exact set of completed and deadlocked outcomes.  When no such
    process exists, the full enabled set is returned (no reduction).
    """
    future = {
        pid: footprints.future(proc.continuation)
        for pid, proc in machine.processes.items()
    }
    for pid in enabled:
        action = footprints.action(machine.processes[pid].continuation[0])
        if all(
            action.isdisjoint(fp)
            for other, fp in future.items()
            if other != pid
        ):
            return [pid]
    return enabled


def _schedule(link) -> Tuple[Pid, ...]:
    """The witness schedule a parent-linked ``(pid, parent)`` chain spells."""
    pids = []
    while link is not None:
        pid, link = link
        pids.append(pid)
    pids.reverse()
    return tuple(pids)


def explore(
    subject: Union[Program, Stmt],
    store: Optional[Dict[str, Value]] = None,
    monitor=None,
    max_states: int = 200_000,
    max_depth: int = 2_000,
    on_limit: str = "mark",
    por: bool = False,
    budget: Optional[Budget] = None,
    emitter=None,
) -> ExplorationResult:
    """Explore every interleaving of ``subject``.

    ``monitor`` (optional) is copied along each branch, so e.g. a
    :class:`~repro.runtime.taint.TaintMonitor` can be exhaustively
    checked.  ``max_states`` bounds distinct states; ``max_depth``
    bounds schedule length (hitting it records a ``cutoff`` outcome —
    evidence of possible divergence).  ``on_limit`` is ``"mark"``
    (record incompleteness in the result) or ``"raise"``.

    ``budget`` (a :class:`repro.observe.Budget`) unifies the limits:
    its non-``None`` fields override ``max_states``/``max_depth``, and
    its ``deadline`` bounds wall-clock time.  Hitting any limit under
    ``on_limit="mark"`` returns the partial result *flagged degraded*
    (``complete=False``, ``limit`` naming the budget that fired,
    ``abandoned`` counting the discarded frontier) — never an
    exception.  ``emitter`` (a :class:`repro.observe.TraceEmitter`)
    receives one ``explore`` span with the run's counters.

    ``por=True`` enables the independence-based partial-order
    reduction (see :func:`_ample`): same outcome set, usually fewer
    states.  A machine with a monitor attached is never reduced —
    monitor snapshots can distinguish interleavings that the store
    cannot, so commuting steps would not be outcome-preserving.
    """
    if budget is not None:
        if budget.max_states is not None:
            max_states = budget.max_states
        if budget.max_depth is not None:
            max_depth = budget.max_depth
    clock = (budget or Budget()).start()
    has_deadline = budget is not None and budget.deadline is not None
    started = time.perf_counter()

    root = Machine(subject, store=store, monitor=monitor)
    reduce = por and monitor is None
    footprints = _Footprints()
    visited: Set[Tuple] = set()
    outcomes: Set[Outcome] = set()
    schedules: Dict[Outcome, Tuple[Pid, ...]] = {}
    states_visited = 0
    transitions = 0
    reduced_states = 0
    peak_processes = 0
    complete = True
    limit: Optional[str] = None
    abandoned = 0

    def record(status: str, machine: Machine, link) -> None:
        outcome = Outcome(status, tuple(sorted(machine.store.items())))
        if outcome not in outcomes:
            outcomes.add(outcome)
            schedules[outcome] = _schedule(link)

    # Each frontier entry carries its witness schedule as a
    # parent-linked ``(pid, parent)`` chain plus its length, so a
    # transition costs O(1) however deep the exploration goes.
    stack: List[Tuple[Machine, Optional[Tuple], int]] = [(root, None, 0)]
    while stack:
        machine, link, depth = stack.pop()
        seen = len(visited)
        visited.add(machine.snapshot())
        if len(visited) == seen:
            continue
        if states_visited >= max_states:
            # The budget is spent *before* this new state is counted,
            # so the result reports exactly ``max_states`` states.
            if on_limit == "raise":
                raise ExplorationLimitExceeded(
                    f"more than {max_states} distinct states"
                )
            complete = False
            limit = "states"
            abandoned = len(stack) + 1
            break
        if (
            has_deadline
            and states_visited % DEADLINE_CHECK_EVERY == 0
            and clock.expired()
        ):
            if on_limit == "raise":
                raise ExplorationLimitExceeded(
                    f"deadline of {budget.deadline}s exceeded"
                )
            complete = False
            limit = "deadline"
            abandoned = len(stack) + 1
            break
        states_visited += 1
        if len(machine.processes) > peak_processes:
            peak_processes = len(machine.processes)
        if machine.done:
            record(COMPLETED, machine, link)
            continue
        enabled = machine.enabled()
        if not enabled:
            record(DEADLOCK, machine, link)
            continue
        if depth >= max_depth:
            if on_limit == "raise":
                raise ExplorationLimitExceeded(f"schedule longer than {max_depth}")
            record(CUTOFF, machine, link)
            complete = False
            if limit is None:
                limit = "depth"
            continue
        if reduce and len(enabled) > 1:
            ample = _ample(machine, enabled, footprints)
            if len(ample) < len(enabled):
                reduced_states += 1
            enabled = ample
        last = len(enabled) - 1
        for i, pid in enumerate(enabled):
            # The last branch may reuse the machine instead of copying.
            branch = machine if i == last else machine.copy()
            branch.advance(pid)
            transitions += 1
            stack.append((branch, (pid, link), depth + 1))
    elapsed = time.perf_counter() - started
    result = ExplorationResult(
        frozenset(outcomes), states_visited, transitions, complete, schedules,
        por=reduce,
        abandoned=abandoned,
        limit=limit,
        elapsed_seconds=elapsed,
        reduced_states=reduced_states,
        peak_processes=peak_processes,
    )
    if emitter is not None:
        emitter.span(
            "explore",
            elapsed,
            states=states_visited,
            transitions=transitions,
            outcomes=len(outcomes),
            complete=complete,
            limit=limit,
            abandoned=abandoned,
            por=reduce,
            reduced_states=reduced_states,
        )
    return result

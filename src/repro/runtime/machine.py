"""The small-step concurrent machine.

A :class:`Machine` executes a program as a tree of processes.  Each
scheduler-visible step of a process performs exactly one of the paper's
indivisible actions:

* an assignment (expression evaluation + store, atomically);
* a condition evaluation (of an ``if`` or ``while``);
* a ``wait`` (only enabled while the semaphore is positive);
* a ``signal``;
* a ``skip``.

Everything else is *structural* and costs no step: ``begin`` blocks
unfold into their children, ``cobegin`` spawns child processes (the
parent blocks until all children finish), and branch-exit markers
maintain the dynamic label monitor's context stack.

Process identifiers are hierarchical tuples — the root is ``()``, the
``i``-th branch of a ``cobegin`` spawned by process ``p`` is
``p + (i,)`` — so identifiers are deterministic regardless of the
interleaving, which keeps state snapshots canonical for the explorer.

Each process is an immutable :class:`Process` record: a step replaces
the process's table entry instead of mutating it, so :meth:`Machine.copy`
shares every record and copies only the table, the store and the
monitor.  The table is kept in pid order (it is re-sorted only when a
``cobegin`` adds pids), so :meth:`Machine.enabled` and
:meth:`Machine.snapshot` never sort it.  :meth:`Machine.advance` makes a
transition; :meth:`Machine.step` makes the same transition and also
returns an :class:`Event` describing it, for traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.errors import RuntimeFault, SemaphoreError
from repro.lang.ast import (
    Assign,
    Begin,
    Cobegin,
    If,
    Program,
    Signal,
    Skip,
    Stmt,
    Wait,
    While,
    used_variables,
)
from repro.runtime.eval import Value, evaluate

Pid = Tuple[int, ...]

#: Integers wider than this render as a magnitude sketch instead of
#: full digits.  CPython refuses int->str conversions past
#: ``sys.get_int_max_str_digits()`` (default 4300 digits, ~14k bits),
#: and a bounded loop can square a value past that in ~14 iterations —
#: so eager ``repr`` in event details would crash a legal program.
VALUE_SKETCH_BITS = 4096


def format_value(value: object) -> str:
    """Render a store value for traces/serialization in bounded work."""
    if isinstance(value, int) and not isinstance(value, bool):
        bits = value.bit_length()
        if bits > VALUE_SKETCH_BITS:
            sign = "-" if value < 0 else ""
            return f"{sign}<int:{bits} bits>"
    return repr(value)


class _PopLocal:
    """Structural marker: leave the innermost branch context."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<pop-local>"


POP_LOCAL = _PopLocal()

ContItem = Union[Stmt, _PopLocal]


class Process(NamedTuple):
    """One process: join bookkeeping plus a continuation (immutable).

    The field order makes a record compare and hash like the tuple the
    explorer's state snapshots are built from.
    """

    pid: Pid
    status: str  # ready | joining | done
    pending_children: int
    continuation: Tuple[ContItem, ...]

    def head(self) -> Optional[ContItem]:
        return self.continuation[0] if self.continuation else None


@dataclass(frozen=True)
class Event:
    """One executed atomic action, for traces."""

    pid: Pid
    kind: str  # assign | skip | branch | loop | wait | signal
    stmt: Stmt
    detail: str

    def __str__(self) -> str:
        name = "/".join(map(str, self.pid)) or "root"
        return f"[{name}] {self.kind}: {self.detail}"


class Machine:
    """Executable state of one program run.

    ``subject`` may be a :class:`Program` (its declarations provide the
    initial store) or a bare statement (every used variable defaults to
    0 unless ``store`` overrides it).  ``monitor`` is an optional
    dynamic label monitor (see :mod:`repro.runtime.taint`) notified of
    every action.
    """

    def __init__(
        self,
        subject: Union[Program, Stmt],
        store: Optional[Dict[str, Value]] = None,
        monitor=None,
    ):
        if isinstance(subject, Program):
            from repro.lang.procs import resolve_subject

            subject, _ = resolve_subject(subject)
            body = subject.body
            initial: Dict[str, Value] = subject.initial_values()
        else:
            body = subject
            initial = {name: 0 for name in used_variables(subject)}
        if store:
            initial.update(store)
        self.subject = subject
        self.store: Dict[str, Value] = initial
        self.monitor = monitor
        #: The process table, kept in pid order.
        self.processes: Dict[Pid, Process] = {}
        self.steps_taken = 0
        #: Largest live process count this run (or lineage) has seen —
        #: the machine-level half of the observability layer's
        #: concurrency metrics (see :mod:`repro.observe`).
        self.peak_processes = 1
        self._settle((), (body,))

    # -- queries -----------------------------------------------------------

    def enabled(self) -> List[Pid]:
        """Processes that can take a step right now, in pid order."""
        out = []
        for pid, proc in self.processes.items():
            if proc.status != "ready":
                continue
            head = proc.continuation[0]
            if isinstance(head, Wait) and self._sem_value(head.sem) <= 0:
                continue
            out.append(pid)
        return out

    @property
    def done(self) -> bool:
        """True when the root process has finished."""
        return self.processes[()].status == "done"

    @property
    def deadlocked(self) -> bool:
        """True when unfinished but no process can step.

        With the language's only blocking construct being ``wait``,
        this means every live process sits on a zero semaphore (or
        joins children that do).
        """
        return not self.done and not self.enabled()

    def blocked_pids(self) -> List[Pid]:
        """Live, unfinished processes that cannot currently step."""
        enabled = set(self.enabled())
        return [
            pid
            for pid, proc in self.processes.items()
            if proc.status == "ready" and pid not in enabled
        ]

    def _sem_value(self, name: str) -> int:
        value = self.store.get(name, 0)
        if isinstance(value, bool) or not isinstance(value, int):
            raise SemaphoreError(f"semaphore {name!r} holds non-integer {value!r}")
        return value

    # -- stepping ------------------------------------------------------------

    def step(self, pid: Pid) -> Event:
        """Execute one atomic action of process ``pid`` and describe it."""
        proc = self.processes.get(pid)
        taken = self.advance(pid)
        head = proc.continuation[0]  # the record predates the step
        if isinstance(head, Assign):
            value = format_value(self.store[head.target])
            return Event(pid, "assign", head, f"{head.target} := {value}")
        if isinstance(head, If):
            return Event(pid, "branch", head, f"if -> {taken}")
        if isinstance(head, While):
            detail = "while -> enter body" if taken else "while -> exit"
            return Event(pid, "loop", head, detail)
        if isinstance(head, Wait):
            return Event(pid, "wait", head, f"wait({head.sem})")
        if isinstance(head, Signal):
            return Event(pid, "signal", head, f"signal({head.sem})")
        return Event(pid, "skip", head, "skip")

    def advance(self, pid: Pid) -> Optional[bool]:
        """Execute one atomic action of process ``pid``.

        The transition :meth:`step` makes, without building its
        :class:`Event`.  Returns the decision of a condition evaluation
        (``if``/``while``), ``None`` for any other action.
        """
        proc = self.processes.get(pid)
        if proc is None or proc.status != "ready":
            raise RuntimeFault(f"process {pid!r} cannot step (not ready)")
        continuation = proc.continuation
        if not continuation:  # settling keeps this impossible
            raise RuntimeFault(f"process {pid!r} has an empty continuation")
        head = continuation[0]
        rest = continuation[1:]
        monitor = self.monitor
        taken = None

        if isinstance(head, Assign):
            if monitor is not None:
                monitor.on_assign(pid, head.target, head.expr)
            self.store[head.target] = evaluate(head.expr, self.store)
        elif isinstance(head, Skip):
            pass
        elif isinstance(head, If):
            taken = bool(evaluate(head.cond, self.store))
            if monitor is not None:
                monitor.on_branch(pid, head.cond)
            branch = head.then_branch if taken else head.else_branch
            push = (POP_LOCAL,) if branch is None else (branch, POP_LOCAL)
            rest = push + rest
        elif isinstance(head, While):
            taken = bool(evaluate(head.cond, self.store))
            if monitor is not None:
                monitor.on_loop_eval(pid, head.cond, taken)
            if taken:
                # Keep the while node on the continuation after the body.
                rest = (head.body, POP_LOCAL) + continuation
        elif isinstance(head, Wait):
            value = self._sem_value(head.sem)
            if value <= 0:
                raise RuntimeFault(f"process {pid!r} is blocked on wait({head.sem})")
            if monitor is not None:
                monitor.on_wait(pid, head.sem)
            self.store[head.sem] = value - 1
        elif isinstance(head, Signal):
            if monitor is not None:
                monitor.on_signal(pid, head.sem)
            self.store[head.sem] = self._sem_value(head.sem) + 1
        else:
            raise RuntimeFault(f"unexpected continuation head {head!r}")
        self._settle(pid, rest)
        self.steps_taken += 1
        return taken

    def _settle(self, pid: Pid, continuation: Tuple[ContItem, ...]) -> None:
        """Store process ``pid`` with ``continuation``, first unfolding
        structural items until an atomic action heads it (or the
        process finishes or starts joining)."""
        while continuation:
            head = continuation[0]
            if head is POP_LOCAL:
                if self.monitor is not None:
                    self.monitor.on_pop_local(pid)
                continuation = continuation[1:]
            elif isinstance(head, Begin):
                continuation = tuple(head.body) + continuation[1:]
            elif isinstance(head, Cobegin):
                self._spawn(pid, head, continuation[1:])
                return
            else:
                self.processes[pid] = Process(pid, "ready", 0, continuation)
                return
        self.processes[pid] = Process(pid, "done", 0, ())
        self._notify_parent(pid)

    def _spawn(self, pid: Pid, cobegin: Cobegin, rest: Tuple[ContItem, ...]) -> None:
        branches = cobegin.branches
        self.processes[pid] = Process(pid, "joining", len(branches), rest)
        children = [pid + (i,) for i in range(len(branches))]
        for child, branch in zip(children, branches):
            self.processes[child] = Process(child, "ready", 0, (branch,))
        # The only place new pids appear: restore pid order.
        self.processes = dict(sorted(self.processes.items()))
        if self.monitor is not None:
            self.monitor.on_spawn(pid, children)
        if len(self.processes) > self.peak_processes:
            self.peak_processes = len(self.processes)
        for child, branch in zip(children, branches):
            self._settle(child, (branch,))

    def _notify_parent(self, child: Pid) -> None:
        if not child:
            return  # the root has no parent
        pid = child[:-1]
        parent = self.processes[pid]
        if parent.status != "joining":  # pragma: no cover - invariant
            raise RuntimeFault(f"child {child!r} finished but parent is not joining")
        if self.monitor is not None:
            self.monitor.on_child_done(pid, child)
        if parent.pending_children > 1:
            self.processes[pid] = Process(
                pid, "joining", parent.pending_children - 1, parent.continuation
            )
            return
        if self.monitor is not None:
            self.monitor.on_join(pid)
        # Children have terminated; drop their table entries so the
        # snapshot space stays small and pids can be reused by a later
        # cobegin in the same parent.
        for other in list(self.processes):
            if other != pid and other[: len(pid)] == pid:
                del self.processes[other]
        self._settle(pid, parent.continuation)

    def stats(self) -> Dict[str, int]:
        """Volatile run counters (steps, live and peak process counts).

        The shape feeds the observability layer's trace records; it is
        never part of a deterministic result document.
        """
        return {
            "steps_taken": self.steps_taken,
            "live_processes": len(self.processes),
            "peak_processes": self.peak_processes,
        }

    # -- snapshots and copies ---------------------------------------------------

    def snapshot(self) -> Tuple:
        """A hashable canonical state (store + live process table + monitor)."""
        return (
            tuple(sorted(self.store.items())),
            tuple(self.processes.values()),
            self.monitor.snapshot() if self.monitor is not None else None,
        )

    def copy(self) -> "Machine":
        """An independent copy (shared AST and process records; copied
        store, process table and monitor)."""
        clone = object.__new__(Machine)
        clone.subject = self.subject
        clone.store = dict(self.store)
        clone.monitor = self.monitor.copy() if self.monitor is not None else None
        clone.processes = dict(self.processes)
        clone.steps_taken = self.steps_taken
        clone.peak_processes = self.peak_processes
        return clone

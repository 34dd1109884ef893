"""Runtime enforcement of information policies.

The paper's conclusion calls for mechanisms "to ensure information
security when object classifications can change dynamically".  This
module provides the execution-time counterpart of certification: an
:class:`EnforcingMonitor` that tracks dynamic classes exactly like
:class:`~repro.runtime.taint.TaintMonitor` but *refuses* — by raising
:class:`SecurityViolation` — any action that would drive a variable's
current class above its policy bound, in the style of Fenton's
memoryless subsystems [4] and Denning's run-time class-binding
discussion.

Two modes:

* ``mode="block"`` — raise on the offending action, leaving the store
  untouched for that action (the run is abandoned mid-way; the store
  reflects everything before the violation);
* ``mode="log"`` — permit the action but record the event, useful for
  auditing how a rejected program actually misbehaves.

The classic limitation of purely dynamic enforcement is also honest
here and pinned by tests: an implicit flow through an *untaken* branch
(``if h = 0 then y := 1`` with ``h != 0``) never executes an action and
thus is never blocked, while CFM rejects the program statically — the
reason the paper pursues compile-time certification in the first
place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.binding import StaticBinding
from repro.core.policy import PolicySpec
from repro.errors import ReproError
from repro.lang.ast import Expr
from repro.lattice.base import Element
from repro.runtime.machine import Pid
from repro.runtime.taint import TaintMonitor


class SecurityViolation(ReproError):
    """An action would have moved information above its policy bound."""

    def __init__(self, message: str, variable: str, cls: Element, bound: Element):
        super().__init__(message)
        self.variable = variable
        self.cls = cls
        self.bound = bound


@dataclass(frozen=True)
class BlockedAction:
    """Audit record of one (attempted) violating action."""

    pid: Pid
    kind: str  # assign | wait | signal
    variable: str
    cls: Element
    bound: Element

    def __str__(self) -> str:
        name = "/".join(map(str, self.pid)) or "root"
        return (
            f"[{name}] {self.kind} would set class({self.variable}) = "
            f"{self.cls!r} above {self.bound!r}"
        )


class EnforcingMonitor(TaintMonitor):
    """A taint monitor that enforces per-variable upper bounds.

    ``policy`` bounds each variable's dynamic class; actions that would
    exceed a bound raise :class:`SecurityViolation` (``mode="block"``)
    or are recorded (``mode="log"``).
    """

    def __init__(self, policy: PolicySpec, initial, mode: str = "block"):
        super().__init__(policy.scheme, initial)
        if mode not in ("block", "log"):
            raise ReproError(f"mode must be 'block' or 'log', got {mode!r}")
        self.policy = policy
        self.mode = mode
        self.blocked: List[BlockedAction] = []

    @staticmethod
    def from_binding(
        binding: StaticBinding, variables, mode: str = "block"
    ) -> "EnforcingMonitor":
        """Enforce the policy assertion of a static binding (Definition 6).

        Variables start at their bindings, like the plain monitor.
        """
        initial = {name: binding.of_var(name) for name in variables}
        return EnforcingMonitor(PolicySpec.from_binding(binding), initial, mode)

    # ------------------------------------------------------------------

    def _guard(self, pid: Pid, kind: str, variable: str, cls: Element) -> None:
        bound = self.policy.bounds.get(variable)
        if bound is None or self.scheme.leq(cls, bound):
            return
        record = BlockedAction(pid, kind, variable, cls, bound)
        self.blocked.append(record)
        if self.mode == "block":
            raise SecurityViolation(str(record), variable, cls, bound)

    def on_assign(self, pid: Pid, target: str, expr: Expr) -> None:
        cls = self.scheme.join(self.expr_label(expr), self._context(pid))
        self._guard(pid, "assign", target, cls)
        super().on_assign(pid, target, expr)

    def on_signal(self, pid: Pid, sem: str) -> None:
        cls = self.scheme.join(self.state.cls(sem), self._context(pid))
        self._guard(pid, "signal", sem, cls)
        super().on_signal(pid, sem)

    def on_wait(self, pid: Pid, sem: str) -> None:
        cls = self.scheme.join(self.state.cls(sem), self._context(pid))
        self._guard(pid, "wait", sem, cls)
        super().on_wait(pid, sem)

    # ------------------------------------------------------------------

    def copy(self) -> "EnforcingMonitor":
        clone = super().copy()
        clone.policy = self.policy
        clone.mode = self.mode
        clone.blocked = list(self.blocked)
        return clone

    def snapshot(self):
        return super().snapshot() + (len(self.blocked),)

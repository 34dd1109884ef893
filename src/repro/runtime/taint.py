"""Dynamic label tracking — a runtime mirror of the flow logic.

The monitor maintains an :class:`~repro.core.policy.InformationState`
(Definition 2: the current class of every variable) and, per process,
the runtime counterparts of the certification variables:

* a *local context stack* — one entry per entered ``if``/``while``
  body, holding the guard's class (popped on exit);
* a monotone *global label* — raised by loop-guard evaluations
  (conditional termination) and by completed ``wait`` operations
  (conditional delay), exactly the two sources of global flows the
  paper identifies.

Label propagation follows the Figure 1 axioms:

* assignment:      ``class(x) := class(e) (+) local (+) global``
* signal:          ``class(sem) (+)= local (+) global``
* wait:            ``class(sem) (+)= local (+) global`` and
                   ``global (+)= class(sem) (+) local`` (old class)
* loop evaluation: ``global (+)= class(e) (+) local``
* spawn:           children inherit the parent's contexts
* join:            the parent's global absorbs each child's global

For a CFM-certified program the dynamic class of every variable stays
below its static binding at all times — an empirical soundness check
exercised heavily in the test suite and benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.core.binding import StaticBinding
from repro.core.policy import InformationState, PolicySpec
from repro.errors import RuntimeFault
from repro.lang.ast import Expr, expr_variables
from repro.lattice.base import Element, Lattice
from repro.runtime.machine import Pid


class TaintMonitor:
    """Attachable dynamic label monitor (see :class:`~repro.runtime.machine.Machine`)."""

    def __init__(self, scheme: Lattice, initial: Mapping[str, Element]):
        self.scheme = scheme
        self.state = InformationState(scheme, initial)
        self._locals: Dict[Pid, Tuple[Element, ...]] = {(): ()}
        self._globals: Dict[Pid, Element] = {(): scheme.bottom}

    @staticmethod
    def from_binding(binding: StaticBinding, variables) -> "TaintMonitor":
        """Start every variable at its static binding.

        The natural initial information state: each variable initially
        holds information of exactly its own class.
        """
        initial = {name: binding.of_var(name) for name in variables}
        return TaintMonitor(binding.scheme, initial)

    # -- context helpers -----------------------------------------------------

    def _stack(self, pid: Pid) -> Tuple[Element, ...]:
        try:
            return self._locals[pid]
        except KeyError:
            raise RuntimeFault(f"monitor has no context for process {pid!r}") from None

    def local_label(self, pid: Pid) -> Element:
        """The runtime ``local``: join of the context stack."""
        return self.scheme.join_all(self._stack(pid))

    def global_label(self, pid: Pid) -> Element:
        """The runtime ``global`` of the process."""
        return self._globals[pid]

    def expr_label(self, expr: Expr) -> Element:
        """The current class of an expression (Definition 2)."""
        labels = [self.state.cls(name) for name in expr_variables(expr)]
        return self.scheme.join_all(labels)

    def _context(self, pid: Pid) -> Element:
        return self.scheme.join(self.local_label(pid), self._globals[pid])

    # -- machine callbacks ------------------------------------------------------

    def on_assign(self, pid: Pid, target: str, expr: Expr) -> None:
        self.state.set_cls(
            target, self.scheme.join(self.expr_label(expr), self._context(pid))
        )

    def on_branch(self, pid: Pid, cond: Expr) -> None:
        self._locals[pid] = self._stack(pid) + (self.expr_label(cond),)

    def on_loop_eval(self, pid: Pid, cond: Expr, taken: bool) -> None:
        guard = self.scheme.join(self.expr_label(cond), self.local_label(pid))
        self._globals[pid] = self.scheme.join(self._globals[pid], guard)
        if taken:
            self._locals[pid] = self._stack(pid) + (self.expr_label(cond),)

    def on_pop_local(self, pid: Pid) -> None:
        stack = self._stack(pid)
        if not stack:
            raise RuntimeFault(f"monitor local stack underflow in {pid!r}")
        self._locals[pid] = stack[:-1]

    def on_wait(self, pid: Pid, sem: str) -> None:
        old_sem = self.state.cls(sem)
        context = self._context(pid)
        # global (+)= sem (+) local (old values); sem (+)= local (+) global.
        self._globals[pid] = self.scheme.join(
            self._globals[pid], self.scheme.join(old_sem, self.local_label(pid))
        )
        self.state.set_cls(sem, self.scheme.join(old_sem, context))

    def on_signal(self, pid: Pid, sem: str) -> None:
        self.state.raise_cls(sem, self._context(pid))

    def on_spawn(self, pid: Pid, children: List[Pid]) -> None:
        for child in children:
            self._locals[child] = self._locals[pid]
            self._globals[child] = self._globals[pid]

    def on_child_done(self, parent: Pid, child: Pid) -> None:
        self._globals[parent] = self.scheme.join(
            self._globals[parent], self._globals[child]
        )
        self._locals.pop(child, None)
        self._globals.pop(child, None)

    def on_join(self, parent: Pid) -> None:
        """All children joined; nothing further (absorption happened per child)."""

    # -- results -----------------------------------------------------------------

    def violations(self, binding: StaticBinding) -> List[Tuple[str, Element, Element]]:
        """Variables whose current class exceeds the binding (Definition 6)."""
        return PolicySpec.from_binding(binding).check(self.state)

    def respects(self, binding: StaticBinding) -> bool:
        """True iff no variable's current class exceeds its binding."""
        return not self.violations(binding)

    # -- snapshot / copy (for the explorer) -----------------------------------------

    def snapshot(self) -> Tuple:
        return (
            tuple(sorted(self.state.as_dict().items(), key=lambda kv: kv[0])),
            tuple(sorted(self._locals.items())),
            tuple(sorted(self._globals.items())),
        )

    def copy(self) -> "TaintMonitor":
        clone = object.__new__(type(self))
        clone.scheme = self.scheme
        clone.state = self.state.copy()
        clone._locals = dict(self._locals)
        clone._globals = dict(self._globals)
        return clone

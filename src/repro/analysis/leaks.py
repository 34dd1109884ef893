"""Concrete leak witnesses.

CFM is conservative: rejection means "the program *specifies* a flow
that the binding forbids", not that every run leaks.  This module
searches for a concrete demonstration: initial stores differing only in
a high variable whose exhaustively explored observable outcomes differ.
When it succeeds, the rejection was no false alarm; when it fails (as
it must for the section 5.2 program, whose assignment of a constant is
only formally a flow), the gap between CFM and the flow logic is on
display.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Union

from repro.core.binding import StaticBinding
from repro.lang.ast import Program, Stmt, used_variables
from repro.lattice.base import Element
from repro.runtime.eval import Value
from repro.runtime.explorer import Outcome
from repro.runtime.noninterference import check_noninterference, observable_variables


@dataclass(frozen=True)
class LeakWitness:
    """Evidence that high inputs influence observer-visible outcomes."""

    observer: Element
    variable: str  # the varied high variable
    value_a: Value
    value_b: Value
    outcome: Outcome  # observable outcome possible for value_a, not value_b
    low_variables: FrozenSet[str]

    def __str__(self) -> str:
        return (
            f"observer {self.observer!r} distinguishes {self.variable}="
            f"{self.value_a} from {self.variable}={self.value_b}: "
            f"outcome {self.outcome} occurs only for the former"
        )


def find_leak(
    subject: Union[Program, Stmt],
    binding: StaticBinding,
    observer: Element,
    values: Sequence[Value] = (0, 1, 2),
    base_store: Optional[Dict[str, Value]] = None,
    max_states: int = 100_000,
    max_depth: int = 1_000,
) -> Optional[LeakWitness]:
    """Search for a leak visible to ``observer``.

    Tries, for each variable bound above the observer, each pair of
    candidate ``values``, comparing exhaustive observable-outcome sets.
    Returns the first witness found, or ``None``.
    """
    stmt = subject.body if isinstance(subject, Program) else subject
    low_vars = observable_variables(stmt, binding, observer)
    high_vars = sorted(used_variables(stmt) - low_vars)
    for name in high_vars:
        for i, a in enumerate(values):
            for bval in values[i + 1 :]:
                result = check_noninterference(
                    subject,
                    binding,
                    observer,
                    variations=[{name: a}, {name: bval}],
                    base_store=base_store,
                    max_states=max_states,
                    max_depth=max_depth,
                )
                if not result.holds:
                    i_, j_, outcome = result.witness()
                    va, vb = (a, bval) if i_ == 0 else (bval, a)
                    return LeakWitness(
                        observer, name, va, vb, outcome, result.low_variables
                    )
    return None

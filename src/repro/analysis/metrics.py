"""Program shape statistics (used by benchmarks and reports)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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
    iter_statements,
    max_nesting,
    program_size,
    used_variables,
)


@dataclass(frozen=True)
class ProgramMetrics:
    """Counts of each statement form plus aggregate shape numbers."""

    statements: int
    assignments: int
    ifs: int
    whiles: int
    begins: int
    cobegins: int
    waits: int
    signals: int
    skips: int
    variables: int
    max_nesting: int
    max_cobegin_width: int

    @property
    def has_concurrency(self) -> bool:
        return self.cobegins > 0 or self.waits > 0 or self.signals > 0

    @property
    def has_global_flows(self) -> bool:
        """Syntactic criterion: flow(S) != nil iff a while or wait occurs."""
        return self.whiles > 0 or self.waits > 0

    def __str__(self) -> str:
        return (
            f"{self.statements} statements "
            f"(:= {self.assignments}, if {self.ifs}, while {self.whiles}, "
            f"begin {self.begins}, cobegin {self.cobegins}, "
            f"wait {self.waits}, signal {self.signals}, skip {self.skips}); "
            f"{self.variables} variables, nesting {self.max_nesting}, "
            f"widest cobegin {self.max_cobegin_width}"
        )


def measure(subject: Union[Program, Stmt]) -> ProgramMetrics:
    """Compute :class:`ProgramMetrics` for a program or statement."""
    stmt = subject.body if isinstance(subject, Program) else subject
    counts = {cls: 0 for cls in (Assign, If, While, Begin, Cobegin, Wait, Signal, Skip)}
    widest = 0
    for node in iter_statements(stmt):
        counts[type(node)] += 1
        if isinstance(node, Cobegin):
            widest = max(widest, len(node.branches))
    return ProgramMetrics(
        statements=program_size(stmt),
        assignments=counts[Assign],
        ifs=counts[If],
        whiles=counts[While],
        begins=counts[Begin],
        cobegins=counts[Cobegin],
        waits=counts[Wait],
        signals=counts[Signal],
        skips=counts[Skip],
        variables=len(used_variables(stmt)),
        max_nesting=max_nesting(stmt),
        max_cobegin_width=widest,
    )

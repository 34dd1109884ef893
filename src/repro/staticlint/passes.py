"""Lint-pass infrastructure: the shared context and the pass registry.

A pass is a :class:`LintPass` subclass with a stable ``name``, the
code family it owns, and a ``run(ctx)`` returning diagnostics.  All
passes share one :class:`LintContext`, which builds the program's one
CFG and every fact the passes read (reachable nodes, used names,
kinds, semaphores, initial values, shared names) when it is made, so
no pass repeats a walk of the program, keeping ``repro lint``
polynomial end to end — the whole point of its existence next to the
exponential interleaving explorer.

Authoring a new pass (see ``docs/linting.md`` for the full guide):

1. reserve a code in :mod:`repro.staticlint.diagnostics`;
2. subclass :class:`LintPass`, read what you need off the context;
3. append an instance to :data:`ALL_PASSES` in
   :mod:`repro.staticlint.engine`;
4. add a golden fixture under ``tests/staticlint/``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.lang.ast import Program, Stmt
from repro.staticlint.cfg import build_cfg
from repro.staticlint.dataflow import reachable
from repro.staticlint.diagnostics import Diagnostic


class LintContext:
    """Everything a pass may want, computed once when the context is made."""

    def __init__(
        self,
        subject: Union[Program, Stmt],
        stmt: Stmt,
        program: Optional[Program],
        scheme=None,
        binding=None,
    ):
        from repro.analysis.atomicity import shared_variables

        #: The original analysis subject (before procedure expansion).
        self.subject = subject
        #: The procedure-free body statement every pass analyses.
        self.stmt = stmt
        #: The enclosing program, when the subject was one (decls etc.).
        self.program = program
        #: Classification scheme (defaults to two-level when unset).
        self.scheme = scheme
        #: Optional policy binding; label passes skip without one.
        self.binding = binding
        #: The control-flow graph, with sync edges.
        self.cfg = build_cfg(stmt)
        #: Indices of the CFG nodes some execution can reach.
        self.reachable = reachable(self.cfg)
        #: Every variable the body statement mentions.
        self.used = frozenset().union(
            *(n.reads | n.writes for n in self.cfg.nodes)
        )
        #: Variables shared between parallel processes (non-semaphores).
        self.shared = shared_variables(stmt)
        #: ``name -> "integer" | "semaphore"`` for every known variable:
        #: the declarations when the subject is a program (the last one
        #: wins), then the body's names, a semaphore when some ``wait``
        #: or ``signal`` names it.
        self.kinds: Dict[str, str] = {}
        self._initials: Dict[str, int] = {}
        decls = program.decls if program is not None else ()
        for d in decls:
            for name in d.names:
                self.kinds[name] = d.kind
                self._initials.setdefault(name, d.initial)
        sem_ops = self.cfg.semaphores()
        for name in self.used:
            self.kinds.setdefault(
                name, "semaphore" if name in sem_ops else "integer"
            )
        #: Names typed as semaphores.
        self.semaphores = frozenset(
            n for n, k in self.kinds.items() if k == "semaphore"
        )

    def initial(self, name: str) -> int:
        """The initial value of ``name``'s first declaration (0 when
        undeclared)."""
        return self._initials.get(name, 0)


class LintPass:
    """Base class for all lint passes."""

    #: Stable pass identifier (used in ``--json`` and reports).
    name = "base"
    #: The ``RPLnxx`` family this pass emits.
    codes: tuple = ()
    #: One-line description for ``repro lint --list-passes``.
    description = ""

    def run(self, ctx: LintContext) -> List[Diagnostic]:
        """Produce this pass' diagnostics for ``ctx``."""
        raise NotImplementedError

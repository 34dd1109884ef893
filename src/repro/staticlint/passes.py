"""Lint-pass infrastructure: the shared context and the pass registry.

A pass is a :class:`LintPass` subclass with a stable ``name``, the
code family it owns, and a ``run(ctx)`` returning diagnostics.  All
passes share one :class:`LintContext`, which lazily builds and caches
the expensive artifacts (CFG, used- and shared-variable sets) so that
five passes cost roughly one traversal each, keeping ``repro lint``
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

from typing import Dict, FrozenSet, List, Optional, Union

from repro.lang.ast import (
    Program,
    Signal,
    Stmt,
    Wait,
    iter_statements,
    used_variables,
)
from repro.staticlint.cfg import CFG, build_cfg
from repro.staticlint.diagnostics import Diagnostic


class LintContext:
    """Everything a pass may want, computed once and cached."""

    def __init__(
        self,
        subject: Union[Program, Stmt],
        stmt: Stmt,
        program: Optional[Program],
        scheme=None,
        binding=None,
    ):
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
        self._cfg: Optional[CFG] = None
        self._shared: Optional[FrozenSet[str]] = None
        self._used: Optional[FrozenSet[str]] = None
        self._kinds: Optional[Dict[str, str]] = None

    @property
    def cfg(self) -> CFG:
        """The control-flow graph (built on first use, with sync edges)."""
        if self._cfg is None:
            self._cfg = build_cfg(self.stmt)
        return self._cfg

    @property
    def shared(self) -> FrozenSet[str]:
        """Variables shared between parallel processes (non-semaphores)."""
        if self._shared is None:
            from repro.analysis.atomicity import shared_variables

            self._shared = shared_variables(self.stmt)
        return self._shared

    @property
    def used(self) -> FrozenSet[str]:
        """Every variable the body statement mentions."""
        if self._used is None:
            self._used = used_variables(self.stmt)
        return self._used

    @property
    def kinds(self) -> Dict[str, str]:
        """``name -> "integer" | "semaphore"`` for every known variable.

        Uses declarations when the subject is a program; for bare
        statements, semaphores are inferred from ``wait``/``signal``
        operands.
        """
        if self._kinds is None:
            kinds: Dict[str, str] = {}
            if self.program is not None:
                for d in self.program.decls:
                    for name in d.names:
                        kinds[name] = d.kind
            sem_ops = {
                s.sem
                for s in iter_statements(self.stmt)
                if isinstance(s, (Wait, Signal))
            }
            for name in self.used:
                kinds.setdefault(
                    name, "semaphore" if name in sem_ops else "integer"
                )
            self._kinds = kinds
        return self._kinds

    @property
    def semaphores(self) -> FrozenSet[str]:
        """Names typed as semaphores."""
        return frozenset(n for n, k in self.kinds.items() if k == "semaphore")

    def initial(self, name: str) -> int:
        """The declared initial value of ``name`` (0 when undeclared)."""
        if self.program is not None:
            for d in self.program.decls:
                if name in d.names:
                    return d.initial
        return 0


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

"""Seeded random program generation.

Used by the benchmarks (the section 6 linearity claim needs programs of
controlled size) and by the property-based tests (Theorems 1 and 2 are
tested as executable biconditionals over random corpora).

Two generation profiles:

* **static** (default) — anything the grammar allows, including
  unbounded loops and unmatched semaphore operations; meant only for
  static analysis.
* **runtime-safe** (``runtime_safe=True``) — every loop is bounded by a
  dedicated counter, semaphore pairs are placed so a signal always
  precedes or runs concurrently with its wait, and division is
  avoided; programs are guaranteed to terminate under every schedule
  (deadlock remains possible only when a signal sits under a
  conditional, which the profile also avoids), so they can be run,
  explored exhaustively, and checked for noninterference.

The termination guarantee bounds *step counts*, not *value
magnitudes*: a bounded loop over ``v := v * v`` doubles ``v``'s bit
width per iteration, so a run can terminate in a few dozen steps yet
compute integers far beyond what any consumer can print or serialize
in reasonable time.  Consumers must treat values as unbounded — the
machine sketches huge integers when formatting events (see
:func:`repro.runtime.machine.format_value`), and the fuzzer's
exploration oracles skip iterated-multiplication subjects outright.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.binding import StaticBinding
from repro.core.inference import InferenceResult, infer_binding
from repro.lang import builder as b
from repro.lang.ast import Program, Stmt
from repro.lattice.base import Element, Lattice


@dataclass
class GeneratorConfig:
    """Knobs for the random program generator.

    ``size`` is the approximate number of statement nodes.  The ``p_*``
    weights steer the statement mix; they need not sum to one (they are
    normalized against the remaining budget).
    """

    size: int = 30
    max_depth: int = 5
    n_int_vars: int = 4
    n_sems: int = 2
    p_if: float = 0.2
    p_while: float = 0.15
    p_cobegin: float = 0.1
    p_sem_op: float = 0.1
    max_branches: int = 3
    max_loop_iters: int = 3
    runtime_safe: bool = False
    expr_depth: int = 2


class ProgramGenerator:
    """A deterministic (seeded) generator of well-formed programs."""

    def __init__(self, config: Optional[GeneratorConfig] = None, seed: int = 0):
        self.config = config or GeneratorConfig()
        self.rng = random.Random(seed)
        self._counter_count = 0
        self._sem_count = 0
        self._int_vars = [f"v{i}" for i in range(self.config.n_int_vars)]
        self._free_sems = [f"s{i}" for i in range(self.config.n_sems)]
        self._counters: List[str] = []
        self._used_sems: List[str] = []

    # -- expressions -----------------------------------------------------------

    def _expr(self, depth: Optional[int] = None):
        depth = self.config.expr_depth if depth is None else depth
        if depth <= 0 or self.rng.random() < 0.4:
            if self.rng.random() < 0.5:
                return b.var(self.rng.choice(self._int_vars))
            return b.lit(self.rng.randint(0, 9))
        op = self.rng.choice(["+", "-", "*"])
        left = self._expr(depth - 1)
        right = self._expr(depth - 1)
        return {"+": b.add, "-": b.sub, "*": b.mul}[op](left, right)

    def _cond(self):
        op = self.rng.choice([b.eq, b.ne, b.lt, b.le, b.gt, b.ge])
        return op(self._expr(1), self._expr(1))

    # -- statements ------------------------------------------------------------

    def _assign(self) -> Stmt:
        return b.assign(self.rng.choice(self._int_vars), self._expr())

    def _statement(self, budget: int, depth: int) -> Tuple[Stmt, int]:
        """Generate one statement consuming at most ``budget`` nodes.

        Returns the statement and the number of nodes actually used.
        """
        cfg = self.config
        if budget <= 1 or depth >= cfg.max_depth:
            return self._leaf()
        # Pick the form first (disjoint probability ranges), then apply
        # budget fallbacks; subtracting from the roll after a failed
        # budget check would leak probability into later branches.
        roll = self.rng.random()
        form = "seq"
        for candidate, weight in (
            ("if", cfg.p_if),
            ("while", cfg.p_while),
            ("cobegin", cfg.p_cobegin),
            ("sem", cfg.p_sem_op),
        ):
            if roll < weight:
                form = candidate
                break
            roll -= weight
        if form == "if" and budget >= 3:
            return self._if(budget, depth)
        if form == "while" and budget >= 3:
            return self._while(budget, depth)
        if form == "cobegin" and budget >= 4:
            return self._cobegin(budget, depth)
        if form == "sem" and not cfg.runtime_safe and self._free_sems:
            sem = self.rng.choice(self._free_sems)
            self._note_sem(sem)
            stmt = b.wait(sem) if self.rng.random() < 0.5 else b.signal(sem)
            return stmt, 1
        return self._sequence(budget, depth)

    def _leaf(self) -> Tuple[Stmt, int]:
        return self._assign(), 1

    def _sequence(self, budget: int, depth: int) -> Tuple[Stmt, int]:
        parts: List[Stmt] = []
        used = 1  # the begin node itself
        n = self.rng.randint(2, max(2, min(4, budget - 1)))
        for _ in range(n):
            if used >= budget:
                break
            stmt, cost = self._statement(budget - used, depth + 1)
            parts.append(stmt)
            used += cost
        if not parts:
            return self._leaf()
        if len(parts) == 1:
            return parts[0], used - 1
        return b.begin(*parts), used

    def _if(self, budget: int, depth: int) -> Tuple[Stmt, int]:
        then_branch, used1 = self._statement((budget - 2) // 2 + 1, depth + 1)
        if self.rng.random() < 0.6:
            else_branch, used2 = self._statement(budget - 2 - used1, depth + 1)
        else:
            else_branch, used2 = None, 0
        return b.if_(self._cond(), then_branch, else_branch), used1 + used2 + 1

    def _while(self, budget: int, depth: int) -> Tuple[Stmt, int]:
        if self.config.runtime_safe:
            counter = f"c{self._counter_count}"
            self._counter_count += 1
            self._counters.append(counter)
            iters = self.rng.randint(1, self.config.max_loop_iters)
            body, used = self._statement(budget - 4, depth + 1)
            loop = b.begin(
                b.assign(counter, 0),
                b.while_(
                    b.lt(b.var(counter), b.lit(iters)),
                    b.begin(body, b.assign(counter, b.add(b.var(counter), 1))),
                ),
            )
            return loop, used + 5
        body, used = self._statement(budget - 2, depth + 1)
        return b.while_(self._cond(), body), used + 1

    def _cobegin(self, budget: int, depth: int) -> Tuple[Stmt, int]:
        n = self.rng.randint(2, self.config.max_branches)
        branches: List[Stmt] = []
        used = 1
        for _ in range(n):
            stmt, cost = self._statement(max(1, (budget - used) // n), depth + 1)
            branches.append(stmt)
            used += cost
        if self.config.runtime_safe and self._free_sems and len(branches) >= 2:
            # One deadlock-free semaphore pair: an unconditional signal
            # at the top of one branch, the wait in another.
            sem = self._free_sems.pop()
            self._note_sem(sem)
            i, j = self.rng.sample(range(len(branches)), 2)
            branches[i] = b.begin(b.signal(sem), branches[i])
            branches[j] = b.begin(b.wait(sem), branches[j])
            used += 2
        return b.cobegin(*branches), used

    def _note_sem(self, sem: str) -> None:
        if sem not in self._used_sems:
            self._used_sems.append(sem)

    # -- entry points ----------------------------------------------------------

    def statement(self) -> Stmt:
        """Generate one statement of roughly ``config.size`` nodes."""
        stmt, _ = self._statement(self.config.size, 0)
        return stmt

    def program(self) -> Program:
        """Generate a full program with matching declarations."""
        body = self.statement()
        decls = [b.int_decl(*self._int_vars)]
        if self._counters:
            decls.append(b.int_decl(*self._counters))
        if self._used_sems:
            decls.append(b.sem_decl(*self._used_sems))
        return b.program(decls, body)


def random_program(
    seed: int, size: int = 30, runtime_safe: bool = False, **overrides
) -> Program:
    """One random program (see :class:`GeneratorConfig` for overrides)."""
    config = replace(
        GeneratorConfig(size=size, runtime_safe=runtime_safe), **overrides
    )
    return ProgramGenerator(config, seed=seed).program()


def sized_program(seed: int, n_statements: int, **overrides) -> Program:
    """A program with (close to) exactly ``n_statements`` statement nodes.

    The section 6 complexity claim is about time *per statement*, so
    the linearity benchmark needs precisely controlled sizes; this
    composes generator chunks into one top-level ``begin`` until the
    count is reached, then pads with assignments.
    """
    from repro.lang.ast import program_size

    config = replace(GeneratorConfig(size=25), **overrides)
    gen = ProgramGenerator(config, seed=seed)
    chunks: List[Stmt] = []
    count = 1  # the enclosing begin
    while count < n_statements - config.size:
        chunk = gen.statement()
        chunks.append(chunk)
        count += program_size(chunk)
    while count < n_statements:
        chunks.append(gen._assign())
        count += 1
    body = b.begin(*chunks) if len(chunks) != 1 else chunks[0]
    decls = [b.int_decl(*gen._int_vars)]
    if gen._counters:
        decls.append(b.int_decl(*gen._counters))
    if gen._used_sems:
        decls.append(b.sem_decl(*gen._used_sems))
    return b.program(decls, body)


def random_certified_case(
    seed: int,
    scheme: Lattice,
    size: int = 30,
    runtime_safe: bool = False,
    n_pins: int = 2,
    **overrides,
) -> Tuple[Program, StaticBinding]:
    """A random program together with a binding that certifies it.

    Pins a few randomly chosen variables to random classes and infers
    the least completion; pins that make certification impossible are
    dropped one by one (the empty pin set always succeeds: the all-low
    binding certifies nothing-flows-up trivially only when the program
    has no high sources, and with no pins the least solution is exactly
    the all-bottom binding, which always certifies).
    """
    program = random_program(seed, size=size, runtime_safe=runtime_safe, **overrides)
    rng = random.Random(seed ^ 0x5EED)
    from repro.lang.ast import used_variables

    names = sorted(used_variables(program.body))
    classes = sorted(scheme.elements, key=repr)
    pins: Dict[str, Element] = {}
    for name in rng.sample(names, min(n_pins, len(names))):
        pins[name] = rng.choice(classes)
    while True:
        result: InferenceResult = infer_binding(program, scheme, pins)
        if result.satisfiable:
            return program, result.binding
        # Drop the pin named in the first violation (or any pin).
        dropped = None
        for edge in result.violations:
            target = getattr(edge.dst, "name", None)
            if target in pins:
                dropped = target
                break
        if dropped is None:
            dropped = next(iter(pins))
        del pins[dropped]

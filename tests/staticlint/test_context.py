"""The facts :class:`LintContext` reads off its one CFG.

The context builds the CFG once and derives the used names, the
semaphores and every node's reads and writes from it, where it once
walked the body statement for each.  These tests pin each fact against
that older derivation, kept here as the oracle, over the five corpora,
seeded generated programs, a procedure program and a repeated
declaration.
"""

from typing import Dict, List, Tuple

import pytest

from repro.lang import builder as b
from repro.lang.ast import (
    Assign,
    Program,
    Signal,
    VarDecl,
    Wait,
    expr_variables,
    iter_statements,
    used_variables,
)
from repro.lang.parser import parse_program
from repro.lang.procs import resolve_subject
from repro.staticlint import LintContext
from repro.staticlint.dataflow import reachable
from repro.workloads.generators import sized_program
from repro.workloads.suites import corpus

CORPORA = ("concurrent", "litmus", "paper", "runtime", "sequential")

PROCEDURES = """
proc bump(in a; out b)
  b := a + 1;

var x, y, z : integer; s : semaphore initially(1);
cobegin
  begin wait(s); call bump(x; y); signal(s) end
||
  begin call bump(y; z); if z > 0 then wait(s) end
coend
"""


def _subjects() -> List[Tuple[str, object]]:
    out = [
        (f"{name}/{label}", subject)
        for name in CORPORA
        for label, subject in corpus(name)
    ]
    out.extend(
        (f"sized/{seed}/{n}",
         sized_program(seed, n, p_cobegin=0.15, p_sem_op=0.1))
        for seed in range(6)
        for n in (30, 120)
    )
    out.append(("procedures", parse_program(PROCEDURES)))
    return out


SUBJECTS = _subjects()


def _context(subject) -> LintContext:
    """The context :func:`run_lint` builds for ``subject``."""
    resolved, stmt = resolve_subject(subject)
    program = resolved if isinstance(resolved, Program) else None
    return LintContext(subject, stmt, program)


def _oracle_kinds(ctx: LintContext) -> Dict[str, str]:
    """The kinds as derived before the CFG carried them: declarations
    first, then every used name, a semaphore when some ``wait`` or
    ``signal`` of a preorder walk names it."""
    kinds: Dict[str, str] = {}
    if ctx.program is not None:
        for d in ctx.program.decls:
            for name in d.names:
                kinds[name] = d.kind
    sem_ops = {
        s.sem
        for s in iter_statements(ctx.stmt)
        if isinstance(s, (Wait, Signal))
    }
    for name in used_variables(ctx.stmt):
        kinds.setdefault(name, "semaphore" if name in sem_ops else "integer")
    return kinds


def _oracle_initial(ctx: LintContext, name: str) -> int:
    """The first declaration of ``name`` gives its initial value."""
    if ctx.program is not None:
        for d in ctx.program.decls:
            if name in d.names:
                return d.initial
    return 0


def _oracle_reads(node):
    s = node.stmt
    if isinstance(s, Assign) and node.kind == "assign":
        return expr_variables(s.expr)
    if node.kind in ("branch", "loop"):
        return expr_variables(s.cond)
    if node.kind in ("wait", "signal"):
        return frozenset((s.sem,))
    return frozenset()


def _oracle_writes(node):
    s = node.stmt
    if isinstance(s, Assign) and node.kind == "assign":
        return frozenset((s.target,))
    if node.kind in ("wait", "signal"):
        return frozenset((s.sem,))
    return frozenset()


def _writes(stmt):
    if isinstance(stmt, Assign):
        return stmt.target
    if isinstance(stmt, (Wait, Signal)):
        return stmt.sem
    return None


@pytest.fixture(params=SUBJECTS, ids=[label for label, _ in SUBJECTS])
def ctx(request) -> LintContext:
    return _context(request.param[1])


def test_used_names_come_from_the_cfg(ctx):
    assert ctx.used == used_variables(ctx.stmt)


def test_cfg_semaphores_are_the_wait_and_signal_names(ctx):
    assert ctx.cfg.semaphores() == {
        s.sem for s in iter_statements(ctx.stmt)
        if isinstance(s, (Wait, Signal))
    }


def test_kinds_semaphores_and_initials_match_the_oracle(ctx):
    kinds = _oracle_kinds(ctx)
    assert ctx.kinds == kinds
    assert ctx.semaphores == frozenset(
        n for n, k in kinds.items() if k == "semaphore"
    )
    for name in sorted(set(kinds) | {"never_declared"}):
        assert ctx.initial(name) == _oracle_initial(ctx, name), name


def test_node_reads_and_writes_match_the_oracle(ctx):
    for node in ctx.cfg.nodes:
        assert node.reads == _oracle_reads(node), node
        assert node.writes == _oracle_writes(node), node


def test_reachable_is_the_cfg_reachability(ctx):
    assert ctx.reachable == reachable(ctx.cfg)


def test_cfg_numbers_atomic_actions_in_source_preorder(ctx):
    atomic = ("assign", "wait", "signal")
    in_cfg = [n.stmt for n in ctx.cfg.nodes if n.kind in atomic]
    preorder = [
        s for s in iter_statements(ctx.stmt)
        if isinstance(s, (Assign, Wait, Signal))
    ]
    assert [id(s) for s in in_cfg] == [id(s) for s in preorder]


def test_cfg_first_writer_is_the_preorder_first_writer(ctx):
    from_cfg = {}
    for node in ctx.cfg.nodes:
        for name in node.writes:
            from_cfg.setdefault(name, node.stmt)
    from_walk = {}
    for s in iter_statements(ctx.stmt):
        name = _writes(s)
        if name is not None:
            from_walk.setdefault(name, s)
    assert sorted(from_cfg) == sorted(from_walk)
    for name, stmt in from_walk.items():
        assert from_cfg[name] is stmt, name


def test_repeated_declaration_last_kind_first_initial():
    # ``s`` is declared a semaphore initially 1, then an integer
    # initially 0: the last kind wins, the first initial value wins.
    program = Program(
        [
            VarDecl(["s"], "semaphore", 1),
            VarDecl(["x", "s"], "integer", 0),
            VarDecl(["x"], "integer", 5),
        ],
        b.begin(b.wait("s"), b.assign("x", b.add("x", 1))),
    )
    ctx = _context(program)
    assert ctx.kinds == _oracle_kinds(ctx) == {"s": "integer", "x": "integer"}
    assert ctx.semaphores == frozenset()
    assert ctx.initial("s") == _oracle_initial(ctx, "s") == 1
    assert ctx.initial("x") == _oracle_initial(ctx, "x") == 0

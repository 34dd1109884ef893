"""Named corpora for benchmarks and tests.

A corpus is a list of ``(name, program-or-statement)`` pairs.  The
paper corpus collects every fragment from the paper; the synthetic
corpora are seeded generator outputs with controlled characteristics so
benchmark numbers are reproducible run to run.
"""

from __future__ import annotations

from typing import List, Tuple, Union

from repro.lang.ast import Program, Stmt
from repro.workloads.generators import random_program
from repro.workloads.paper import paper_programs

Subject = Union[Program, Stmt]


def _paper_corpus() -> List[Tuple[str, Subject]]:
    return sorted(paper_programs().items())


def _sequential_corpus() -> List[Tuple[str, Subject]]:
    """Thirty purely sequential programs (no cobegin, no semaphores)."""
    out = []
    for i in range(30):
        prog = random_program(
            seed=1000 + i, size=40, p_cobegin=0.0, p_sem_op=0.0
        )
        out.append((f"seq-{i:02d}", prog))
    return out


def _concurrent_corpus() -> List[Tuple[str, Subject]]:
    """Thirty concurrent programs with semaphore traffic."""
    out = []
    for i in range(30):
        prog = random_program(
            seed=2000 + i, size=50, p_cobegin=0.25, p_sem_op=0.2, n_sems=3
        )
        out.append((f"con-{i:02d}", prog))
    return out


def _runtime_corpus() -> List[Tuple[str, Subject]]:
    """Twenty runtime-safe programs (terminating, explorable)."""
    out = []
    for i in range(20):
        prog = random_program(
            seed=3000 + i, size=25, runtime_safe=True, p_cobegin=0.2, n_sems=2
        )
        out.append((f"run-{i:02d}", prog))
    return out


def _litmus_corpus() -> List[Tuple[str, Subject]]:
    """The labelled micro-suite (see :mod:`repro.workloads.litmus`)."""
    from repro.workloads.litmus import CASES

    return [(case.name, case.statement()) for case in CASES]


_CORPORA = {
    "paper": _paper_corpus,
    "sequential": _sequential_corpus,
    "concurrent": _concurrent_corpus,
    "runtime": _runtime_corpus,
    "litmus": _litmus_corpus,
}


def corpus_names() -> List[str]:
    """Available corpus names."""
    return sorted(_CORPORA)


def corpus(name: str) -> List[Tuple[str, Subject]]:
    """Materialize the corpus called ``name`` (fresh ASTs each call)."""
    try:
        factory = _CORPORA[name]
    except KeyError:
        raise KeyError(f"unknown corpus {name!r}; available: {corpus_names()}") from None
    return factory()

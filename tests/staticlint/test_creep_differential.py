"""Differential test: lint's label-creep findings against per-variable solves.

For every binding of the lint golden corpus (``lint_golden.py``) and
every bound variable ``x``, the reference is the least solution of the
program's full CFM constraint graph, ``build_constraint_graph(stmt,
scheme).least_solution(scheme, others)``, with every *other* bound
variable pinned at its policy class.  ``x`` and every variable the
binding leaves unbound (a partial binding without a default) stay
free.  Lint's RPL501/RPL503 findings must be exactly what the creep
rule derives from those solves, where ``required`` is ``x``'s least
class and ``declared`` its binding:

* RPL501 when ``required`` is not below ``declared``, whether or not
  the solve is satisfiable;
* RPL503 when the solve is satisfiable, ``x`` is a sink (assigned,
  waited on or signalled) and ``required`` is strictly below
  ``declared``.

Wherever a solve is satisfiable, :func:`infer_binding` on the same
pins must return ``satisfiable`` with the same class for ``x``, and
must not raise: that exercises its ``certify`` self-check.

For a binding that covers the program, lint reports an RPL501 exactly
when the reference ``certify`` rejects: on the corpus, and as a
property over random programs and random full bindings.
"""

from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binding import StaticBinding
from repro.core.cfm import certify
from repro.core.constraints import VarNode, build_constraint_graph
from repro.core.inference import infer_binding
from repro.errors import BindingError
from repro.lang.ast import (
    Assign,
    Signal,
    Stmt,
    Wait,
    iter_statements,
    used_variables,
)
from repro.lang.parser import parse_statement
from repro.lang.procs import resolve_subject
from repro.lattice import SCHEMES
from repro.lattice.chain import two_level
from repro.staticlint import run_lint
from repro.workloads.generators import random_program
from tests.staticlint.lint_golden import pairs

Finding = Tuple[str, str, str, str]

BOUND = [
    (name, subject, binding)
    for name, subject, binding in pairs()
    if binding is not None
]

COVERING = [
    (name, subject, binding)
    for name, subject, binding in BOUND
    if binding.covers(resolve_subject(subject)[1])
]


def sinks(stmt: Stmt) -> Set[str]:
    """Variables the program writes: assignment targets and semaphores."""
    out: Set[str] = set()
    for s in iter_statements(stmt):
        if isinstance(s, Assign):
            out.add(s.target)
        elif isinstance(s, (Wait, Signal)):
            out.add(s.sem)
    return out


def expected_creep(stmt: Stmt, binding) -> List[Finding]:
    """The creep findings the per-variable full-graph solves call for."""
    scheme = binding.scheme
    graph = build_constraint_graph(stmt, scheme)
    policy: Dict[str, object] = {}
    for name in sorted(graph.variables):
        try:
            policy[name] = binding.of_var(name)
        except BindingError:
            continue  # unbound: stays free in every solve
    written = sinks(stmt)
    out: List[Finding] = []
    for name, declared in policy.items():
        others = {n: c for n, c in policy.items() if n != name}
        valuation, violated = graph.least_solution(scheme, others)
        required = valuation[VarNode(name)]
        if not violated:
            inferred = infer_binding(stmt, scheme, others)
            assert inferred.satisfiable
            assert inferred.inferred[name] == required
        finding = (name, str(declared), str(required))
        if not scheme.leq(required, declared):
            out.append(("RPL501",) + finding)
        elif not violated and name in written and required != declared:
            out.append(("RPL503",) + finding)
    return sorted(out)


def reported_creep(subject, binding) -> List[Finding]:
    result = run_lint(subject, binding=binding, select=("RPL501", "RPL503"))
    out = []
    for diagnostic in result.diagnostics:
        extra = dict(diagnostic.extra)
        out.append((
            diagnostic.code,
            extra["variable"],
            extra["declared"],
            extra["required"],
        ))
    return sorted(out)


@pytest.mark.parametrize(
    "name,subject,binding", BOUND, ids=[name for name, _, _ in BOUND]
)
def test_creep_matches_per_variable_solves(name, subject, binding):
    _, stmt = resolve_subject(subject)
    assert reported_creep(subject, binding) == expected_creep(stmt, binding)


def test_corpus_exercises_both_codes_and_partial_bindings():
    labels = {name.rsplit("/", 2)[-2] for name, _, _ in BOUND}
    assert {"random", "partial", "partial-default"} <= labels
    codes = {
        finding[0]
        for _, subject, binding in BOUND[::7]
        for finding in reported_creep(subject, binding)
    }
    assert codes == {"RPL501", "RPL503"}


def test_unbound_variables_stay_free():
    """An unbound relay carries the source's class on to the sink."""
    scheme = two_level()
    binding = StaticBinding(scheme, {"h": scheme.top, "l": scheme.bottom})
    stmt = parse_statement("begin m := h; l := m end")
    assert reported_creep(stmt, binding) == [("RPL501", "l", "low", "high")]
    assert expected_creep(stmt, binding) == [("RPL501", "l", "low", "high")]


def reports_rpl501(subject, binding) -> bool:
    return any(code == "RPL501" for code, *_ in reported_creep(subject, binding))


@pytest.mark.parametrize(
    "name,subject,binding", COVERING, ids=[name for name, _, _ in COVERING]
)
def test_rpl501_exactly_when_certification_rejects(name, subject, binding):
    assert reports_rpl501(subject, binding) == (
        not certify(subject, binding).certified
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 30),
    scheme_name=st.sampled_from(sorted(SCHEMES)),
    data=st.data(),
)
def test_rpl501_iff_rejection_on_random_programs(seed, size, scheme_name, data):
    program = random_program(seed=seed, size=size, p_cobegin=0.2, p_sem_op=0.15)
    scheme = SCHEMES[scheme_name]()
    elements = sorted(scheme.elements, key=str)
    _, stmt = resolve_subject(program)
    classes = {
        name: data.draw(st.sampled_from(elements), label=name)
        for name in sorted(used_variables(stmt))
    }
    binding = StaticBinding(scheme, classes)
    assert reports_rpl501(program, binding) == (
        not certify(program, binding).certified
    )

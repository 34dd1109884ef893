"""The variable flow relation."""

import pytest

from repro.analysis.flowgraph import flow_graph
from repro.core.constraints import VarNode, build_constraint_graph
from repro.lang.parser import parse_program, parse_statement
from repro.workloads.generators import random_program, sized_program
from repro.workloads.paper import figure3_program


def test_direct_assignment_edge(scheme):
    g = flow_graph(parse_statement("y := x"), scheme)
    assert g.can_flow("x", "y")
    assert not g.can_flow("y", "x")
    assert "assignment" in g.why("x", "y")


def test_transitive_reachability(scheme):
    g = flow_graph(parse_statement("begin b := a; c := b end"), scheme)
    assert g.can_flow("a", "c")
    assert ("a", "c") not in g.direct_edges()  # only via b


def test_guard_flows(scheme):
    g = flow_graph(parse_statement("if h = 0 then y := 1"), scheme)
    assert g.can_flow("h", "y")
    assert "alternation" in g.why("h", "y")


def test_loop_termination_flow(scheme):
    g = flow_graph(
        parse_statement("begin while h > 0 do h := h - 1; z := 1 end"), scheme
    )
    assert g.can_flow("h", "z")


def test_synchronization_flow(scheme):
    g = flow_graph(parse_statement("begin wait(s); y := 1 end"), scheme)
    assert g.can_flow("s", "y")


def test_no_backwards_flow(scheme):
    g = flow_graph(parse_statement("begin y := 1; wait(s) end"), scheme)
    assert not g.can_flow("s", "y")


def test_figure3_chain(scheme):
    g = flow_graph(figure3_program(), scheme)
    # Section 4.3's chain: x -> modify -> m -> y.
    assert g.can_flow("x", "modify")
    assert g.can_flow("modify", "m")
    assert g.can_flow("m", "y")
    assert g.can_flow("x", "y")


def test_constant_only_program_has_no_edges(scheme):
    g = flow_graph(parse_statement("begin x := 1; y := 2 end"), scheme)
    assert g.direct_edges() == []


def test_flows_to_excludes_unreachable(scheme):
    g = flow_graph(parse_statement("begin y := x; a := b end"), scheme)
    assert g.flows_to("x") == frozenset({"y"})


def test_repr(scheme):
    g = flow_graph(parse_statement("y := x"), scheme)
    assert "FlowGraph" in repr(g)


@pytest.mark.parametrize("source,rules", [
    # the loop's termination reaches v0 through the if's mod hub,
    # which the guard's alternation edge reaches first
    (
        "var v0, v2 : integer;\n"
        "begin while v2 > 0 do v2 := 0; if v2 > 0 then v0 := 1 end",
        {"alternation", "composition", "iteration"},
    ),
    (
        "var v0, v1, v2 : integer;\n"
        "begin while v2 > 0 do v2 := 0; if v1 > 0 then v0 := 1 end",
        {"alternation", "composition", "iteration"},
    ),
])
def test_why_keeps_the_termination_flow(scheme, source, rules):
    g = flow_graph(parse_program(source), scheme)
    assert g.why("v2", "v0") == rules


def _all_path_rules(graph, source, sink):
    """Brute force: the rules on every auxiliary path, one by one."""
    out = set()

    def walk(node, rules, on_path):
        for edge in graph.succ.get(node, ()):
            grown = rules | {edge.rule.split("-")[0]}
            if isinstance(edge.dst, VarNode):
                if edge.dst.name == sink:
                    out.update(grown)
            elif edge.dst not in on_path:
                walk(edge.dst, grown, on_path | {edge.dst})

    walk(VarNode(source), frozenset(), frozenset())
    return frozenset(out)


def test_why_is_the_union_over_every_auxiliary_path(scheme):
    programs = [random_program(seed) for seed in range(200)]
    programs += [sized_program(seed, 40) for seed in range(50)]
    checked = 0
    for program in programs:
        g = flow_graph(program, scheme)
        constraints = build_constraint_graph(program, scheme)
        for a, b in g.direct_edges():
            assert g.why(a, b) == _all_path_rules(constraints, a, b), (a, b)
            checked += 1
    assert checked > 1_000

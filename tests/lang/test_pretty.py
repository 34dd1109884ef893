"""Pretty-printer output and parse/print round-trips."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.lang.parser import parse_expression, parse_program, parse_statement
from repro.lang.pretty import pretty, pretty_expr
from repro.workloads.generators import random_program
from repro.workloads.paper import FIGURE3_SOURCE, paper_programs
from tests.lang.test_structural_roundtrip import assert_structurally_equal


def roundtrips(source: str) -> None:
    first = pretty(parse_program(source))
    second = pretty(parse_program(first))
    assert first == second


def test_expression_minimal_parens():
    assert pretty_expr(parse_expression("a + b * c")) == "a + b * c"
    assert pretty_expr(parse_expression("(a + b) * c")) == "(a + b) * c"


def test_left_assoc_needs_parens_on_right():
    assert pretty_expr(parse_expression("a - (b - c)")) == "a - (b - c)"
    assert pretty_expr(parse_expression("a - b - c")) == "a - b - c"


def test_not_and_comparison():
    assert pretty_expr(parse_expression("not (a = 0)")) == "not a = 0"


def test_unary_minus():
    assert pretty_expr(parse_expression("-a + b")) == "-a + b"
    assert pretty_expr(parse_expression("-(a + b)")) == "-(a + b)"


@pytest.mark.parametrize(
    "source,text",
    [
        # "--" opens a comment, so two minus signs keep a space apart
        ("x := - - h", "x := - -h"),
        ("x := -(-1)", "x := - -1"),
        ("x := -(-(-h))", "x := - - -h"),
        # a binary minus already prints with a space
        ("x := 1 - -h", "x := 1 - -h"),
    ],
)
def test_negated_negation_survives_a_round_trip(source, text):
    stmt = parse_statement(source)
    assert pretty(stmt) == text
    reparsed = parse_statement(text)
    assert pretty(reparsed) == text
    assert_structurally_equal(stmt, reparsed, source)


def test_statement_rendering():
    s = parse_statement("begin x := 1; wait(s); signal(s); skip end")
    text = pretty(s)
    assert "begin" in text and "end" in text
    assert "wait(s);" in text


def test_if_without_else_rendering():
    text = pretty(parse_statement("if x = 0 then y := 1"))
    assert "else" not in text


def test_declaration_rendering():
    p = parse_program("var x : integer; s : semaphore initially(2); x := 1")
    text = pretty(p)
    assert "var x : integer;" in text
    assert "s : semaphore initially(2);" in text


def test_figure3_roundtrip():
    roundtrips(FIGURE3_SOURCE)


def test_all_paper_fragments_roundtrip():
    for name, stmt in paper_programs().items():
        first = pretty(stmt)
        second = pretty(parse_statement(first))
        assert first == second, name


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=60, deadline=None)
def test_random_programs_roundtrip(seed):
    prog = random_program(seed, size=25, p_cobegin=0.2, p_sem_op=0.15)
    first = pretty(prog)
    second = pretty(parse_program(first))
    assert first == second


@given(st.integers(min_value=0, max_value=100))
@settings(max_examples=30, deadline=None)
def test_runtime_safe_programs_roundtrip(seed):
    prog = random_program(seed, size=20, runtime_safe=True)
    assert pretty(parse_program(pretty(prog))) == pretty(prog)

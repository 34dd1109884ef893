"""The precedence-climbing parser against the recursive-descent reference.

Each entry point (``parse_program``, ``parse_statement`` and
``parse_expression``) of :mod:`repro.lang.parser` and of
``tests/lang/reference_parser.py`` reads the same source through the
same lexer.  The two must build the same tree: the same node types, the
same value in every field, the same ``loc`` on every node, and the nodes
created in the same order, so that ``uid`` order is unchanged.  Or they
must raise the same error class with the same text, line and column.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import LanguageError
from repro.fuzz.corpus import load_findings
from repro.lang import parser
from repro.lang.ast import Loc, Node
from repro.lang.lexer import tokenize
from repro.lang.parser import MAX_DEPTH
from repro.lang.pretty import pretty
from repro.workloads import paper
from repro.workloads.generators import sized_program
from repro.workloads.litmus import CASES
from repro.workloads.suites import corpus, corpus_names

from tests.lang import reference_parser
from tests.lang.nesting import SHAPES, nested_program

ENTRIES = ("parse_program", "parse_statement", "parse_expression")


def _fields(cls) -> list:
    """Every slot of ``cls`` but ``uid``, base classes first."""
    return [
        name
        for klass in reversed(cls.__mro__)
        for name in getattr(klass, "__slots__", ())
        if name != "uid"
    ]


def _plain(value, nodes: list):
    """``value`` as comparable data; appends each node to ``nodes``, preorder."""
    if isinstance(value, Node):
        nodes.append(value)
        return (type(value),) + tuple(
            (name, _plain(getattr(value, name), nodes)) for name in _fields(type(value))
        )
    if isinstance(value, Loc):
        return (value.line, value.column)
    if isinstance(value, list):
        return [_plain(item, nodes) for item in value]
    return value


def _outcome(parse, source: str):
    """The tree and creation order ``parse`` builds, or the error it raises."""
    try:
        tree = parse(source)
    except LanguageError as exc:
        return type(exc), str(exc), exc.line, exc.column
    nodes: list = []
    shape = _plain(tree, nodes)
    return shape, sorted(range(len(nodes)), key=lambda i: nodes[i].uid)


def _assert_agrees(source: str) -> None:
    for entry in ENTRIES:
        expected = _outcome(getattr(reference_parser, entry), source)
        assert _outcome(getattr(parser, entry), source) == expected, (entry, source)


def _corpus_sources():
    for name in corpus_names():
        for program, subject in corpus(name):
            yield f"{name}/{program}", pretty(subject)
    for case in CASES:
        yield f"litmus-source/{case.name}", case.source
    for attr in sorted(dir(paper)):
        if attr.endswith("_SOURCE"):
            yield f"paper-source/{attr}", getattr(paper, attr)
    for record in load_findings(Path(__file__).parents[1] / "fuzz" / "corpus"):
        yield f"fuzz/{Path(record['path']).name}", record["source"]
    for seed in range(3):
        for size in (20, 40, 80, 160):
            yield f"sized/{seed}/{size}", pretty(sized_program(seed, size))


CORPUS = list(_corpus_sources())


@pytest.mark.parametrize("label,source", CORPUS)
def test_parsers_agree_on_corpora(label, source):
    reference_parser.parse_program(source)  # the corpora parse cleanly
    _assert_agrees(source)


#: Expression and statement shapes nested one level per repetition.
NESTED_BODIES = {
    "not": lambda n: "x := " + "not " * n + "h",
    "minus": lambda n: "x := " + "- " * n + "h",
    "and": lambda n: "x := h" + " and h" * n,
    "or": lambda n: "x := h" + " or h" * n,
    "rel-chain": lambda n: "x := " + "(h < " * n + "h" + ")" * n,
    "mixed": lambda n: "x := h" + " * h + h" * (n // 2),
    "while": lambda n: "while h = 0 do " * n + "x := 1",
    "cobegin": lambda n: "cobegin " * n + "x := 1" + " coend" * n,
}


@pytest.mark.parametrize("levels", [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1])
@pytest.mark.parametrize("shape", SHAPES + tuple(NESTED_BODIES))
def test_parsers_agree_at_the_nesting_bound(shape, levels):
    if shape in NESTED_BODIES:
        source = f"var x, h : integer;\n{NESTED_BODIES[shape](levels)}\n"
    else:
        source = nested_program(shape, levels)
    _assert_agrees(source)
    _assert_agrees(source.split("\n")[1])
    if source.split("\n")[1].startswith("x := "):
        _assert_agrees(source.split("\n")[1][len("x := "):])


#: The ``test_parser_robustness`` fragments, every other keyword and
#: symbol, the contextual ``in``/``out``, a comment, CRLF and a tab.
FRAGMENTS = [
    "begin", "end", "if", "then", "else", "while", "do", "cobegin",
    "coend", "||", ";", ":=", "x", "y", "0", "1", "(", ")", "+",
    "wait", "signal", "skip", "var", ":", "integer", ",", "=",
    "proc", "call", "#", "<", "and", "not", "true",
    "mod", "or", "in", "out", "--", "\r\n", "\t",
    "-", "*", "/", "<=", ">", ">=", "false", "semaphore", "initially",
]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map(" ".join))
@example("x := a + not b")
@example("x := a < b < c")
@example("x := not a < b and c < d < e")
@example("x := - not a")
@example("x := a or b and not c = - d * (e mod f) / g - h + i")
@example("proc p(in a; out b) b := a; var x : integer; call p(x; x)")
@example("")
def test_parsers_agree_on_token_soup(source):
    _assert_agrees(source)


#: The small corpora, every prefix of which the next test parses.
SMALL = [(label, source) for label, source in CORPUS if len(source) < 400]


@pytest.mark.parametrize("label,source", SMALL)
def test_parsers_agree_on_every_truncation(label, source):
    cuts = {token.column for token in tokenize(source.replace("\n", " "))}
    for cut in sorted(cuts):
        _assert_agrees(source[: cut - 1])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CORPUS), st.floats(min_value=0.0, max_value=1.0))
def test_parsers_agree_on_random_truncations(labelled, fraction):
    _label, source = labelled
    _assert_agrees(source[: int(len(source) * fraction)])

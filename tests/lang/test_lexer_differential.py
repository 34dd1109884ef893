"""The regex lexer against the character-at-a-time reference lexer.

Both must produce the same ``(kind, value, line, column)`` list, or
raise ``LexError`` with the same message, line and column.  The one
deliberate difference: a character for which ``str.isdigit()`` holds
but which is not a decimal digit (``²``) used to start or extend a
number token that ``int()`` then could not read; it is now an illegal
character.  Where a source contains one, the expected outcome is the
reference lexer's with ``isdigit`` narrowed to ``isdecimal``.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import LexError
from repro.fuzz.corpus import load_findings
from repro.lang.lexer import tokenize
from repro.lang.pretty import pretty
from repro.lang.tokens import KEYWORDS, SYMBOLS
from repro.workloads import paper
from repro.workloads.generators import sized_program
from repro.workloads.litmus import CASES
from repro.workloads.suites import corpus, corpus_names

from tests.lang import reference_lexer

#: Characters outside ASCII that each take a different branch: letters
#: (``é``, titlecase ``ǅ``), a decimal digit (``٣``), a digit that is
#: not decimal (``²``), a numeral that is not a digit (``Ⅷ``), and a
#: space that is not trivia (``\xa0``).
UNICODE = ("é", "ǅ", "٣", "²", "Ⅷ", "\xa0")

ALPHABET = (
    "abhlvxyz_ABZ0123456789 \t\r\n" + "".join(sorted(set("".join(SYMBOLS))))
    + "|@!." + "".join(UNICODE)
)

FRAGMENTS = (
    sorted(KEYWORDS) + list(SYMBOLS) + list(UNICODE)
    + ["--", "-- note", "\r\n", "\t", " ", "x1", "_y", "42", "1x", "h2"]
)

sources = st.tuples(
    st.lists(
        st.one_of(st.sampled_from(FRAGMENTS), st.text(alphabet=ALPHABET, max_size=4)),
        max_size=24,
    ).map("".join),
    st.sampled_from(("", "--", "-- end", "--\r", "\r\n", "\n-- end")),
).map("".join)


class _DecimalChar(str):
    """A character whose ``isdigit`` is ``isdecimal`` (the deliberate fix)."""

    def isdigit(self) -> bool:
        return self.isdecimal()


class _DecimalOnlyLexer(reference_lexer.Lexer):
    def _peek(self, offset: int = 0) -> str:
        return _DecimalChar(super()._peek(offset))


def _outcome(lex, source: str):
    try:
        return [(t.kind, t.value, t.line, t.column) for t in lex(source)]
    except LexError as exc:
        return (str(exc), exc.line, exc.column)


def _expected(source: str):
    if any(ch.isdigit() and not ch.isdecimal() for ch in source):
        return _outcome(lambda s: list(_DecimalOnlyLexer(s).tokens()), source)
    return _outcome(reference_lexer.tokenize, source)


def _assert_agrees(source: str) -> None:
    assert _outcome(tokenize, source) == _expected(source), repr(source)


@settings(max_examples=400, deadline=None)
@given(sources)
@example("".join(SYMBOLS))
@example(" ".join(SYMBOLS))
@example("x := 1²")
@example("x²y := Ⅷ")
@example("1²a")
@example("a\xa0b")
@example("begin\r\n\tx := 1 -- c\r\nend--")
def test_regex_lexer_matches_reference(source):
    _assert_agrees(source)


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
    for seed, size in enumerate((20, 40, 80, 160)):
        yield f"sized/{size}", pretty(sized_program(seed, size))


@pytest.mark.parametrize("label,source", list(_corpus_sources()))
def test_regex_lexer_matches_reference_on_corpora(label, source):
    assert reference_lexer.tokenize(source)  # the corpora lex cleanly
    _assert_agrees(source)


def test_non_decimal_digit_is_the_only_divergence():
    """The reference made ``1²`` an ``int`` token that ``int()`` rejects."""
    assert _outcome(reference_lexer.tokenize, "x := 1²") == [
        ("ident", "x", 1, 1),
        ("symbol", ":=", 1, 3),
        ("int", "1²", 1, 6),
        ("eof", "", 1, 8),
    ]
    assert _outcome(tokenize, "x := 1²") == _expected("x := 1²")

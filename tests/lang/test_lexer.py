"""Lexer behaviour."""

import pytest

from repro.errors import LexError
from repro.lang.lexer import tokenize


def kinds(src):
    return [(t.kind, t.value) for t in tokenize(src) if t.kind != "eof"]


def test_keywords_vs_identifiers():
    toks = kinds("while whilex do done")
    assert toks[0] == ("keyword", "while")
    assert toks[1] == ("ident", "whilex")
    assert toks[2] == ("keyword", "do")
    assert toks[3] == ("ident", "done")


def test_integers():
    assert kinds("0 42 1234") == [("int", "0"), ("int", "42"), ("int", "1234")]


def test_symbols_longest_match():
    assert kinds(":= <= >= < > = #") == [
        ("symbol", ":="),
        ("symbol", "<="),
        ("symbol", ">="),
        ("symbol", "<"),
        ("symbol", ">"),
        ("symbol", "="),
        ("symbol", "#"),
    ]


def test_parallel_bars():
    assert kinds("a || b") == [("ident", "a"), ("symbol", "||"), ("ident", "b")]


def test_comments_skipped():
    assert kinds("x -- this is a comment\ny") == [("ident", "x"), ("ident", "y")]


def test_comment_at_eof():
    assert kinds("x -- trailing") == [("ident", "x")]


def test_line_and_column_tracking():
    toks = tokenize("x :=\n  5")
    assert (toks[0].line, toks[0].column) == (1, 1)
    assert (toks[1].line, toks[1].column) == (1, 3)
    assert (toks[2].line, toks[2].column) == (2, 3)


def test_eof_token_present():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].kind == "eof"


def _lex_error(source):
    with pytest.raises(LexError) as exc:
        tokenize(source)
    return str(exc.value), exc.value.line, exc.value.column


def test_illegal_character():
    assert _lex_error("x @ y") == ("1:3: illegal character '@'", 1, 3)
    assert _lex_error("x :=\n  y\xa0") == ("2:4: illegal character '\\xa0'", 2, 4)


def test_identifier_cannot_start_with_digit():
    assert _lex_error("x := 12ab") == (
        "1:6: identifier may not start with a digit: '12a'...",
        1,
        6,
    )


def test_non_decimal_digits_are_illegal():
    # str.isdigit() holds for '²', but int() cannot read it
    assert _lex_error("x := 1²") == ("1:7: illegal character '²'", 1, 7)
    assert _lex_error("²") == ("1:1: illegal character '²'", 1, 1)
    # decimal digits of any script are numbers
    assert kinds("٣") == [("int", "٣")]


def test_eof_position_after_trailing_comment():
    toks = tokenize("x\n  -- note")
    assert (toks[-1].kind, toks[-1].line, toks[-1].column) == ("eof", 2, 10)


def test_crlf_columns():
    # a \r is one column; only \n starts a line
    toks = tokenize("x :=\r\n  5 \r-- c\r\n")
    assert [(t.value, t.line, t.column) for t in toks] == [
        ("x", 1, 1),
        (":=", 1, 3),
        ("5", 2, 3),
        ("", 3, 1),
    ]
    toks = tokenize("a\r\tb")
    assert [(t.value, t.column) for t in toks] == [("a", 1), ("b", 4), ("", 5)]


def test_underscored_identifiers():
    assert kinds("_x x_1") == [("ident", "_x"), ("ident", "x_1")]


def test_minus_is_not_comment():
    assert kinds("a - b") == [("ident", "a"), ("symbol", "-"), ("ident", "b")]


def test_double_minus_inside_expression_is_comment():
    # '--' always starts a comment; a - -b must be written with a space.
    assert kinds("a - -b") == [
        ("ident", "a"),
        ("symbol", "-"),
        ("symbol", "-"),
        ("ident", "b"),
    ]


def test_token_describe():
    toks = tokenize("x")
    assert "ident" in toks[0].describe()
    assert toks[-1].describe() == "end of input"

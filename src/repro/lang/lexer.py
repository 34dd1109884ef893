"""Lexer for the concurrent language: one compiled master regex.

:func:`tokenize` produces a list of :class:`~repro.lang.tokens.Token`.
Whitespace is insignificant; ``--`` starts a comment running to end of
line (the paper predates any fixed comment syntax, so we borrow Ada's).
Every lexeme, and every run of whitespace and comments, is one
``finditer`` match of :data:`_LEXEME`.  Lines and columns come from
newline offsets: a column counts code points from the start of its
line, so a tab or a ``\\r`` is one column.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexError
from repro.lang.tokens import KEYWORDS, SYMBOLS, Token

#: The alternatives, tried in order at each offset.  ``int`` takes
#: decimal digits only: a digit such as ``²`` that ``int()`` cannot
#: read is an illegal character.  An identifier continues with ``\w``
#: (``str.isalnum()`` or ``_``) but must start with ``str.isalpha()`` or
#: ``_``, which no ``re`` class expresses (``[^\W\d]`` also admits
#: ``²`` and ``Ⅷ``), so :func:`tokenize` checks the first character.
#: ``SYMBOLS`` is longest first, so the alternation is greedy.
_LEXEME = re.compile(
    r"(?P<trivia>(?:[ \t\r\n]|--[^\n]*)+)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>\w+)"
    r"|(?P<symbol>" + "|".join(map(re.escape, SYMBOLS)) + ")"
    r"|(?P<illegal>.)",
    re.DOTALL,
)

#: Builds a ``Token`` without ``NamedTuple``'s Python-level ``__new__``.
_token = tuple.__new__


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` completely (including the trailing eof token).

    Raises :class:`~repro.errors.LexError` at the line and column of an
    illegal character or of a number running into a letter.
    """
    tokens: List[Token] = []
    line, line_start = 1, 0
    for match in _LEXEME.finditer(source):
        kind, text, start = match.lastgroup, match[0], match.start()
        if kind == "trivia":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        column = start - line_start + 1
        if kind == "ident":
            if not (text[0].isalpha() or text[0] == "_"):
                raise LexError(f"illegal character {text[0]!r}", line, column)
            if text in KEYWORDS:
                kind = "keyword"
        elif kind == "int":
            end = match.end()
            if source[end:end + 1].isalpha():
                raise LexError(
                    "identifier may not start with a digit: "
                    f"{source[start:end + 1]!r}...",
                    line,
                    column,
                )
        elif kind == "illegal":
            raise LexError(f"illegal character {text!r}", line, column)
        tokens.append(_token(Token, (kind, text, line, column)))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens

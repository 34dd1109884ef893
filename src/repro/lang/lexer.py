"""Lexer for the concurrent language: one compiled regex, one ``findall`` a line.

:func:`tokenize` produces a list of :class:`~repro.lang.tokens.Token`.
Whitespace is insignificant; ``--`` starts a comment running to end of
line (the paper predates any fixed comment syntax, so we borrow Ada's).
The source is split on ``"\\n"`` alone, never by ``str.splitlines``,
which would also end a line at ``\\r``, ``\\x0c`` or ``\\u2028`` and so
move lines, columns and errors.  Each line is read with one
``findall`` of :data:`_LEXEME`, whose every match is the whitespace
before a lexeme and the lexeme, so no match object is built.  A column
is the running sum of the lengths read so far on its line: it counts
code points from the start of the line, so a tab or a ``\\r`` is one
column.  Reading a line at a time keeps the matches held at once to one
line's worth.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexError
from repro.lang.tokens import KEYWORDS, SYMBOLS, Token

#: Whitespace, then the first of these that matches: an ``int`` of
#: decimal digits, with the ``\w`` character after it if that is not
#: ``_`` (a letter there, or a digit such as ``²`` that ``int()`` cannot
#: read, is an error); an identifier or keyword; a comment (no group); a
#: symbol; an illegal character; or the end of the line, which lets
#: trailing whitespace match in one step.  An identifier continues with
#: ``\w`` (``str.isalnum()`` or ``_``) but must start with
#: ``str.isalpha()`` or ``_``, which no ``re`` class expresses
#: (``[^\W\d]`` also admits ``²`` and ``Ⅷ``), so :func:`tokenize`
#: checks the first character.  The two-character symbols come before
#: the one-character class, so the symbol match is greedy.
_LEXEME = re.compile(
    r"([ \t\r]*)(?:(\d+[^\W_]?)|(\w+)|--.*|("
    + "|".join(re.escape(sym) for sym in SYMBOLS if len(sym) > 1)
    + "|["
    + "".join(re.escape(sym) for sym in SYMBOLS if len(sym) == 1)
    + r"])|(.)|$)"
)

#: Builds a ``Token`` without ``NamedTuple``'s Python-level ``__new__``.
_token = tuple.__new__


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` completely (including the trailing eof token).

    Raises :class:`~repro.errors.LexError` at the line and column of an
    illegal character or of a number running into a letter.
    """
    tokens: List[Token] = []
    append = tokens.append
    line = 0
    for text in source.split("\n"):
        line += 1
        column = 1
        for space, number, word, symbol, illegal in _LEXEME.findall(text):
            column += len(space)
            if word:
                if word in KEYWORDS:
                    append(_token(Token, ("keyword", word, line, column)))
                elif word[0].isalpha() or word[0] == "_":
                    append(_token(Token, ("ident", word, line, column)))
                else:
                    raise LexError(f"illegal character {word[0]!r}", line, column)
                column += len(word)
            elif symbol:
                append(_token(Token, ("symbol", symbol, line, column)))
                column += len(symbol)
            elif number:
                if not number[-1].isdecimal():
                    if number[-1].isalpha():
                        raise LexError(
                            f"identifier may not start with a digit: {number!r}...",
                            line,
                            column,
                        )
                    column += len(number) - 1
                    raise LexError(f"illegal character {number[-1]!r}", line, column)
                append(_token(Token, ("int", number, line, column)))
                column += len(number)
            elif illegal:
                raise LexError(f"illegal character {illegal!r}", line, column)
    append(_token(Token, ("eof", "", line, len(text) + 1)))
    return tokens

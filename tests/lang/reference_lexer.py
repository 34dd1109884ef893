"""The character-at-a-time lexer, kept as a test-only oracle.

This is the scanner ``repro.lang.lexer`` used before it became one
compiled regex, copied verbatim below this docstring.
``tests/lang/test_lexer_differential.py`` requires the two to produce
the same tokens and the same ``LexError`` text and position.  It is
kept because it is easy to check by eye (a ``_peek``/``_advance`` call
per character), not for speed, and nothing under ``src/`` imports it.

Original docstring: hand-written lexer for the concurrent language.
Produces a list of :class:`~repro.lang.tokens.Token`.  Whitespace is
insignificant; ``--`` starts a comment running to end of line (the
paper predates any fixed comment syntax, so we borrow Ada's).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.errors import LexError
from repro.lang.tokens import KEYWORDS, SYMBOLS, Token


class Lexer:
    """Converts source text into tokens.

    The lexer is a simple single-pass scanner; it never backtracks and
    reports the exact line/column of any illegal character.
    """

    def __init__(self, source: str):
        self._source = source
        self._pos = 0
        self._line = 1
        self._col = 1

    def _peek(self, offset: int = 0) -> str:
        idx = self._pos + offset
        return self._source[idx] if idx < len(self._source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._source):
                return
            if self._source[self._pos] == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
            self._pos += 1

    def _skip_trivia(self) -> None:
        while self._pos < len(self._source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def tokens(self) -> Iterator[Token]:
        """Yield all tokens, ending with a single ``eof`` token."""
        while True:
            self._skip_trivia()
            if self._pos >= len(self._source):
                yield Token("eof", "", self._line, self._col)
                return
            line, col = self._line, self._col
            ch = self._peek()
            if ch.isalpha() or ch == "_":
                start = self._pos
                while self._peek().isalnum() or self._peek() == "_":
                    self._advance()
                word = self._source[start : self._pos]
                kind = "keyword" if word in KEYWORDS else "ident"
                yield Token(kind, word, line, col)
                continue
            if ch.isdigit():
                start = self._pos
                while self._peek().isdigit():
                    self._advance()
                if self._peek().isalpha():
                    raise LexError(
                        f"identifier may not start with a digit: "
                        f"{self._source[start:self._pos + 1]!r}...",
                        line,
                        col,
                    )
                yield Token("int", self._source[start : self._pos], line, col)
                continue
            for sym in SYMBOLS:
                if self._source.startswith(sym, self._pos):
                    self._advance(len(sym))
                    yield Token("symbol", sym, line, col)
                    break
            else:
                raise LexError(f"illegal character {ch!r}", line, col)


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` completely (including the trailing eof token)."""
    return list(Lexer(source).tokens())

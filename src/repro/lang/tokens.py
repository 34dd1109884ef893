"""Token definitions for the concurrent language."""

from __future__ import annotations

from typing import NamedTuple, Optional


#: Reserved words of the language.  ``mod`` is the modulo operator;
#: ``initially`` appears only in semaphore declarations.
KEYWORDS = frozenset(
    {
        "var",
        "integer",
        "semaphore",
        "initially",
        "begin",
        "end",
        "if",
        "then",
        "else",
        "while",
        "do",
        "cobegin",
        "coend",
        "wait",
        "signal",
        "skip",
        "proc",
        "call",
        # "in" and "out" are contextual (parameter-section markers only),
        # so programs may still use them as variable names.
        "true",
        "false",
        "and",
        "or",
        "not",
        "mod",
    }
)

#: Multi-character symbols, longest first so the lexer is greedy.
SYMBOLS = (
    ":=",
    "||",
    "<=",
    ">=",
    "<",
    ">",
    "=",
    "#",
    "+",
    "-",
    "*",
    "/",
    "(",
    ")",
    ";",
    ",",
    ":",
)


class Token(NamedTuple):
    """A lexical token.

    ``kind`` is one of ``"ident"``, ``"int"``, ``"keyword"``,
    ``"symbol"``, or ``"eof"``; ``value`` is the lexeme text (``""`` for
    eof).  ``line`` and ``column`` are 1-based source coordinates.
    """

    kind: str
    value: str
    line: int
    column: int

    def is_keyword(self, word: Optional[str] = None) -> bool:
        """True if this token is a keyword (optionally a specific one)."""
        return self.kind == "keyword" and (word is None or self.value == word)

    def is_symbol(self, sym: Optional[str] = None) -> bool:
        """True if this token is a symbol (optionally a specific one)."""
        return self.kind == "symbol" and (sym is None or self.value == sym)

    def describe(self) -> str:
        """Human-readable description for error messages."""
        if self.kind == "eof":
            return "end of input"
        return f"{self.kind} {self.value!r}"

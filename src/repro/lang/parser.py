"""Parser for the concurrent language.

Grammar (EBNF, ``[]`` optional, ``{}`` repetition)::

    program  = [ "var" decl ";" { decl ";" } ] stmt
    decl     = ident { "," ident } ":" type
    type     = "integer" | "semaphore" [ "initially" "(" int ")" ]
    stmt     = assign | if | while | begin | cobegin | wait | signal | "skip"
    assign   = ident ":=" expr
    if       = "if" expr "then" stmt [ "else" stmt ]
    while    = "while" expr "do" stmt
    begin    = "begin" stmt { ";" stmt } [ ";" ] "end"
    cobegin  = "cobegin" stmt { "||" stmt } "coend"
    wait     = "wait" "(" ident ")"
    signal   = "signal" "(" ident ")"
    expr     = andexpr { "or" andexpr }
    andexpr  = notexpr { "and" notexpr }
    notexpr  = "not" notexpr | relexpr
    relexpr  = arith [ ("=" | "#" | "<" | "<=" | ">" | ">=") arith ]
    arith    = term { ("+" | "-") term }
    term     = factor { ("*" | "/" | "mod") factor }
    factor   = int | "true" | "false" | ident | "(" expr ")" | "-" factor

``#`` is the paper's "not equal" operator.

Statements are parsed by recursive descent, dispatching on their first
token.  Expressions are parsed by precedence climbing over
:data:`_BINARY`: ``or`` binds at 1, ``and`` at 2, the relational
operators at 4, ``+ -`` at 5 and ``* / mod`` at 6.  The binary
operators associate to the left, except that the relational ones do
not chain.  ``not`` is a prefix at level 3, so it stands only where the
grammar has a ``notexpr`` (``a + not b`` is an error at ``not``), and
``-`` prefixes a factor.  ``or``, ``and``, the relational operators and
both prefixes carry their operator's position as ``loc``; ``+ - * /
mod`` carry ``Loc.none()``.  Every node is created after its children,
so ``uid`` order is post-order.

Nesting is bounded: past :data:`MAX_DEPTH` levels the parser raises a
positioned :class:`~repro.errors.ParseError` (``L:C: nesting deeper
than 128 levels``) instead of overflowing Python's stack, here or in
any recursive consumer of the tree.  Statements, parentheses, unary
operators and binary operators each count one level; a chain of ``n``
binary operators is ``n`` levels, because that is how deep its tree
is.  The count is kept while parsing, O(1) per node.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Union

from repro.errors import LoadError, ParseError
from repro.lang.ast import (
    Assign,
    Begin,
    BinOp,
    BoolLit,
    Cobegin,
    Expr,
    If,
    IntLit,
    Loc,
    Program,
    Signal,
    Skip,
    Stmt,
    UnOp,
    Var,
    VarDecl,
    Wait,
    While,
)
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token

#: Deepest nesting the parser accepts.  Every named corpus and the fuzz
#: generator stay under 20 levels.  A level costs the parser at most two
#: stack frames, so at this bound its own recursion stays far under
#: Python's default limit of 1000 frames.
MAX_DEPTH = 128

#: The precedence of each binary operator.  Only a keyword or a symbol
#: can spell one, so a token's value alone says whether it is one.
_BINARY = {
    "or": 1,
    "and": 2,
    **dict.fromkeys(("=", "#", "<", "<=", ">", ">="), 4),
    **dict.fromkeys(("+", "-"), 5),
    **dict.fromkeys(("*", "/", "mod"), 6),
}


class Parser:
    """A single-use parser over a token list."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0
        #: Levels enclosing the token being parsed.
        self._depth = 0
        #: Deepest level inside the expression parsed last.
        self._deepest = 0

    # -- token plumbing -------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _loc(self) -> Loc:
        tok = self._peek()
        return Loc(tok.line, tok.column)

    def _error(self, message: str) -> ParseError:
        tok = self._peek()
        return ParseError(f"{message}, found {tok.describe()}", tok.line, tok.column)

    def _expect(self, value: str) -> None:
        """Step over the keyword or symbol ``value``, or raise."""
        if self._tokens[self._pos].value != value:
            raise self._error(f"expected {value!r}")
        self._pos += 1

    def _expect_ident(self, what: str = "identifier") -> Token:
        if self._peek().kind != "ident":
            raise self._error(f"expected {what}")
        return self._advance()

    # -- nesting bound ---------------------------------------------------

    def _too_deep(self, tok: Token) -> ParseError:
        return ParseError(
            f"nesting deeper than {MAX_DEPTH} levels", tok.line, tok.column
        )

    # -- programs and declarations --------------------------------------

    def parse_program(self) -> Program:
        """Parse a full program (procedures, declarations, one statement)."""
        loc = self._loc()
        procs = []
        while self._peek().is_keyword("proc"):
            procs.append(self._parse_proc())
            if self._peek().is_symbol(";"):
                self._advance()
        decls: List[VarDecl] = []
        if self._peek().is_keyword("var"):
            self._advance()
            decls.append(self._parse_decl())
            self._expect(";")
            # Further declaration groups, until the body's first statement.
            # Both a declaration and an assignment start with an identifier,
            # so look ahead: "ident {, ident} :" is a declaration group,
            # "ident :=" is the body.
            while self._peek().kind == "ident" and self._looks_like_decl():
                decls.append(self._parse_decl())
                self._expect(";")
        body = self.parse_statement()
        if self._peek().kind != "eof":
            raise self._error("expected end of input after program body")
        return Program(decls, body, loc, procs=procs)

    def _parse_proc(self):
        """``proc name(in a, b; out c) stmt`` (either section optional)."""
        from repro.lang.procs import ProcDecl

        loc = self._loc()
        self._expect("proc")
        name = self._expect_ident("procedure name").value
        self._expect("(")
        ins: List[str] = []
        outs: List[str] = []
        # "in" and "out" are contextual markers, not reserved words.
        if self._peek().kind == "ident" and self._peek().value == "in":
            self._advance()
            ins.append(self._expect_ident("in-parameter").value)
            while self._peek().is_symbol(","):
                self._advance()
                ins.append(self._expect_ident("in-parameter").value)
        if self._peek().is_symbol(";"):
            self._advance()
        if self._peek().kind == "ident" and self._peek().value == "out":
            self._advance()
            outs.append(self._expect_ident("out-parameter").value)
            while self._peek().is_symbol(","):
                self._advance()
                outs.append(self._expect_ident("out-parameter").value)
        self._expect(")")
        body = self.parse_statement()
        return ProcDecl(name, ins, outs, body, loc)

    def _looks_like_decl(self) -> bool:
        """Lookahead: does an ``ident {, ident} :`` declaration follow?"""
        pos = self._pos
        while True:
            if self._tokens[pos].kind != "ident":
                return False
            pos += 1
            tok = self._tokens[pos]
            if tok.is_symbol(":"):
                return True
            if not tok.is_symbol(","):
                return False
            pos += 1

    def _parse_decl(self) -> VarDecl:
        loc = self._loc()
        names = [self._expect_ident("declared variable name").value]
        while self._peek().is_symbol(","):
            self._advance()
            names.append(self._expect_ident("declared variable name").value)
        self._expect(":")
        if self._peek().is_keyword("integer"):
            self._advance()
            kind, initial = "integer", 0
            if self._peek().is_keyword("initially"):
                initial = self._parse_initially()
        elif self._peek().is_keyword("semaphore"):
            self._advance()
            kind, initial = "semaphore", 0
            if self._peek().is_keyword("initially"):
                initial = self._parse_initially()
        else:
            raise self._error("expected 'integer' or 'semaphore'")
        return VarDecl(names, kind, initial, loc)

    def _parse_initially(self) -> int:
        self._expect("initially")
        self._expect("(")
        negative = False
        if self._peek().is_symbol("-"):
            negative = True
            self._advance()
        tok = self._peek()
        if tok.kind != "int":
            raise self._error("expected integer initial value")
        self._advance()
        self._expect(")")
        value = int(tok.value)
        return -value if negative else value

    # -- statements ------------------------------------------------------

    def parse_statement(self) -> Stmt:
        """Parse one statement."""
        tok = self._tokens[self._pos]
        self._depth += 1
        if self._depth > MAX_DEPTH:
            raise self._too_deep(tok)
        if tok.kind == "ident":
            self._pos += 1
            self._expect(":=")
            stmt: Stmt = Assign(tok.value, self._climb(1), Loc(tok.line, tok.column))
        else:
            # only a keyword can spell a key of _STATEMENTS
            parse = _STATEMENTS.get(tok.value)
            if parse is None:
                raise self._error("expected a statement")
            self._pos += 1
            stmt = parse(self, Loc(tok.line, tok.column))
        self._depth -= 1
        return stmt

    def _parse_call(self, loc: Loc):
        """``call name(e1, ...; v1, ...)`` (either argument list optional)."""
        from repro.lang.procs import Call

        name = self._expect_ident("procedure name").value
        self._expect("(")
        in_args: List = []
        out_args: List[str] = []
        if not self._peek().is_symbol(")") and not self._peek().is_symbol(";"):
            in_args.append(self.parse_expression())
            while self._peek().is_symbol(","):
                self._advance()
                in_args.append(self.parse_expression())
        if self._peek().is_symbol(";"):
            self._advance()
            if self._peek().kind == "ident":
                out_args.append(self._advance().value)
                while self._peek().is_symbol(","):
                    self._advance()
                    out_args.append(self._expect_ident("out-argument variable").value)
        self._expect(")")
        return Call(name, in_args, out_args, loc)

    def _parse_begin(self, loc: Loc) -> Begin:
        tokens = self._tokens
        body = [self.parse_statement()]
        while tokens[self._pos].value == ";":
            self._pos += 1
            if tokens[self._pos].value == "end":
                break  # tolerate a trailing semicolon
            body.append(self.parse_statement())
        self._expect("end")
        return Begin(body, loc)

    def _parse_cobegin(self, loc: Loc) -> Cobegin:
        branches = [self.parse_statement()]
        while self._tokens[self._pos].value == "||":
            self._pos += 1
            branches.append(self.parse_statement())
        self._expect("coend")
        return Cobegin(branches, loc)

    def _parse_if(self, loc: Loc) -> If:
        cond = self._climb(1)
        self._expect("then")
        then_branch = self.parse_statement()
        else_branch: Optional[Stmt] = None
        if self._tokens[self._pos].value == "else":
            self._pos += 1
            else_branch = self.parse_statement()
        return If(cond, then_branch, else_branch, loc)

    def _parse_while(self, loc: Loc) -> While:
        cond = self._climb(1)
        self._expect("do")
        return While(cond, self.parse_statement(), loc)

    def _parse_semaphore(self) -> str:
        """``( ident )`` after ``wait`` or ``signal``: the semaphore's name."""
        self._expect("(")
        sem = self._expect_ident("semaphore name").value
        self._expect(")")
        return sem

    # -- expressions ------------------------------------------------------

    def parse_expression(self) -> Expr:
        """Parse one expression (lowest precedence: ``or``)."""
        return self._climb(1)

    def _climb(self, floor: int) -> Expr:
        """Parse an operand, then every operator binding at ``floor`` or tighter.

        ``floor`` 1 parses an ``expr``, 2 an ``andexpr``, 3 a
        ``notexpr``, 5 an ``arith``, 6 a ``term`` and 7 a ``factor``.
        A binary operator sits one level above its right operand, and
        it pushes everything parsed so far on its left one level deeper.
        """
        tokens = self._tokens
        tok = tokens[self._pos]
        kind, value, line, column = tok
        # a leaf adds no level; a parenthesis or a prefix overwrites this
        self._deepest = self._depth
        if kind == "ident":
            self._pos += 1
            left: Expr = Var(value, Loc(line, column))
        elif kind == "int":
            self._pos += 1
            left = IntLit(int(value), Loc(line, column))
        elif value == "(" or value == "-" or (value == "not" and floor <= 3):
            self._depth += 1
            if self._depth > MAX_DEPTH:
                raise self._too_deep(tok)
            self._pos += 1
            if value == "(":
                left = self._climb(1)
                self._expect(")")
            else:
                operand = self._climb(7 if value == "-" else 3)
                left = UnOp(value, operand, Loc(line, column))
            self._depth -= 1
        elif value == "true" or value == "false":
            self._pos += 1
            left = BoolLit(value == "true", Loc(line, column))
        else:
            raise self._error("expected an expression")
        # after a "not", only "and" and "or" may follow
        ceiling = 3 if value == "not" else 6
        while True:
            op = tokens[self._pos]
            prec = _BINARY.get(op.value)
            if prec is None or prec < floor or prec > ceiling:
                return left
            self._pos += 1
            left_deepest = self._deepest
            self._depth += 1
            right = self._climb(prec + 1)
            self._depth -= 1
            if self._deepest <= left_deepest:
                self._deepest = left_deepest + 1
            if self._deepest > MAX_DEPTH:
                raise self._too_deep(op)
            left = BinOp(
                op.value, left, right, Loc(op.line, op.column) if prec < 5 else None
            )
            # a relational operator does not chain; the others associate left
            ceiling = 3 if prec == 4 else prec


#: The statement parser for each statement keyword, called once the
#: keyword is read, with its position.
_STATEMENTS = {
    "begin": Parser._parse_begin,
    "cobegin": Parser._parse_cobegin,
    "if": Parser._parse_if,
    "while": Parser._parse_while,
    "wait": lambda parser, loc: Wait(parser._parse_semaphore(), loc),
    "signal": lambda parser, loc: Signal(parser._parse_semaphore(), loc),
    "skip": lambda parser, loc: Skip(loc),
    "call": Parser._parse_call,
}


def read_source(path: str) -> str:
    """The text of the program file at ``path`` (``-`` reads stdin).

    Raises :class:`~repro.errors.LoadError` when the file cannot be
    read as UTF-8 text, so every command reports it the same way.
    """
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc


def parse_program(source: str) -> Program:
    """Parse complete source text into a :class:`Program`."""
    return Parser(tokenize(source)).parse_program()


def parse_statement(source: str) -> Stmt:
    """Parse source text containing exactly one statement."""
    parser = Parser(tokenize(source))
    stmt = parser.parse_statement()
    if parser._peek().kind != "eof":
        raise parser._error("expected end of input after statement")
    return stmt


def parse_subject(source: str, kind: str) -> Union[Program, Stmt]:
    """Parse source text as a ``"program"`` or a ``"statement"``."""
    if kind == "program":
        return parse_program(source)
    if kind == "statement":
        return parse_statement(source)
    raise ValueError(
        f"unknown subject kind {kind!r}; expected 'program' or 'statement'"
    )


def parse_expression(source: str) -> Expr:
    """Parse source text containing exactly one expression."""
    parser = Parser(tokenize(source))
    expr = parser.parse_expression()
    if parser._peek().kind != "eof":
        raise parser._error("expected end of input after expression")
    return expr

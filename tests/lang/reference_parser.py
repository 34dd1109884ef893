"""The recursive-descent parser with one method per precedence level,
kept as a test-only oracle.

This is the ``Parser`` that ``repro.lang.parser`` used before it parsed
expressions by precedence climbing, copied verbatim below this
docstring with the ``parse_program``, ``parse_statement`` and
``parse_expression`` entry points (only the imports they no longer
need are dropped).  ``tests/lang/test_parser_differential.py`` requires
the two to build the same tree (node types, fields, locations and
creation order) or to raise the same error at the same position.  It
is kept because it is easy to check against the grammar by eye (one
method per nonterminal), not for speed, and nothing under ``src/``
imports it.

Original docstring: recursive-descent parser for the concurrent
language.  Nesting is bounded: past :data:`MAX_DEPTH` levels the
parser raises a positioned :class:`~repro.errors.ParseError` instead of
overflowing Python's stack.  Statements, parentheses, unary operators
and binary operators each count one level; a chain of ``n`` binary
operators is ``n`` levels, because that is how deep its tree is.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ParseError
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
#: generator stay under 20 levels.  A parenthesis costs the parser about
#: seven stack frames, so at this bound its own recursion stays under
#: Python's default limit of 1000 frames.
MAX_DEPTH = 128


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

    def _expect_symbol(self, sym: str) -> Token:
        if not self._peek().is_symbol(sym):
            raise self._error(f"expected {sym!r}")
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        if not self._peek().is_keyword(word):
            raise self._error(f"expected {word!r}")
        return self._advance()

    def _expect_ident(self, what: str = "identifier") -> Token:
        if self._peek().kind != "ident":
            raise self._error(f"expected {what}")
        return self._advance()

    # -- nesting bound ---------------------------------------------------

    def _too_deep(self, tok: Token) -> ParseError:
        return ParseError(
            f"nesting deeper than {MAX_DEPTH} levels", tok.line, tok.column
        )

    def _enter(self) -> None:
        """Open one level at the current token; refuse past the bound."""
        self._depth += 1
        if self._depth > MAX_DEPTH:
            raise self._too_deep(self._peek())

    def _right_operand(self, parse, op: Token) -> Expr:
        """Parse the right operand of binary operator ``op``, counting levels.

        The operator sits one level above its right operand, and it
        pushes everything parsed so far on its left one level deeper.
        """
        left_deepest = self._deepest
        self._depth += 1
        right = parse()
        self._depth -= 1
        if self._deepest <= left_deepest:
            self._deepest = left_deepest + 1
        if self._deepest > MAX_DEPTH:
            raise self._too_deep(op)
        return right

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
            self._expect_symbol(";")
            # Further declaration groups, until the body's first statement.
            # Both a declaration and an assignment start with an identifier,
            # so look ahead: "ident {, ident} :" is a declaration group,
            # "ident :=" is the body.
            while self._peek().kind == "ident" and self._looks_like_decl():
                decls.append(self._parse_decl())
                self._expect_symbol(";")
        body = self.parse_statement()
        if self._peek().kind != "eof":
            raise self._error("expected end of input after program body")
        return Program(decls, body, loc, procs=procs)

    def _parse_proc(self):
        """``proc name(in a, b; out c) stmt`` (either section optional)."""
        from repro.lang.procs import ProcDecl

        loc = self._loc()
        self._expect_keyword("proc")
        name = self._expect_ident("procedure name").value
        self._expect_symbol("(")
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
        self._expect_symbol(")")
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
        self._expect_symbol(":")
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
        self._expect_keyword("initially")
        self._expect_symbol("(")
        negative = False
        if self._peek().is_symbol("-"):
            negative = True
            self._advance()
        tok = self._peek()
        if tok.kind != "int":
            raise self._error("expected integer initial value")
        self._advance()
        self._expect_symbol(")")
        value = int(tok.value)
        return -value if negative else value

    # -- statements ------------------------------------------------------

    def parse_statement(self) -> Stmt:
        """Parse one statement."""
        tok = self._peek()
        loc = self._loc()
        self._enter()
        if tok.kind == "ident":
            name = self._advance().value
            self._expect_symbol(":=")
            stmt: Stmt = Assign(name, self.parse_expression(), loc)
        elif tok.is_keyword("begin"):
            stmt = self._parse_begin()
        elif tok.is_keyword("cobegin"):
            stmt = self._parse_cobegin()
        elif tok.is_keyword("if"):
            stmt = self._parse_if()
        elif tok.is_keyword("while"):
            stmt = self._parse_while()
        elif tok.is_keyword("wait"):
            self._advance()
            self._expect_symbol("(")
            sem = self._expect_ident("semaphore name").value
            self._expect_symbol(")")
            stmt = Wait(sem, loc)
        elif tok.is_keyword("signal"):
            self._advance()
            self._expect_symbol("(")
            sem = self._expect_ident("semaphore name").value
            self._expect_symbol(")")
            stmt = Signal(sem, loc)
        elif tok.is_keyword("skip"):
            self._advance()
            stmt = Skip(loc)
        elif tok.is_keyword("call"):
            stmt = self._parse_call()
        else:
            raise self._error("expected a statement")
        self._depth -= 1
        return stmt

    def _parse_call(self):
        """``call name(e1, ...; v1, ...)`` (either argument list optional)."""
        from repro.lang.procs import Call

        loc = self._loc()
        self._expect_keyword("call")
        name = self._expect_ident("procedure name").value
        self._expect_symbol("(")
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
        self._expect_symbol(")")
        return Call(name, in_args, out_args, loc)

    def _parse_begin(self) -> Begin:
        loc = self._loc()
        self._expect_keyword("begin")
        body = [self.parse_statement()]
        while self._peek().is_symbol(";"):
            self._advance()
            if self._peek().is_keyword("end"):
                break  # tolerate a trailing semicolon
            body.append(self.parse_statement())
        self._expect_keyword("end")
        return Begin(body, loc)

    def _parse_cobegin(self) -> Cobegin:
        loc = self._loc()
        self._expect_keyword("cobegin")
        branches = [self.parse_statement()]
        while self._peek().is_symbol("||"):
            self._advance()
            branches.append(self.parse_statement())
        self._expect_keyword("coend")
        return Cobegin(branches, loc)

    def _parse_if(self) -> If:
        loc = self._loc()
        self._expect_keyword("if")
        cond = self.parse_expression()
        self._expect_keyword("then")
        then_branch = self.parse_statement()
        else_branch: Optional[Stmt] = None
        if self._peek().is_keyword("else"):
            self._advance()
            else_branch = self.parse_statement()
        return If(cond, then_branch, else_branch, loc)

    def _parse_while(self) -> While:
        loc = self._loc()
        self._expect_keyword("while")
        cond = self.parse_expression()
        self._expect_keyword("do")
        body = self.parse_statement()
        return While(cond, body, loc)

    # -- expressions ------------------------------------------------------

    def parse_expression(self) -> Expr:
        """Parse one expression (lowest precedence: ``or``)."""
        expr = self._parse_and()
        while self._peek().is_keyword("or"):
            loc = self._loc()
            op = self._advance()
            expr = BinOp("or", expr, self._right_operand(self._parse_and, op), loc)
        return expr

    def _parse_and(self) -> Expr:
        expr = self._parse_not()
        while self._peek().is_keyword("and"):
            loc = self._loc()
            op = self._advance()
            expr = BinOp("and", expr, self._right_operand(self._parse_not, op), loc)
        return expr

    def _parse_not(self) -> Expr:
        if self._peek().is_keyword("not"):
            loc = self._loc()
            self._enter()
            self._advance()
            operand = self._parse_not()
            self._depth -= 1
            return UnOp("not", operand, loc)
        return self._parse_rel()

    def _parse_rel(self) -> Expr:
        expr = self._parse_arith()
        tok = self._peek()
        if tok.kind == "symbol" and tok.value in ("=", "#", "<", "<=", ">", ">="):
            loc = self._loc()
            self._advance()
            expr = BinOp(
                tok.value, expr, self._right_operand(self._parse_arith, tok), loc
            )
        return expr

    def _parse_arith(self) -> Expr:
        expr = self._parse_term()
        while self._peek().is_symbol("+") or self._peek().is_symbol("-"):
            op = self._advance()
            expr = BinOp(op.value, expr, self._right_operand(self._parse_term, op))
        return expr

    def _parse_term(self) -> Expr:
        expr = self._parse_factor()
        while (
            self._peek().is_symbol("*")
            or self._peek().is_symbol("/")
            or self._peek().is_keyword("mod")
        ):
            op = self._advance()
            expr = BinOp(op.value, expr, self._right_operand(self._parse_factor, op))
        return expr

    def _parse_factor(self) -> Expr:
        tok = self._peek()
        loc = self._loc()
        # a leaf adds no level; a parenthesis or a minus overwrites this
        self._deepest = self._depth
        if tok.kind == "int":
            self._advance()
            return IntLit(int(tok.value), loc)
        if tok.is_keyword("true"):
            self._advance()
            return BoolLit(True, loc)
        if tok.is_keyword("false"):
            self._advance()
            return BoolLit(False, loc)
        if tok.kind == "ident":
            self._advance()
            return Var(tok.value, loc)
        if tok.is_symbol("("):
            self._enter()
            self._advance()
            expr = self.parse_expression()
            self._expect_symbol(")")
            self._depth -= 1
            return expr
        if tok.is_symbol("-"):
            self._enter()
            self._advance()
            operand = self._parse_factor()
            self._depth -= 1
            return UnOp("-", operand, loc)
        raise self._error("expected an expression")


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


def parse_expression(source: str) -> Expr:
    """Parse source text containing exactly one expression."""
    parser = Parser(tokenize(source))
    expr = parser.parse_expression()
    if parser._peek().kind != "eof":
        raise parser._error("expected end of input after expression")
    return expr

"""The paper's simple concurrent programming language (section 2.0).

Statements: assignment, alternation (``if``/``then``/``else``),
iteration (``while``/``do``), composition (``begin``...``end``),
concurrency (``cobegin``...``coend`` with ``||`` separators), and the
semaphore primitives ``wait``/``signal``.  We additionally support
``skip``, an optional ``else`` branch, ``var`` declaration blocks with
``integer`` and ``semaphore initially(n)`` types, and ``--`` comments.

The package provides the lexer, a parser producing a typed AST
(recursive descent for statements, precedence climbing for
expressions), a pretty-printer (the parser and printer round-trip), a
programmatic builder DSL, and a static validator.
"""

from repro.lang.ast import (
    Assign,
    Begin,
    BinOp,
    BoolLit,
    Cobegin,
    Expr,
    If,
    IntLit,
    Node,
    Program,
    Signal,
    Skip,
    Stmt,
    UnOp,
    Var,
    VarDecl,
    Wait,
    While,
    expr_variables,
    iter_nodes,
    iter_statements,
    program_size,
)
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser, parse_expression, parse_program, parse_statement
from repro.lang.pretty import pretty
from repro.lang.validate import validate_program

__all__ = [
    "Node",
    "Expr",
    "Var",
    "IntLit",
    "BoolLit",
    "BinOp",
    "UnOp",
    "Stmt",
    "Assign",
    "If",
    "While",
    "Begin",
    "Cobegin",
    "Wait",
    "Signal",
    "Skip",
    "VarDecl",
    "Program",
    "expr_variables",
    "iter_nodes",
    "iter_statements",
    "program_size",
    "tokenize",
    "Parser",
    "parse_program",
    "parse_statement",
    "parse_expression",
    "pretty",
    "validate_program",
]

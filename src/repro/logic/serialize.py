"""Proof certificates: serialize flow proofs to JSON and back.

A generated proof is only useful beyond its process if it can be
stored, shipped, and *re-checked* elsewhere — a verification
certificate.  This module turns :class:`~repro.logic.proof.ProofNode`
trees into plain JSON and reconstructs them against a program.

Statements are addressed by **preorder index** over the program's
statement nodes (stable across parses of the same source, unlike
session-local uids); the synthesized ``skip`` premises that stand in
for missing ``else`` branches are marked explicitly.  Lattice elements
are encoded with structural tags so product/powerset classes survive
the trip.

The certificate proves nothing by itself: after :func:`load_proof` the
consumer runs the independent checker, exactly as for a freshly
generated proof.  A tampered certificate therefore fails in one of two
ways — it does not decode against the program, or the checker rejects
it (both exercised in the tests).
"""

from __future__ import annotations

from typing import Any, Dict, List, Union

from repro.errors import LogicError
from repro.lang.ast import Program, Skip, Stmt, iter_statements
from repro.lattice.base import Element, Lattice
from repro.lattice.extended import NIL
from repro.logic.assertions import Bound, FlowAssertion
from repro.logic.classexpr import (
    GLOBAL,
    LOCAL,
    ClassExpr,
    VarClass,
)
from repro.logic.proof import ProofNode

FORMAT = "repro-flow-proof"
VERSION = 1


# -- lattice elements -----------------------------------------------------


def encode_element(value: Element) -> Any:
    if value is NIL:
        return {"t": "nil"}
    if isinstance(value, frozenset):
        return {"t": "set", "v": sorted((encode_element(x) for x in value), key=repr)}
    if isinstance(value, tuple):
        return {"t": "tup", "v": [encode_element(x) for x in value]}
    return {"t": "atom", "v": value}


def decode_element(data: Any, scheme: Lattice) -> Element:
    value = _decode_raw(data)
    if value is NIL:
        return NIL
    return scheme.check(value)


def _decode_raw(data: Any) -> Any:
    if not isinstance(data, dict) or "t" not in data:
        raise LogicError(f"malformed element encoding: {data!r}")
    tag = data["t"]
    if tag == "nil":
        return NIL
    if tag == "atom":
        return data["v"]
    if tag == "set":
        return frozenset(_decode_raw(x) for x in data["v"])
    if tag == "tup":
        return tuple(_decode_raw(x) for x in data["v"])
    raise LogicError(f"unknown element tag {tag!r}")


# -- class expressions and assertions ----------------------------------------


def encode_expr(expr: ClassExpr) -> Dict[str, Any]:
    symbols = []
    for s in sorted(expr.symbols, key=repr):
        if isinstance(s, VarClass):
            symbols.append(["var", s.name])
        else:
            symbols.append(["cert", s.kind])
    return {"symbols": symbols, "const": encode_element(expr.const)}


def decode_expr(data: Dict[str, Any], scheme: Lattice) -> ClassExpr:
    symbols = []
    for kind, name in data.get("symbols", ()):
        if kind == "var":
            symbols.append(VarClass(name))
        elif kind == "cert":
            symbols.append(LOCAL if name == "local" else GLOBAL)
        else:
            raise LogicError(f"unknown symbol kind {kind!r}")
    const = data.get("const", {"t": "nil"})
    raw = _decode_raw(const)
    if raw is not NIL:
        scheme.check(raw)
    return ClassExpr(symbols, raw if raw is not NIL else NIL)


def encode_assertion(assertion: FlowAssertion) -> List[Dict[str, Any]]:
    return [
        {"lhs": encode_expr(b.lhs), "rhs": encode_expr(b.rhs)}
        for b in sorted(assertion.bounds, key=repr)
    ]


def decode_assertion(data: List[Dict[str, Any]], scheme: Lattice) -> FlowAssertion:
    return FlowAssertion(
        Bound(decode_expr(b["lhs"], scheme), decode_expr(b["rhs"], scheme))
        for b in data
    )


# -- statements by preorder index ------------------------------------------------


def _statement_table(subject: Union[Program, Stmt]) -> Dict[int, Stmt]:
    stmt = subject.body if isinstance(subject, Program) else subject
    return dict(enumerate(iter_statements(stmt)))


def _statement_index(subject: Union[Program, Stmt]) -> Dict[int, int]:
    return {node.uid: i for i, node in _statement_table(subject).items()}


# -- proofs --------------------------------------------------------------------


def dump_proof(proof: ProofNode, subject: Union[Program, Stmt]) -> Dict[str, Any]:
    """Encode ``proof`` (about ``subject``) as a JSON-ready dict."""
    index = _statement_index(subject)
    synthetic: Dict[int, int] = {}  # Skip uid -> certificate-local id

    def encode_node(node: ProofNode) -> Dict[str, Any]:
        if node.stmt.uid in index:
            stmt_ref: Any = index[node.stmt.uid]
        elif isinstance(node.stmt, Skip):
            # Keep identity: a consequence and its skip axiom must refer
            # to the *same* synthesized statement after reloading.
            key = synthetic.setdefault(node.stmt.uid, len(synthetic))
            stmt_ref = f"synthetic-skip:{key}"
        else:
            raise LogicError(
                f"proof mentions a statement outside the subject: {node.stmt!r}"
            )
        return {
            "rule": node.rule,
            "stmt": stmt_ref,
            "pre": encode_assertion(node.pre),
            "post": encode_assertion(node.post),
            "premises": [encode_node(p) for p in node.premises],
            "note": node.note,
        }

    return {
        "format": FORMAT,
        "version": VERSION,
        "statements": sum(1 for _ in _statement_table(subject)),
        "proof": encode_node(proof),
    }


def load_proof(
    data: Dict[str, Any], subject: Union[Program, Stmt], scheme: Lattice
) -> ProofNode:
    """Reconstruct a proof against ``subject``.

    Raises :class:`LogicError` when the certificate does not fit the
    program (wrong format, out-of-range statement references).  The
    result still needs :func:`repro.logic.checker.check_proof` — a
    certificate is a claim, not a verdict.
    """
    if data.get("format") != FORMAT:
        raise LogicError("not a flow-proof certificate")
    if data.get("version") != VERSION:
        raise LogicError(f"unsupported certificate version {data.get('version')!r}")
    table = _statement_table(subject)
    if data.get("statements") != len(table):
        raise LogicError(
            f"certificate is for a program with {data.get('statements')} "
            f"statements; this one has {len(table)}"
        )

    synthetic: Dict[str, Skip] = {}

    def decode_node(node: Dict[str, Any]) -> ProofNode:
        ref = node.get("stmt")
        if isinstance(ref, str) and ref.startswith("synthetic-skip"):
            stmt: Stmt = synthetic.setdefault(ref, Skip())
        else:
            if not isinstance(ref, int) or ref not in table:
                raise LogicError(f"bad statement reference {ref!r}")
            stmt = table[ref]
        return ProofNode(
            node["rule"],
            stmt,
            decode_assertion(node.get("pre", []), scheme),
            decode_assertion(node.get("post", []), scheme),
            [decode_node(p) for p in node.get("premises", [])],
            node.get("note", ""),
        )

    return decode_node(data["proof"])

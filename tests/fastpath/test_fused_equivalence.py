"""Direct fused-vs-reference agreement, plus the fallback contract.

The golden differential test pins the *pipeline* output; this file
drives the engine entry points themselves — over the named corpora,
seeded generator output in both profiles, every scheme, both Denning
modes — and checks the decline/fallback behavior that keeps the fast
path a pure optimization.
"""

import pytest

from repro.fastpath import fused_cert, fused_denning
from repro.lang.builder import assign
from repro.lang.parser import parse_program, parse_statement
from repro.pipeline.analyses import (
    DEFAULT_CONFIG,
    _reference_cert,
    _reference_denning,
)
from repro.workloads.generators import random_program
from repro.workloads.suites import corpus, corpus_names

CONFIGS = [
    dict(DEFAULT_CONFIG),
    dict(DEFAULT_CONFIG, on_concurrency="reject"),
    dict(DEFAULT_CONFIG, scheme="four-level", high=("h",)),
    dict(DEFAULT_CONFIG, scheme="diamond", high=("h", "v0")),
]


@pytest.mark.parametrize("corpus_name", sorted(corpus_names()))
def test_fused_agrees_on_every_corpus(corpus_name):
    for name, subject in corpus(corpus_name):
        for config in CONFIGS:
            fast = fused_cert(subject, config)
            assert fast is not None, (corpus_name, name)
            assert fast == _reference_cert(subject, config), (corpus_name, name)
            fast_d = fused_denning(subject, config)
            assert fast_d == _reference_denning(subject, config), (
                corpus_name,
                name,
            )


def test_fused_agrees_on_generated_programs_both_profiles():
    config = dict(DEFAULT_CONFIG, high=("v0",))
    for seed in range(25):
        for runtime_safe in (False, True):
            subject = random_program(
                seed=seed, size=30, runtime_safe=runtime_safe, p_cobegin=0.2
            )
            assert fused_cert(subject, config) == _reference_cert(
                subject, config
            ), seed
            assert fused_denning(subject, config) == _reference_denning(
                subject, config
            ), seed


def test_repeat_calls_answer_identically():
    subject = parse_program(
        "var x, h, s : integer;"
        "begin x := h; while x > 0 do x := x - 1; "
        "cobegin x := 1 || h := x coend end"
    )
    config = dict(DEFAULT_CONFIG)
    first = fused_cert(subject, config)
    again = fused_cert(subject, config)
    assert again == first == _reference_cert(subject, config)


def test_declines_procedure_programs():
    source = (
        "proc inc(in a; out b) b := a + 1 "
        "var x, h : integer; begin call inc(h; x) end"
    )
    subject = parse_program(source)
    assert subject.procs
    assert fused_cert(subject, dict(DEFAULT_CONFIG)) is None
    assert fused_denning(subject, dict(DEFAULT_CONFIG)) is None


def test_declines_unknown_scheme_and_bad_mode():
    subject = parse_statement("x := 1")
    assert fused_cert(subject, dict(DEFAULT_CONFIG, scheme="no-such")) is None
    assert (
        fused_denning(subject, dict(DEFAULT_CONFIG, on_concurrency="weird"))
        is None
    )


def test_declines_non_statement_subjects():
    assert fused_cert("not a program", dict(DEFAULT_CONFIG)) is None


def test_declines_unknown_statement_and_expression_nodes():
    from repro.lang.ast import Expr, Stmt

    class Mystery(Stmt):
        __slots__ = ()

    class Oracle(Expr):
        __slots__ = ()

    config = dict(DEFAULT_CONFIG)
    nested = parse_statement("begin x := 1 end")
    assert fused_cert(nested, config) is not None
    nested.body.append(Mystery())
    assert fused_cert(nested, config) is None
    # after a high variable: the sweep still walks the whole expression
    subject = parse_statement("x := h + 1")
    subject.expr.right = Oracle()
    assert fused_cert(subject, config) is None
    assert fused_denning(subject, config) is None


def test_registry_falls_back_when_fastpath_declines():
    from repro.errors import BindingError
    from repro.pipeline.analyses import ANALYSES

    # Procedure expansion introduces activation variables the config-
    # derived policy cannot see, so the *reference* outcome for this
    # subject is a BindingError; the fast path must decline and let the
    # registry surface exactly that, not swallow or alter it.
    source = (
        "proc inc(in a; out b) b := a + 1 "
        "var x, h : integer; begin call inc(h; x) end"
    )
    subject = parse_program(source)
    with pytest.raises(BindingError):
        _reference_cert(subject, dict(DEFAULT_CONFIG))
    with pytest.raises(BindingError):
        ANALYSES["cert"].run(subject, dict(DEFAULT_CONFIG))


def test_registry_respects_the_fastpath_flag(fused_calls):
    from repro.pipeline.analyses import ANALYSES

    subject = parse_statement("begin x := h; while h > 0 do skip end")
    on = ANALYSES["cert"].run(subject, dict(DEFAULT_CONFIG, fastpath=True))
    assert fused_calls["fused_cert"] == 1  # the flagged-on run used the engine
    off = ANALYSES["cert"].run(subject, dict(DEFAULT_CONFIG, fastpath=False))
    assert fused_calls["fused_cert"] == 1  # the flagged-off run did not
    assert on == off == _reference_cert(subject, dict(DEFAULT_CONFIG))


def test_builder_and_parser_subjects_agree():
    parsed = parse_statement("x := h")
    built = assign("x", "h")
    config = dict(DEFAULT_CONFIG)
    assert fused_cert(parsed, config) == fused_cert(built, config)

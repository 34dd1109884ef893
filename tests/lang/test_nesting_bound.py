"""The parser's nesting bound: refused past it, fully usable at it.

Past :data:`~repro.lang.parser.MAX_DEPTH` levels every parse entry
point raises a positioned :class:`~repro.errors.ParseError`, never a
``RecursionError``.  At exactly the bound, the program survives every
recursive consumer: the pretty-printer, the validator, every
registered analysis, and the pipeline's own re-parse.
"""

import re

import pytest

from repro.errors import ParseError
from repro.fastpath import fused_cert, fused_denning
from repro.lang.parser import (
    MAX_DEPTH,
    parse_expression,
    parse_program,
    parse_statement,
)
from repro.lang.pretty import pretty
from repro.lang.validate import validate_program
from repro.pipeline import ANALYSES, run_pipeline
from repro.pipeline.analyses import (
    DEFAULT_CONFIG,
    _reference_cert,
    _reference_denning,
)
from tests.lang.nesting import SHAPES, nested_program

TOO_DEEP = re.compile(rf"^\d+:\d+: nesting deeper than {MAX_DEPTH} levels$")


@pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 10_000])
@pytest.mark.parametrize("shape", SHAPES)
def test_past_the_bound_is_a_positioned_parse_error(shape, levels):
    source = nested_program(shape, levels)
    with pytest.raises(ParseError, match=TOO_DEEP):
        parse_program(source)
    body = source.split("\n")[1]
    with pytest.raises(ParseError, match=TOO_DEEP):
        parse_statement(body)


def test_a_bare_expression_counts_from_its_own_root():
    parse_expression("(" * MAX_DEPTH + "h" + ")" * MAX_DEPTH)
    with pytest.raises(ParseError, match=TOO_DEEP):
        parse_expression("(" * (MAX_DEPTH + 1) + "h" + ")" * (MAX_DEPTH + 1))


#: ``h`` high, and everything low: the second certifies every shape,
#: which Theorem 1 proof generation (``prove``) requires.
CONFIGS = [dict(DEFAULT_CONFIG), dict(DEFAULT_CONFIG, high=())]


@pytest.mark.parametrize("shape", SHAPES)
def test_at_the_bound_every_consumer_runs(shape):
    program = parse_program(nested_program(shape, MAX_DEPTH))
    assert validate_program(program) == []
    assert pretty(parse_program(pretty(program))) == pretty(program)
    for spec in ANALYSES.values():
        spec.run(program, CONFIGS[1])
    for config in CONFIGS:
        assert fused_cert(program, config) == _reference_cert(program, config)
        assert fused_denning(program, config) == _reference_denning(
            program, config
        )
        # the production path too: the pipeline re-parses pretty text
        fused, reference = (
            run_pipeline(
                [(f"{shape}.rl", program)],
                analyses=sorted(ANALYSES),
                use_cache=False,
                config=dict(config, fastpath=fastpath),
            )
            for fastpath in (True, False)
        )
        assert fused.to_json() == reference.to_json()
    assert fused.errors() == []

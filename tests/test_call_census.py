"""Section 6 as a deterministic gate: call counts grow linearly.

The paper puts CFM certification at time proportional to the
program's length once it is parsed.  Wall-clock slopes move with the
host; cProfile's ``total_calls`` does not: the same interpreter, code
and input make the same calls.  So this census counts the calls of the
production front end (parse, which lexes; validate; pretty) and of the
pipeline's ``cert`` and ``denning`` analyses at their default config,
on generated programs of 200 to 1,600 statements, and bounds the ratio
of each doubling.  Measured ratios read 1.95-2.02; a quadratic term
that makes a tenth of the calls at one size pushes the next ratio past
:data:`BOUND`.

Lint's ratios are printed, not bounded: its ``RacePass`` pairs, its
all-pairs ``sync`` edges and ``flow_graph``'s search from every
variable still grow faster than the program.
"""

import cProfile
import pstats

import pytest

from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.lang.validate import validate_program
from repro.pipeline.analyses import ANALYSES, DEFAULT_CONFIG
from repro.workloads.generators import sized_program

SIZES = (200, 400, 800, 1600)

#: The largest call ratio allowed per doubling of the program.
BOUND = 2.2


def _calls(run) -> int:
    """cProfile's ``total_calls`` for ``run()``, after one warm-up call."""
    run()
    profile = cProfile.Profile()
    profile.runcall(run)
    return pstats.Stats(profile).total_calls


def _front_end(source: str) -> None:
    program = parse_program(source)
    assert not validate_program(program)
    pretty(program)


@pytest.fixture(scope="module")
def census():
    config = dict(DEFAULT_CONFIG)
    counts = {"front end": [], "cert": [], "denning": [], "lint": []}
    for n in SIZES:
        source = pretty(sized_program(7, n, p_cobegin=0.15, p_sem_op=0.1))
        program = parse_program(source)
        counts["front end"].append(_calls(lambda: _front_end(source)))
        for name in ("cert", "denning", "lint"):
            run = ANALYSES[name].run
            counts[name].append(_calls(lambda: run(program, config)))
    return counts


def _ratios(counts):
    return [b / a for a, b in zip(counts, counts[1:])]


@pytest.mark.parametrize("layer", ["front end", "cert", "denning"])
def test_calls_grow_linearly(census, layer):
    ratios = _ratios(census[layer])
    print(f"{layer}: calls {census[layer]}, "
          f"ratios {[round(r, 3) for r in ratios]}")
    assert max(ratios) <= BOUND, (layer, census[layer], ratios)


def test_lint_ratios_are_reported(census):
    ratios = _ratios(census["lint"])
    print(f"lint: calls {census['lint']}, "
          f"ratios {[round(r, 3) for r in ratios]} (not bounded)")
    assert all(r > 1 for r in ratios)

"""The worker parse memo: one parse per program per chunk.

Every (program, analysis) cell of one program carries the same
``runner._Source``, so a worker parses a program once per chunk (once
per ``_execute`` call in-process) and its analyses share the subject.
Only successful parses are kept.
"""

from __future__ import annotations

import itertools

import pytest

from repro.lang import builder as b
from repro.lang.ast import Program
from repro.lang.parser import parse_subject
from repro.lang.pretty import pretty
from repro.pipeline import ANALYSES, DEFAULT_CONFIG, run_pipeline
from repro.pipeline import runner
from repro.workloads.generators import sized_program
from repro.workloads.suites import corpus
from tests.pipeline.faults import fix_chunk_size


def _kind(subject) -> str:
    return "program" if isinstance(subject, Program) else "statement"


def _count_parses(monkeypatch, log):
    """Log every worker parse to ``log``; forked workers inherit it."""
    def counting(source, kind):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{kind}\n")
        return parse_subject(source, kind)

    monkeypatch.setattr(runner, "parse_subject", counting)


def _parses(log) -> int:
    return len(log.read_text().splitlines()) if log.exists() else 0


def _programs(count):
    return [(f"p{i:02d}", sized_program(i, 20)) for i in range(count)]


@pytest.mark.parametrize("jobs,chunk_size,parses", [
    (1, None, 5),  # in-process: once per _execute call
    (2, 10, 5),  # one chunk holds every cell
    (2, 1, 10),  # singleton chunks: once per cell
])
def test_each_program_is_parsed_once_per_chunk(
    tmp_path, monkeypatch, jobs, chunk_size, parses
):
    log = tmp_path / "parses.log"
    _count_parses(monkeypatch, log)
    fix_chunk_size(monkeypatch, chunk_size)
    result = run_pipeline(
        _programs(5),
        analyses=("cert", "denning"),
        jobs=jobs,
        use_cache=False,
    )
    assert not result.errors()
    assert _parses(log) == parses


def _outcome(name, subject, config):
    try:
        return ANALYSES[name].run(subject, config)
    except Exception as exc:  # prove raises on programs cert rejects
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("fastpath", [True, False])
def test_a_shared_subject_gives_every_analysis_its_fresh_result(fastpath):
    """Each analysis run after another on one parsed subject, in both
    orders, returns what it returns on a fresh parse."""
    config = dict(DEFAULT_CONFIG, fastpath=fastpath)
    config["high"] = tuple(sorted(config["high"]))
    for name, subject in corpus("litmus") + corpus("paper"):
        source, kind = pretty(subject), _kind(subject)

        def parse():
            return parse_subject(source, kind)

        fresh = {a: _outcome(a, parse(), config) for a in ANALYSES}
        for first, second in itertools.permutations(ANALYSES, 2):
            shared = parse()
            _outcome(first, shared, config)
            assert _outcome(second, shared, config) == fresh[second], (
                name, first, second,
            )


def _unparseable():
    """A subject whose canonical text does not parse back: a keyword
    used as a variable name (the builder does not check names)."""
    return b.begin(b.assign("while", b.lit(1)), b.assign("l", b.lit(2)))


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_parse_is_retried_and_reported_for_every_cell(
    tmp_path, monkeypatch, jobs
):
    analyses = ("cert", "denning", "lint")

    def run():
        fix_chunk_size(monkeypatch, len(analyses))
        return run_pipeline(
            [("bad", _unparseable())],
            analyses=analyses,
            jobs=jobs,
            use_cache=False,
        )

    log = tmp_path / "parses.log"
    _count_parses(monkeypatch, log)
    run()
    assert _parses(log) == len(analyses)  # a failure is not memoized
    monkeypatch.undo()

    result = run()
    records = [result.program("bad")["analyses"][a] for a in analyses]
    # the record of one cell run alone through _compute, nothing memoized
    expected = runner._compute(
        (runner._Source(pretty(_unparseable())), "statement", "cert",
         dict(result.config))
    )["result"]
    assert expected["error_type"] == "ParseError"
    assert records == [expected] * len(analyses)

"""The assembled result document against one ``json.dumps``.

``PipelineResult.to_json`` assembles the document cell by cell: a
small skeleton around each cell's text, which the cache's memory tier
supplies or the assembler renders.  Whatever the path, the bytes must
be exactly ``json.dumps(result.to_dict(), indent=2, sort_keys=True)``:
over every named corpus and every registered analysis, with no cache,
through a memory tier cold and warm, and through a warm disk-only
cache; and for drawn JSON values and names sent through the same
assembler.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import (
    MemoryLRU,
    PipelineResult,
    ResultCache,
    TieredCache,
    analysis_names,
    run_pipeline,
)
from repro.pipeline.cache import render_json
from repro.workloads.suites import corpus, corpus_names

#: Small explorer budgets: a few divergent programs come back
#: ``degraded``, which the cache never stores, so warm runs mix cells
#: that carry a memory-tier text with cells the assembler renders.
CONFIG = {"max_states": 2_000, "max_depth": 200}


def one_dumps(result: PipelineResult) -> str:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True)


def assert_same_text(got: str, expected: str) -> None:
    """``got == expected``, failing with the first differing offset
    (pytest's own diff of two large documents takes minutes)."""
    if got != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
            min(len(got), len(expected)),
        )
        window = slice(max(0, at - 60), at + 60)
        pytest.fail(
            f"first difference at offset {at}: assembled {got[window]!r}, "
            f"json.dumps {expected[window]!r}"
        )


def _run(name, **kwargs):
    return run_pipeline(
        corpus(name), analyses=analysis_names(), config=CONFIG, **kwargs
    )


@pytest.mark.parametrize("name", corpus_names())
def test_every_corpus_and_analysis_renders_as_one_dumps(name, tmp_path):
    plain = _run(name, use_cache=False)
    expected = one_dumps(plain)
    assert_same_text(plain.to_json(), expected)
    cells = len(plain.programs) * len(plain.analyses)
    stored = cells - len(plain.degraded())

    tier = TieredCache(ResultCache(str(tmp_path / "cache")), MemoryLRU(4096))
    cold = _run(name, cache=tier)
    warm = _run(name, cache=tier)
    assert_same_text(cold.to_json(), expected)
    assert_same_text(warm.to_json(), expected)
    # every stored cell came from memory with its text
    assert warm.metrics["cache"]["hits"] == tier.lru.hits == stored
    assert sum(text is not None for text in warm.texts.values()) == stored

    disk = _run(name, cache_dir=str(tmp_path / "cache"))
    assert disk.metrics["cache"]["hits"] == stored
    assert not any(disk.texts.values())  # the disk tier has no text
    assert_same_text(disk.to_json(), expected)


@pytest.mark.parametrize("name", corpus_names())
def test_results_survive_the_memory_tier_unchanged(name):
    """The memory tier keeps text, so a hit is the result's JSON round
    trip: every registered analysis must return plain JSON data (no
    tuples, no non-string keys), and a warm run's ``programs`` then
    equal the cold run's."""
    tier = TieredCache(None, MemoryLRU(4096))
    cold = _run(name, cache=tier)
    for entry in cold.programs:
        for analysis, cell in entry["analyses"].items():
            assert json.loads(json.dumps(cell)) == cell, (entry["name"], analysis)
    warm = _run(name, cache=tier)
    assert tier.lru.hits > 0
    assert warm.programs == cold.programs


def test_an_empty_corpus_renders_as_one_dumps():
    result = run_pipeline([], analyses=("cert", "lint"), use_cache=False)
    assert result.programs == []
    assert_same_text(result.to_json(), one_dumps(result))


# -- drawn values through the same assembler ---------------------------------

#: Text that leans on what JSON must escape or that ``ensure_ascii``
#: rewrites: quotes, backslashes, newlines, control and non-ASCII
#: characters, and a character outside the BMP (a surrogate pair).
_text = st.text(
    alphabet=st.sampled_from('a Z"\\\n\r\t\x00\x1f/é€\U0001f600')
    | st.characters(),
    max_size=12,
)

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | _text
)

_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_text, inner, max_size=4),
    max_leaves=24,
)


@st.composite
def _documents(draw):
    names = draw(st.lists(_text, unique=True, max_size=4))
    analyses = draw(st.lists(_text, unique=True, max_size=3))
    config = draw(st.dictionaries(_text, _values, max_size=4))
    programs, texts = [], {}
    for index, name in enumerate(names):
        cells = {analysis: draw(_values) for analysis in analyses}
        for analysis, cell in cells.items():
            if draw(st.booleans()):
                texts[index, analysis] = render_json(cell)
        kind = draw(st.sampled_from(["program", "statement"]) | _text)
        programs.append({"name": name, "kind": kind, "analyses": cells})
    return PipelineResult(programs, tuple(analyses), config, {}, texts)


@settings(max_examples=300, deadline=None)
@given(_documents())
def test_drawn_documents_render_as_one_dumps(result):
    assert_same_text(result.to_json(), one_dumps(result))

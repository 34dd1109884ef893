"""Lint against its golden corpus (see ``lint_golden.py``).

Every entry must reproduce its pinned per-code counts and document
digest exactly: an optimization of a pass may change how fast lint
finds its diagnostics, never which diagnostics it prints or how.
"""

import pytest

from tests.staticlint.lint_golden import cases, load_golden, summarize

GOLDEN = load_golden()
CASES = list(cases())


def test_golden_file_covers_exactly_the_corpus():
    assert sorted(GOLDEN) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name,lint_case", CASES, ids=[name for name, _ in CASES])
def test_lint_matches_golden(name, lint_case):
    assert summarize(lint_case()) == GOLDEN[name]

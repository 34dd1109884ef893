"""The explorer against its golden corpus (see ``explorer_golden.py``).

Every entry must reproduce its pinned counters, outcome count and
outcome/witness digest exactly: an optimization of the machine or the
explorer may change how fast states are visited, never which states
are visited or in which order.
"""

import pytest

from repro.lang.parser import parse_program
from repro.runtime.executor import STEP_LIMIT, run
from repro.runtime.explorer import CUTOFF, explore
from repro.runtime.scheduler import FixedScheduler
from tests.runtime.explorer_golden import (
    DIVERGENT_SOURCE,
    cases,
    load_golden,
    summarize,
)

GOLDEN = load_golden()
CASES = list(cases())


def test_golden_file_covers_exactly_the_corpus():
    assert sorted(GOLDEN) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name,explore_case", CASES, ids=[name for name, _ in CASES])
def test_exploration_matches_golden(name, explore_case):
    assert summarize(explore_case()) == GOLDEN[name]


def test_deep_cutoff_witness_replays_to_its_store():
    """A 2,000-step witness is materialized whole and in order."""
    depth = 2000
    result = explore(parse_program(DIVERGENT_SOURCE), max_depth=depth)
    (outcome,) = result.outcomes
    assert outcome.status == CUTOFF
    schedule = result.schedules[outcome]
    assert len(schedule) == depth
    assert all(pid == () for pid in schedule)
    replay = run(
        parse_program(DIVERGENT_SOURCE),
        scheduler=FixedScheduler(schedule, fallback="error"),
        max_steps=depth,
    )
    assert replay.status == STEP_LIMIT and replay.steps == depth
    assert tuple(sorted(replay.store.items())) == outcome.store
    assert outcome.value("x") == depth // 2

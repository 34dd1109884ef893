"""Differential testing: the POR explorer against the naive explorer.

Partial-order reduction is only admissible if it is *observationally
invisible*: for every program, the reduced exploration must produce
exactly the same outcome set — completed final stores, deadlock
stores, and cutoffs — as the naive one.  This suite checks that
equivalence over three corpora:

* every litmus case (hand-written flows, races, semaphore protocols);
* every paper fragment (Figure 3 and the section examples);
* 60 seeded ``random_program`` instances (runtime-safe, so every
  exploration completes and the comparison is exhaustive, plus a
  static batch explored under a budget for the incomplete-path
  smoke check).

It also asserts the reduction never *increases* the state count, and
that it strictly reduces it on a healthy fraction of concurrent
programs (the point of shipping it).
"""

import pytest

from repro.runtime.explorer import explore
from repro.workloads.generators import random_program
from repro.workloads.litmus import CASES
from repro.workloads.paper import paper_programs

MAX_STATES = 60_000
MAX_DEPTH = 600


def outcome_set(result):
    """The comparable essence of an exploration (order-free)."""
    return frozenset((o.status, o.store) for o in result.outcomes)


def both(subject, store=None, **kwargs):
    naive = explore(subject, store=dict(store or {}), por=False, **kwargs)
    reduced = explore(subject, store=dict(store or {}), por=True, **kwargs)
    return naive, reduced


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_por_matches_naive_on_litmus(case):
    for probe in case.probe_values:
        store = dict(case.base_store or {})
        store["h"] = probe
        naive, reduced = both(
            case.statement(), store, max_states=MAX_STATES, max_depth=MAX_DEPTH
        )
        assert naive.complete and reduced.complete
        assert outcome_set(naive) == outcome_set(reduced)
        assert reduced.states_visited <= naive.states_visited


@pytest.mark.parametrize(
    "name,stmt", sorted(paper_programs().items()), ids=lambda x: x if isinstance(x, str) else ""
)
def test_por_matches_naive_on_paper_programs(name, stmt):
    for store in ({}, {"x": 1}, {"x": 0}):
        naive, reduced = both(
            stmt, store, max_states=MAX_STATES, max_depth=MAX_DEPTH
        )
        # s22-while diverges for x != 0: both explorations are then cut
        # off, and (single process) must still agree outcome-for-outcome.
        assert naive.complete == reduced.complete, name
        assert outcome_set(naive) == outcome_set(reduced), name
        assert reduced.states_visited <= naive.states_visited, name


@pytest.mark.parametrize("seed", range(40))
def test_por_matches_naive_on_random_runtime_safe(seed):
    program = random_program(
        seed=4100 + seed,
        size=18,
        runtime_safe=True,
        p_cobegin=0.3,
        n_sems=2,
    )
    naive, reduced = both(program, max_states=MAX_STATES, max_depth=MAX_DEPTH)
    assert naive.complete and reduced.complete, seed
    assert outcome_set(naive) == outcome_set(reduced), seed
    assert reduced.states_visited <= naive.states_visited, seed


# Seeds 8207 and 8210 generate genuinely divergent programs (linear
# infinite chains, so every budget truncates them and the outcome
# comparison could never be exhaustive); 8220 and 8221 are verified
# terminating replacements from the same static profile.
STATIC_SEEDS = tuple(
    seed for seed in range(8200, 8220) if seed not in (8207, 8210)
) + (8220, 8221)


@pytest.mark.parametrize("seed", STATIC_SEEDS)
def test_por_matches_naive_on_random_static(seed):
    """The static profile (unbounded loops, unmatched semaphores).

    These programs can deadlock arbitrarily; the seed list above pins
    20 instances whose memoized exploration completes, making the
    outcome comparison exhaustive (the assert guards that assumption —
    no skips: a budget hit here is a regression, not an excuse).
    """
    program = random_program(
        seed=seed,
        size=10,
        runtime_safe=False,
        p_cobegin=0.35,
        p_sem_op=0.2,
        n_sems=2,
        max_loop_iters=2,
    )
    naive, reduced = both(program, max_states=MAX_STATES, max_depth=200)
    assert naive.complete and reduced.complete, seed
    assert outcome_set(naive) == outcome_set(reduced), seed
    assert reduced.states_visited <= naive.states_visited, seed


def test_por_strictly_reduces_concurrent_programs():
    """The reduction must actually fire on concurrent workloads."""
    reduced_count = 0
    total = 20
    for i in range(total):
        program = random_program(
            seed=7000 + i, size=20, runtime_safe=True, p_cobegin=0.3, n_sems=2
        )
        naive, reduced = both(program, max_states=MAX_STATES)
        assert outcome_set(naive) == outcome_set(reduced)
        if reduced.states_visited < naive.states_visited:
            reduced_count += 1
    assert reduced_count >= total // 2, (
        f"POR reduced only {reduced_count}/{total} concurrent programs"
    )


def test_por_result_is_flagged():
    from repro.lang.parser import parse_statement

    stmt = parse_statement("cobegin x := 1 || y := 2 coend")
    assert explore(stmt, por=True).por is True
    assert explore(stmt, por=False).por is False


def test_por_disabled_under_a_monitor():
    """Monitors can observe interleavings; reduction must stand down."""
    from repro.lang.parser import parse_statement
    from repro.runtime.taint import TaintMonitor
    from repro.core.binding import StaticBinding
    from repro.lattice.chain import two_level

    stmt = parse_statement("cobegin x := 1 || y := 2 coend")
    scheme = two_level()
    binding = StaticBinding(scheme, {"x": "low", "y": "low"})
    monitor = TaintMonitor.from_binding(binding, ("x", "y"))
    monitored = explore(stmt, monitor=monitor, por=True)
    assert monitored.por is False  # fell back to the naive exploration


def test_por_completes_what_the_naive_search_cannot_under_the_pipeline_budget():
    """Why ``por`` stays: under the pipeline's default budget, the fuzz
    campaign's runtime-safe program for seed 47 completes only with
    the reduction; the naive search runs out of states and degrades."""
    from repro.fuzz.driver import generate_subject
    from repro.pipeline.analyses import ANALYSES, DEFAULT_CONFIG

    subject = generate_subject(47, "runtime_safe")
    run = ANALYSES["explore"].run
    reduced = run(subject, dict(DEFAULT_CONFIG))
    assert reduced["por"] and reduced["complete"]
    assert reduced["states"] < DEFAULT_CONFIG["max_states"]
    naive = run(subject, dict(DEFAULT_CONFIG, por=False))
    assert naive["degraded"] and naive["limit"] == "states"

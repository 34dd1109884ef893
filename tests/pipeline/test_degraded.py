"""Degraded mode: deadlines turn runaway programs into partial results.

The hardening contract under test: a divergent (or state-explosive)
program under a wall-clock deadline costs at most the deadline, yields
a partial result flagged ``degraded`` (never an exception, never an
error record), leaves every other corpus item untouched, and is kept
out of the result cache so a later run with more budget can do better.
"""

import json

from repro.cli import main
from repro.lang.parser import parse_statement
from repro.observe import Budget, validate_metrics
from repro.pipeline import run_pipeline
from repro.runtime.explorer import explore

#: Diverges with an ever-growing store: no budget short of infinity
#: ever completes it, which is exactly what the deadline is for.
DIVERGENT = "while 1 = 1 do x := x + 1"

#: Generous enough that only the deadline can fire first.
HUGE = 100_000_000


def divergent_corpus():
    return [
        ("divergent", parse_statement(DIVERGENT)),
        ("fine", parse_statement("begin l := 1; l2 := l end")),
    ]


def test_explore_deadline_returns_degraded_partial_result():
    budget = Budget(max_states=HUGE, max_depth=HUGE, deadline=0.05)
    result = explore(parse_statement(DIVERGENT), budget=budget)
    assert result.degraded
    assert not result.complete
    assert result.limit == "deadline"
    assert result.abandoned > 0
    assert result.states_visited > 0  # partial, not empty
    assert result.elapsed_seconds < 5.0  # it actually stopped


def test_explore_deadline_can_raise_when_asked():
    import pytest

    from repro.errors import ExplorationLimitExceeded

    budget = Budget(max_states=HUGE, max_depth=HUGE, deadline=0.02)
    with pytest.raises(ExplorationLimitExceeded, match="deadline"):
        explore(parse_statement(DIVERGENT), budget=budget, on_limit="raise")


def test_pipeline_deadline_degrades_only_the_runaway_item():
    result = run_pipeline(
        divergent_corpus(),
        analyses=("explore", "cert"),
        use_cache=False,
        config={"max_states": HUGE, "max_depth": HUGE, "deadline": 0.1},
    )
    assert result.errors() == []  # degraded is not an error
    assert result.degraded() == [("divergent", "explore", "deadline")]
    data = result.program("divergent")["analyses"]["explore"]
    assert data["degraded"] is True and data["limit"] == "deadline"
    assert data["abandoned"] > 0
    fine = result.program("fine")["analyses"]["explore"]
    assert fine["complete"] is True and fine["degraded"] is False
    metrics = result.metrics
    assert validate_metrics(metrics) == []
    assert metrics["run"]["degraded"] == 1
    assert metrics["run"]["deadline"] == 0.1


def test_degraded_results_are_never_cached(tmp_path):
    kwargs = dict(
        analyses=("explore",),
        cache_dir=str(tmp_path / "cache"),
        config={"max_states": HUGE, "max_depth": HUGE, "deadline": 0.1},
    )
    first = run_pipeline(divergent_corpus(), **kwargs)
    assert first.degraded()
    assert first.metrics["cache"]["skipped_degraded"] == 1
    second = run_pipeline(divergent_corpus(), **kwargs)
    # the healthy item replays from cache; the degraded one recomputes
    statuses = {
        (e["program"], e["analysis"]): e["status"]
        for e in second.metrics["items"]
    }
    assert statuses[("fine", "explore")] == "cached"
    assert statuses[("divergent", "explore")] == "degraded"


def test_cli_batch_deadline_metrics_and_exit_code(tmp_path, capsys):
    program = tmp_path / "divergent.rp"
    program.write_text(f"var x : integer;\n{DIVERGENT}\n")
    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.jsonl"
    code = main([
        "batch", str(program), "--corpus", "litmus",
        "--analyses", "explore",
        "--deadline", "0.2",
        "--max-states", str(HUGE), "--max-depth", str(HUGE),
        "--metrics", str(metrics_path), "--trace", str(trace_path),
        "--no-cache",
    ])
    out = capsys.readouterr().out
    assert code == 0  # degraded must not fail the batch
    assert "DEGRADED(deadline)" in out
    assert "degraded (partial) result(s):" in out

    doc = json.loads(metrics_path.read_text())
    assert validate_metrics(doc) == []
    assert doc["run"]["degraded"] == 1
    degraded = [e for e in doc["items"] if e["status"] == "degraded"]
    assert [(e["program"], e["limit"]) for e in degraded] == [
        ("divergent.rp", "deadline")
    ]

    records = [
        json.loads(line) for line in trace_path.read_text().splitlines()
    ]
    assert any(
        r["name"] == "task" and r.get("status") == "degraded"
        for r in records
    )
    assert any(r["name"] == "run" for r in records)

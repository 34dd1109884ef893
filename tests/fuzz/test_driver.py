"""The campaign driver: counters, metrics, scale-out, persistence."""

import os

import pytest

from repro.fuzz.driver import (
    FUZZ_CONFIG,
    FuzzResult,
    generate_subject,
    run_fuzz,
)
from repro.fuzz.oracles import ORACLES, OracleSpec
from repro.lang.ast import Assign, iter_nodes
from repro.observe.metrics import validate_metrics


def test_small_serial_campaign_is_clean():
    result = run_fuzz(seeds=4, jobs=1)
    assert result.seeds == 4
    assert result.programs == 8  # two profiles per seed
    assert result.checks > 0
    assert result.findings == []
    assert result.errors == []
    assert result.violations == 0
    # counters are consistent with the per-oracle breakdown
    assert sum(c["checks"] for c in result.oracles.values()) == result.checks
    assert sum(c["skips"] for c in result.oracles.values()) == result.skips


def test_campaign_metrics_document_validates():
    result = run_fuzz(seeds=3, jobs=1)
    assert validate_metrics(result.metrics) == []
    fuzz = result.metrics["fuzz"]
    assert fuzz["seeds"] == 3
    assert fuzz["checks"] == result.checks
    assert fuzz["findings"] == 0
    report = result.to_dict()
    assert report["fuzz"] == result.fuzz_section()


def test_parallel_campaign_matches_serial_counters():
    serial = run_fuzz(seeds=4, jobs=1, oracles=("parse-pretty", "cert-proof"))
    fanned = run_fuzz(seeds=4, jobs=2, oracles=("parse-pretty", "cert-proof"))
    assert fanned.errors == []
    assert fanned.checks == serial.checks
    assert fanned.skips == serial.skips
    assert fanned.violations == serial.violations


def test_oracle_subset_and_seed_start():
    result = run_fuzz(seeds=2, seed_start=50, oracles=("parse-pretty",))
    assert set(result.oracles) == {"parse-pretty"}
    assert result.checks == 4  # 2 seeds x 2 profiles x 1 oracle


def test_a_repeated_oracle_counts_once():
    once = run_fuzz(seeds=2, oracles=("parse-pretty",))
    twice = run_fuzz(seeds=2, oracles=("parse-pretty", "parse-pretty"))
    assert twice.fuzz_section() == once.fuzz_section()
    assert twice.checks == 4


def test_campaign_items_are_listed_in_seed_order():
    result = run_fuzz(seeds=12, oracles=("parse-pretty",), do_shrink=False)
    assert [e["program"] for e in result.metrics["items"]] == [
        f"seed-{seed}" for seed in range(12)
    ]


def test_bad_arguments_are_rejected():
    with pytest.raises(ValueError, match="unknown oracle"):
        run_fuzz(seeds=1, oracles=("bogus",))
    with pytest.raises(ValueError, match="seeds must be"):
        run_fuzz(seeds=0)
    with pytest.raises(ValueError, match="unknown config key"):
        run_fuzz(seeds=1, config={"not_a_key": 1})


def _always_assign_violation(subject, config):
    stmt = subject.body if hasattr(subject, "decls") else subject
    if any(isinstance(n, Assign) for n in iter_nodes(stmt)):
        return {"relation": "test oracle: no assignments allowed"}
    return None


def test_findings_are_shrunk_and_persisted(tmp_path, monkeypatch):
    """End to end on a synthetic oracle: a violation is minimized
    in-worker and lands in the corpus directory, replayable."""
    from repro.fuzz.corpus import replay_corpus
    from repro.lang.ast import program_size
    from repro.lang.parser import parse_program

    spec = OracleSpec(
        "test-no-assign",
        "synthetic: flags any assignment",
        "test",
        ("static", "runtime_safe"),
        _always_assign_violation,
    )
    monkeypatch.setitem(ORACLES, "test-no-assign", spec)

    corpus = tmp_path / "corpus"
    result = run_fuzz(
        seeds=1, oracles=("test-no-assign",), corpus_dir=str(corpus)
    )
    assert result.violations == 2  # one per profile
    assert len(result.findings) == 2
    assert result.shrink_iterations > 0
    for finding in result.findings:
        assert finding["oracle"] == "test-no-assign"
        minimized = parse_program(finding["source"])
        # 1-minimal: a single zero-assignment plus its declaration
        assert program_size(minimized.body) <= 2
        assert len(finding["original_source"]) > len(finding["source"])

    replays = replay_corpus(corpus)
    assert len(replays) == 2
    assert all(r["reproduced"] and r["as_expected"] for r in replays)


def _explode(payload):
    """A ``_fuzz_worker`` that raises.  Top-level, so it pickles by name
    into the chunk that forked workers run; a nested function could not
    be pickled, and its chunk would fail before reaching a worker."""
    raise RuntimeError("worker exploded")


def test_worker_crashes_become_error_records(monkeypatch):
    import repro.fuzz.driver as driver_mod

    monkeypatch.setattr(driver_mod, "_fuzz_worker", _explode)
    result = run_fuzz(seeds=2, jobs=2, oracles=("parse-pretty",))
    assert [e["error"] for e in result.errors] == [
        "RuntimeError: worker exploded"
    ] * 2
    assert result.checks == 0
    # the chunk genuinely crossed to a worker
    assert result.metrics["chunks"]["bytes_pickled"] > 0
    assert validate_metrics(result.metrics) == []


def _die_on_seed_1(seed, profile):
    """A ``generate_subject`` whose worker dies on seed 1.  Forked
    workers inherit it; it must never run in the pytest process."""
    if seed == 1:
        os._exit(13)
    return generate_subject(seed, profile)


def test_a_seed_that_kills_its_worker_is_abandoned_alone(monkeypatch):
    import repro.fuzz.driver as driver_mod
    from tests.pipeline.faults import fix_chunk_size

    monkeypatch.setattr(driver_mod, "generate_subject", _die_on_seed_1)
    fix_chunk_size(monkeypatch, 3)
    result = run_fuzz(seeds=3, jobs=2, oracles=("parse-pretty",))
    assert [(e["seed"], e["error_type"]) for e in result.errors] == [
        (1, "WorkerCrash")
    ]
    assert result.programs == 4  # seeds 0 and 2, two profiles each
    assert result.checks == 4
    workers = result.metrics["workers"]
    assert workers["abandoned"] == 1
    assert workers["crashes"] == 3  # one per attempt at seed 1
    # seeds 0 and 2 ran; the abandoned seed never finished anywhere
    assert result.metrics["run"]["computed"] == 2
    assert validate_metrics(result.metrics) == []


def test_a_single_seed_campaign_runs_in_process():
    result = run_fuzz(seeds=1, jobs=2, oracles=("parse-pretty",))
    assert result.errors == []
    assert result.checks == 2
    assert result.metrics["workers"]["pools"] == 0
    assert result.metrics["chunks"]["submitted"] == 0


def test_fuzz_config_binds_a_generated_variable_high():
    # The pipeline default high set never intersects generated
    # programs; the campaign config must, or policy oracles go vacuous.
    from repro.lang.ast import used_variables

    assert FUZZ_CONFIG["high"] == ("v0",)
    hits = sum(
        1
        for seed in range(8)
        if "v0" in used_variables(generate_subject(seed, "runtime_safe").body)
    )
    assert hits > 0

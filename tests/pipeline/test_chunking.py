"""Chunked dispatch: byte-identity, per-cell isolation, accounting.

The chunking PR's contract: ``chunk_size`` (like ``jobs`` and the
cache) is an execution-strategy knob — the pipeline document is
byte-identical for every value — while per-cell crash isolation,
retry/abandon accounting, and deadline repricing survive the move from
one-cell-per-task to many-cells-per-task dispatch.
"""

import os
import tempfile

import pytest

from repro.pipeline import run_pipeline
from repro.pipeline.runner import (
    _auto_chunk_size,
    _error_record,
    _run_chunk,
)
from repro.workloads.litmus import CASES


def litmus_corpus(count=None):
    cases = CASES if count is None else CASES[:count]
    return [(case.name, case.statement()) for case in cases]


# -- auto sizing -------------------------------------------------------------


def test_auto_chunk_size_amortizes_without_starving_workers():
    # enough cells: about _CHUNKS_PER_WORKER chunks per worker
    assert _auto_chunk_size(64, 4) == 4
    assert _auto_chunk_size(100, 2) == 13
    # tiny batches degrade to one cell per chunk, never zero
    assert _auto_chunk_size(1, 8) == 1
    assert _auto_chunk_size(0, 4) == 1
    assert _auto_chunk_size(3, 4) == 1


# -- the chunk-level entry point ---------------------------------------------


def test_run_chunk_isolates_a_raising_cell():
    """One cell raising must fail that cell, never its chunk-mates."""

    def fn(payload):
        if payload[0] == "bad":
            raise RuntimeError("cell fault")
        return {"result": {"ok": payload[0]}, "seconds": 0.0}

    envelopes = _run_chunk(fn, [("a",), ("bad",), ("b",)])
    assert envelopes[0]["result"] == {"ok": "a"}
    assert envelopes[1]["result"]["error_type"] == "RuntimeError"
    assert envelopes[2]["result"] == {"ok": "b"}


def test_run_chunk_isolates_an_unpicklable_envelope():
    """An envelope that cannot cross the process boundary back becomes
    that cell's error record instead of poisoning the whole chunk."""

    def fn(payload):
        if payload[0] == "bad":
            return {"result": {"handle": lambda: None}, "seconds": 0.0}
        return {"result": {"ok": payload[0]}, "seconds": 0.0}

    envelopes = _run_chunk(fn, [("a",), ("bad",), ("b",)])
    assert envelopes[0]["result"] == {"ok": "a"}
    assert "error_type" in envelopes[1]["result"]
    assert envelopes[2]["result"] == {"ok": "b"}


# -- byte-identity across the chunk-size x jobs x cache matrix ---------------


def test_document_is_byte_identical_across_chunk_sizes_and_jobs():
    corpus = litmus_corpus()
    analyses = ("cert", "lint")
    baseline = run_pipeline(corpus, analyses=analyses, jobs=1, use_cache=False)
    expected = baseline.to_json()
    cells = len(corpus) * len(analyses)
    for chunk_size in (1, None, cells):
        for jobs in (1, 4):
            combo = f"chunk_size={chunk_size} jobs={jobs}"
            # a fresh cache per combination: every cold run genuinely
            # exercises this chunk/jobs dispatch shape end to end
            with tempfile.TemporaryDirectory() as cache_dir:
                cold = run_pipeline(
                    corpus,
                    analyses=analyses,
                    jobs=jobs,
                    cache_dir=cache_dir,
                    chunk_size=chunk_size,
                )
                warm = run_pipeline(
                    corpus,
                    analyses=analyses,
                    jobs=jobs,
                    cache_dir=cache_dir,
                    chunk_size=chunk_size,
                )
                assert cold.to_json() == expected, combo
                assert warm.to_json() == expected, combo
                assert warm.metrics["run"]["computed"] == 0, combo


def test_chunk_counters_reflect_the_requested_granularity():
    corpus = litmus_corpus()
    analyses = ("cert", "lint")
    cells = len(corpus) * len(analyses)

    singleton = run_pipeline(
        corpus, analyses=analyses, jobs=2, use_cache=False, chunk_size=1
    )
    assert singleton.metrics["chunks"]["submitted"] == cells
    assert singleton.metrics["chunks"]["cells"] == cells

    one_chunk = run_pipeline(
        corpus, analyses=analyses, jobs=2, use_cache=False, chunk_size=cells
    )
    assert one_chunk.metrics["chunks"]["submitted"] == 1
    assert one_chunk.metrics["chunks"]["cells"] == cells
    # amortization is the point: one big chunk crosses the pickle
    # boundary in far fewer bytes than one submission per cell
    assert (
        one_chunk.metrics["chunks"]["bytes_pickled"]
        < singleton.metrics["chunks"]["bytes_pickled"]
    )

    serial = run_pipeline(corpus, analyses=analyses, jobs=1, use_cache=False)
    assert serial.metrics["chunks"] == {
        "submitted": 0,
        "cells": 0,
        "bytes_pickled": 0,
    }


def test_chunk_size_is_validated():
    from repro.pipeline.runner import WorkerPool

    with pytest.raises(ValueError, match="chunk_size"):
        pool = WorkerPool(2)
        try:
            pool.run([], [], None, chunk_size=-1)
        finally:
            pool.close()


# -- crash isolation inside a chunk ------------------------------------------


def _poison_corpus():
    from repro.lang.parser import parse_statement

    return [
        ("healthy-a", parse_statement("begin l := 1; l2 := l end")),
        ("kaboom", parse_statement("kaboom := 1")),
        ("healthy-b", parse_statement("begin m := 2; m2 := m end")),
    ]


def test_crash_in_a_chunk_retries_cellmates_and_abandons_the_poison(
    monkeypatch,
):
    """A poison cell killing its worker takes its whole chunk's futures
    down — but only *it* may be abandoned; its innocent chunk-mates
    must be retried (in singleton chunks) to completion, and the
    ``computed`` stat must not count the abandoned WorkerCrash cell."""
    from tests.pipeline.faults import inject_fault

    def die_on_poison(payload):
        if "kaboom" in payload[0]:
            os._exit(13)

    inject_fault(monkeypatch, die_on_poison)
    result = run_pipeline(
        _poison_corpus(),
        analyses=("cert",),
        jobs=2,
        use_cache=False,
        chunk_size=3,  # all three cells share one chunk
    )
    data = result.program("kaboom")["analyses"]["cert"]
    assert data["error_type"] == "WorkerCrash"
    assert result.program("healthy-a")["analyses"]["cert"]["certified"] is True
    assert result.program("healthy-b")["analyses"]["cert"]["certified"] is True
    workers = result.metrics["workers"]
    assert workers["abandoned"] == 1
    assert workers["crashes"] >= 1
    # two healthy cells ran; the abandoned cell never computed anywhere
    assert result.metrics["run"]["computed"] == 2
    # the retry rounds dispatched singleton chunks beyond the first one
    assert result.metrics["chunks"]["submitted"] > 1


def test_transient_crash_in_a_chunk_recovers_every_cell(
    tmp_path, monkeypatch
):
    from tests.pipeline.faults import inject_fault

    tombstone = tmp_path / "crashed-once"

    def die_once(payload):
        if "kaboom" in payload[0] and not tombstone.exists():
            tombstone.write_text("")
            os._exit(13)

    inject_fault(monkeypatch, die_once)
    result = run_pipeline(
        _poison_corpus(),
        analyses=("cert",),
        jobs=2,
        use_cache=False,
        chunk_size=3,
    )
    assert result.errors() == []
    assert result.metrics["run"]["computed"] == 3
    workers = result.metrics["workers"]
    assert workers["retries"] >= 1
    assert workers["abandoned"] == 0


#: Deadline each payload arrived with, keyed by source, recorded by
#: :func:`_deadline_spy` (must be module level: chunk submission
#: pickles the entry point for the bytes_pickled counter).
_SPY_DEADLINES = {}


def _deadline_spy(payload):
    _SPY_DEADLINES[payload[0]] = payload[3]["deadline"]
    return {"result": {"ok": True}, "seconds": 0.0}


class _MidLoopBreakPool:
    """A :class:`WorkerPool` whose executor runs chunks inline and
    breaks (``BrokenProcessPool``) on exactly the second submission —
    the mid-submission-loop failure shape of a real pool break."""

    def __new__(cls):
        from repro.pipeline.runner import WorkerPool

        pool = WorkerPool(jobs=2)
        pool._submissions = 0
        pool._handle = lambda observer, _pool=pool: _InlineExecutor(_pool)
        return pool


class _InlineExecutor:
    def __init__(self, pool):
        self._pool = pool

    def submit(self, fn, *args):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        self._pool._submissions += 1
        if self._pool._submissions == 2:
            raise BrokenProcessPool("injected mid-loop break")
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_never_submitted_cells_are_not_charged_wall_clock():
    """Regression: ``first_submitted`` must be stamped only after
    ``pool.submit`` succeeds.  A cell whose submission never happened
    (the pool broke mid-submission-loop) must get its *full* deadline
    on its first real run, not one shortened by wall-clock it never
    spent."""
    from repro.observe import MetricsAggregator

    _SPY_DEADLINES.clear()
    pool = _MidLoopBreakPool()
    try:
        labels = [(f"p{i}", "cert") for i in range(2)]
        payloads = [
            (f"src{i}", "statement", "cert", {"deadline": 30.0})
            for i in range(2)
        ]
        envelopes = pool.run(
            labels,
            payloads,
            MetricsAggregator(),
            fn=_deadline_spy,
            chunk_size=1,
        )
    finally:
        pool.close()
    assert all(e["result"].get("ok") for e in envelopes)
    # the second cell never genuinely reached the executor in round
    # one, so its first real run must carry the full original grant
    assert _SPY_DEADLINES["src0"] == pytest.approx(30.0)
    assert _SPY_DEADLINES["src1"] == pytest.approx(30.0)


# -- run-owned and caller-owned pools ---------------------------------------


def test_concurrent_run_owned_pools_match_serial():
    """Two runs in one process, each forking its own pool at the same
    time, must not see each other's corpus."""
    import threading

    from repro.workloads.suites import corpus

    names = ("litmus", "paper")
    serial = {
        name: run_pipeline(corpus(name), jobs=1, use_cache=False).to_json()
        for name in names
    }
    start = threading.Barrier(len(names))
    parallel = {}

    def run(name):
        start.wait(timeout=60)
        parallel[name] = run_pipeline(
            corpus(name), jobs=2, use_cache=False
        ).to_json()

    threads = [threading.Thread(target=run, args=(name,)) for name in names]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive()
    assert parallel == serial


def test_persistent_pool_document_matches_serial():
    """A caller-owned pool's workers predate the corpus; they still
    produce the identical document."""
    from repro.observe import MetricsAggregator
    from repro.pipeline.runner import WorkerPool

    observer = MetricsAggregator()
    pool = WorkerPool(2)
    try:
        pool.warm(observer)
        result = run_pipeline(
            litmus_corpus(),
            analyses=("cert",),
            jobs=2,
            use_cache=False,
            pool=pool,
            observer=observer,
        )
    finally:
        pool.close()
    assert not result.errors()
    serial = run_pipeline(
        litmus_corpus(), analyses=("cert",), jobs=1, use_cache=False
    )
    assert result.to_json() == serial.to_json()


# -- the fuzz driver's custom entry point over chunked dispatch --------------


def test_fuzz_driver_chunked_run_matches_serial():
    from repro.fuzz import run_fuzz

    serial = run_fuzz(seeds=4, oracles=("cert-equiv",), jobs=1)
    chunked = run_fuzz(
        seeds=4, oracles=("cert-equiv",), jobs=2, chunk_size=2
    )
    assert chunked.seeds == serial.seeds
    assert chunked.checks == serial.checks
    assert chunked.skips == serial.skips
    assert len(chunked.findings) == len(serial.findings)

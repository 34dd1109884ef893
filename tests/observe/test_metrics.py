"""The MetricsAggregator and the metrics-document validator."""

import pytest

from repro.observe import (
    METRICS_SCHEMA,
    MetricsAggregator,
    RecordingEmitter,
    validate_metrics,
)


def sample_aggregator():
    agg = MetricsAggregator()
    agg.event("pool_start", workers=2)
    agg.event("pool_broken")
    agg.event("task_retry", program="p", analysis="cert", attempt=1)
    agg.event("task_abandoned", program="p", analysis="cert", attempts=3)
    # b/cert is a cache hit; the other three cells miss, and every
    # fresh result but the degraded one is written back
    agg.cache_read(hit=False)
    agg.cache_read(hit=False)
    agg.cache_read(hit=True)
    agg.cache_read(hit=False)
    agg.item("a", "cert", "ok", seconds=0.25)
    agg.cache_write()
    agg.item("a", "explore", "degraded", seconds=0.5, limit="deadline",
             explore={"states": 100, "transitions": 99, "reduced_states": 4})
    agg.cache_skip_degraded()
    agg.item("b", "cert", "cached", seconds=None)
    agg.item("b", "explore", "error", seconds=0.1, error_type="ZeroDivisionError")
    agg.cache_write()
    return agg


def test_worker_events_are_tallied():
    agg = sample_aggregator()
    assert agg.workers == {
        "pools": 1, "crashes": 1, "retries": 1, "abandoned": 1
    }


def test_records_are_forwarded_to_the_sink():
    sink = RecordingEmitter()
    agg = MetricsAggregator(sink=sink)
    agg.event("pool_start", workers=1)
    agg.item("a", "cert", "ok", seconds=0.1)
    agg.cache_skip_degraded()
    names = [r["name"] for r in sink.records]
    assert names == ["pool_start", "task", "cache_skip_degraded"]


def test_unknown_item_status_is_rejected():
    with pytest.raises(ValueError, match="unknown item status"):
        MetricsAggregator().item("a", "cert", "exploded")


def test_document_shape_and_totals():
    doc = sample_aggregator().to_dict(
        elapsed_seconds=1.5, jobs=2, deadline=0.5
    )
    assert doc["schema"] == METRICS_SCHEMA
    run = doc["run"]
    assert run["tasks"] == 4
    assert run["ok"] == 1 and run["cached"] == 1
    assert run["degraded"] == 1 and run["errors"] == 1
    assert run["computed"] == 3
    assert run["deadline"] == 0.5
    assert doc["cache"] == {
        "hits": 1, "misses": 3, "writes": 2, "corrupt": 0,
        "skipped_degraded": 1,
    }
    explore = doc["analyses"]["explore"]
    assert explore["tasks"] == 2
    assert explore["degraded"] == 1 and explore["errors"] == 1
    assert explore["states"] == 100
    assert explore["reduced_states"] == 4
    # items come out in the order they were recorded.
    assert [(e["program"], e["analysis"]) for e in doc["items"]] == [
        ("a", "cert"), ("a", "explore"), ("b", "cert"), ("b", "explore")
    ]


def test_document_validates_clean():
    doc = sample_aggregator().to_dict(
        elapsed_seconds=1.0, jobs=1, deadline=None
    )
    assert validate_metrics(doc) == []


def test_cache_counters_start_at_zero_in_every_document():
    doc = MetricsAggregator().to_dict(
        elapsed_seconds=0.0, jobs=1, deadline=None
    )
    assert doc["cache"] == {
        "hits": 0, "misses": 0, "writes": 0, "corrupt": 0,
        "skipped_degraded": 0,
    }


def test_a_corrupt_read_is_a_miss_and_a_corruption():
    agg = MetricsAggregator()
    agg.cache_read(hit=False, corrupt=True)
    agg.cache_read(hit=True)
    assert agg.cache == {"hits": 1, "misses": 1, "writes": 0, "corrupt": 1}


def test_computed_leaves_out_cache_hits_and_abandoned_cells():
    agg = MetricsAggregator()
    agg.item("a", "cert", "ok", seconds=0.1)
    # an error record served from the cache is an error item, not a
    # computed one
    agg.cache_read(hit=True)
    agg.item("b", "cert", "error", error_type="ValueError")
    agg.item("c", "cert", "error", error_type="WorkerCrash")
    run = agg.to_dict(elapsed_seconds=1.0, jobs=2, deadline=None)["run"]
    assert (run["tasks"], run["errors"], run["computed"]) == (3, 2, 1)


def test_validator_catches_structural_damage():
    assert validate_metrics("nope")  # not even an object
    assert validate_metrics({}) != []
    doc = sample_aggregator().to_dict(
        elapsed_seconds=1.0, jobs=1, deadline=None
    )
    doc["schema"] = "repro-metrics/999"
    assert any("schema" in p for p in validate_metrics(doc))
    doc = sample_aggregator().to_dict(
        elapsed_seconds=1.0, jobs=1, deadline=None
    )
    del doc["run"]["jobs"]
    doc["items"][0]["status"] = "weird"
    problems = validate_metrics(doc)
    assert any("run.jobs" in p for p in problems)
    assert any("status" in p for p in problems)


def test_chunk_counters_accumulate_and_forward():
    sink = RecordingEmitter()
    agg = MetricsAggregator(sink=sink)
    agg.chunk(cells=5, bytes_pickled=400)
    agg.chunk(cells=3, bytes_pickled=150)
    assert agg.chunks == {"submitted": 2, "cells": 8, "bytes_pickled": 550}
    events = [r for r in sink.records if r["name"] == "chunk_submitted"]
    assert len(events) == 2
    assert events[0]["cells"] == 5 and events[0]["bytes_pickled"] == 400
    doc = agg.to_dict(elapsed_seconds=1.0, jobs=2, deadline=None)
    assert doc["chunks"] == {"submitted": 2, "cells": 8, "bytes_pickled": 550}


def test_spans_are_retained_in_the_document():
    agg = MetricsAggregator()
    agg.span("run", 1.25, jobs=2, tasks=4)
    doc = agg.to_dict(elapsed_seconds=1.25, jobs=2, deadline=None)
    assert doc["spans"] == [
        {"type": "span", "name": "run", "seconds": 1.25, "jobs": 2,
         "tasks": 4}
    ]
    assert validate_metrics(doc) == []


def test_span_retention_is_bounded_like_items():
    agg = MetricsAggregator(max_items=2)
    for i in range(5):
        agg.span("round", float(i))
    assert [s["seconds"] for s in agg.spans] == [3.0, 4.0]


def test_bounded_records_render_newest_in_arrival_order():
    """The document lists what the aggregator kept, as it arrived:
    the newest ``max_items`` records, never re-sorted."""
    agg = MetricsAggregator(max_items=3)
    for program, analysis in [("d", "cert"), ("c", "lint"), ("b", "cert"),
                              ("a", "lint"), ("a", "cert")]:
        agg.item(program, analysis, "ok", seconds=0.1)
    for name in ("w", "v", "u", "t"):
        agg.span(name, 0.5)
    doc = agg.to_dict(elapsed_seconds=1.0, jobs=1, deadline=None)
    assert [(e["program"], e["analysis"]) for e in doc["items"]] == [
        ("b", "cert"), ("a", "lint"), ("a", "cert")
    ]
    assert [s["name"] for s in doc["spans"]] == ["v", "u", "t"]
    assert doc["run"]["tasks"] == 5  # the ledger still counts every cell


def test_validator_requires_chunks_and_spans():
    doc = sample_aggregator().to_dict(
        elapsed_seconds=1.0, jobs=1, deadline=None
    )
    del doc["chunks"]
    assert any("chunks" in p for p in validate_metrics(doc))
    doc = sample_aggregator().to_dict(
        elapsed_seconds=1.0, jobs=1, deadline=None
    )
    doc["chunks"]["cells"] = "many"
    assert any("chunks.cells" in p for p in validate_metrics(doc))
    doc = sample_aggregator().to_dict(
        elapsed_seconds=1.0, jobs=1, deadline=None
    )
    doc["spans"] = [{"name": "run"}]  # no seconds
    assert any("spans[0].seconds" in p for p in validate_metrics(doc))


def _service_section():
    """A service section shaped like AnalysisService.service_counters()."""
    return {
        "requests": 3,
        "in_flight": 0,
        "waiting": 0,
        "coalesced": 1,
        "rejected": 0,
        "draining": False,
        "client_disconnects": 0,
        "bytes_read": 128,
        "uptime_seconds": 1.0,
        "lru_hits": 1,
        "lru_misses": 2,
        "admission": {
            "admitted": 3,
            "rejected_busy": 0,
            "rate_limited": 0,
            "aborted": 0,
            "max_queue": 16,
        },
        "tenants": {"default": {"requests": 3, "rate_limited": 0}},
    }


def _doc_with_service(service):
    return sample_aggregator().to_dict(
        elapsed_seconds=1.0, jobs=2, deadline=None, service=service
    )


def test_validator_accepts_the_full_service_section():
    assert validate_metrics(_doc_with_service(_service_section())) == []


def test_validator_requires_admission_and_tenant_counters():
    service = _service_section()
    del service["admission"]["max_queue"]
    problems = validate_metrics(_doc_with_service(service))
    assert any("admission.max_queue" in p for p in problems)

    service = _service_section()
    del service["admission"]
    problems = validate_metrics(_doc_with_service(service))
    assert any("service.admission" in p for p in problems)

    service = _service_section()
    service["tenants"]["default"]["requests"] = "three"
    problems = validate_metrics(_doc_with_service(service))
    assert any("tenants.default.requests" in p for p in problems)

    service = _service_section()
    del service["waiting"]
    problems = validate_metrics(_doc_with_service(service))
    assert any("service.waiting" in p for p in problems)

    service = _service_section()
    del service["client_disconnects"]
    del service["bytes_read"]
    problems = validate_metrics(_doc_with_service(service))
    assert any("client_disconnects" in p for p in problems)
    assert any("bytes_read" in p for p in problems)

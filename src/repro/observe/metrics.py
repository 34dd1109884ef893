"""In-process aggregation of pipeline trace events into one document.

The batch pipeline narrates its run through a :class:`MetricsAggregator`
(which also forwards every record to an optional trace sink, so one
wiring gives both the JSON-lines trace and the aggregate).  At the end
of the run the aggregator renders the **metrics document** — the shape
behind ``repro batch --metrics out.json``:

``schema``
    the literal :data:`METRICS_SCHEMA` tag, so consumers can reject
    documents from a different layout generation;
``run``
    wall time, worker count, the per-analysis deadline, and the task
    ledger (computed / cached / ok / errors / degraded); ``computed``
    counts the cells the run itself finished, so it leaves out cache
    hits (a cached error record is an ``error`` item, not a computed
    one) and cells abandoned as ``WorkerCrash``;
``workers``
    pool lifecycle counts: pools started, crashes observed, tasks
    retried after a crash, tasks abandoned after bounded retry;
``chunks``
    chunked-dispatch counters: worker tasks (chunks) submitted, cells
    carried by those chunks, and payload bytes pickled across the
    process boundary — the overhead the chunking granularity exists
    to amortize (see ``docs/pipeline.md``);
``spans``
    the retained top-level span records, oldest first (above all the
    ``run`` span that ends every pipeline run); per-cell ``task``
    spans are not duplicated here — they live in ``items``;
``cache``
    the content-addressed cache counters (hits / misses / writes /
    corrupt), counted here from each read's own outcome and each write
    that landed as ``run_pipeline`` reports them (the caches keep no
    counters), plus ``skipped_degraded`` — degraded partial results
    are deliberately never cached;
``analyses``
    per-analysis totals: tasks, wall seconds (total and max), and for
    the explorer the summed states / transitions / POR-reduced states;
``items``
    one record per (program, analysis) cell, in record order (a
    pipeline run records its cells by program, then analysis name):
    status (``ok`` / ``cached`` / ``degraded`` / ``error``), seconds
    (``None`` for cache hits), and the limit or error type where
    applicable;
``service`` (optional)
    present in documents served by a resident ``repro serve`` process:
    request totals, the in-flight and waiting gauges, the retired
    ``coalesced`` count (always 0), the in-memory LRU tier's counters,
    the worker pool's counters under ``pool``, client-disconnect and
    body-bytes-read counters, the ``admission`` sub-section (admitted
    / rejected_busy / rate_limited / aborted, plus the configured
    ``max_queue``), and per-tenant
    request/rate-limit counters under ``tenants`` (see
    ``docs/service.md``);
``fuzz`` (optional)
    present in documents emitted by ``repro fuzz --metrics``: programs
    generated, oracle checks run / skipped / violated, findings after
    minimization, and total shrink iterations (see ``docs/fuzzing.md``).

:func:`validate_metrics` is the schema check the test suite and the CI
degraded-mode smoke job run against emitted documents.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.observe.trace import NULL_EMITTER, TraceEmitter

#: Version tag carried by every metrics document.
METRICS_SCHEMA = "repro-metrics/1"

#: Statuses an item record may carry.
ITEM_STATUSES = ("ok", "cached", "degraded", "error")

#: Worker lifecycle event names the aggregator tallies.
_WORKER_EVENTS = {
    "pool_start": "pools",
    "pool_broken": "crashes",
    "task_retry": "retries",
    "task_abandoned": "abandoned",
}


class MetricsAggregator(TraceEmitter):
    """Aggregates pipeline trace records; forwards them to ``sink``.

    The aggregator is itself a :class:`TraceEmitter`, so producers emit
    once and both the trace file and the metrics document see the run.
    Item and span records are kept in arrival order, the order the
    document prints them; ``max_items`` keeps the newest of each.
    """

    def __init__(
        self,
        sink: TraceEmitter = NULL_EMITTER,
        max_items: Optional[int] = None,
    ):
        self.sink = sink
        #: The retained per-cell records, in the order they were
        #: recorded.  When ``max_items`` bounds the deque (a
        #: long-running service must not grow without bound), only the
        #: newest records are kept — the ``run`` and ``analyses``
        #: aggregates stay exact and cumulative because they are
        #: maintained incrementally, never recomputed from ``items``.
        self.items: Deque[Dict[str, object]] = deque(maxlen=max_items)
        self.workers: Dict[str, int] = {
            name: 0 for name in _WORKER_EVENTS.values()
        }
        self.chunks: Dict[str, int] = {
            "submitted": 0,
            "cells": 0,
            "bytes_pickled": 0,
        }
        #: Retained span records (bounded by ``max_items`` like
        #: :attr:`items`); per-cell ``task`` spans go straight to the
        #: sink from :meth:`item` and are deliberately not kept here.
        self.spans: Deque[Dict[str, object]] = deque(maxlen=max_items)
        #: One count per cache read's own outcome (a corrupt entry is
        #: also a miss) and per write that landed.
        self.cache: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "corrupt": 0,
        }
        self.skipped_degraded = 0
        self._by_status: Dict[str, int] = {s: 0 for s in ITEM_STATUSES}
        self._abandoned = 0
        self._analyses: Dict[str, Dict[str, object]] = {}
        #: One aggregator may be shared by every thread of a resident
        #: service; counter read-modify-writes need the lock.
        self._lock = threading.Lock()

    def emit(self, record: Dict[str, object]) -> None:
        """Tally worker events, retain spans; forward all to the sink."""
        if record.get("type") == "event":
            bucket = _WORKER_EVENTS.get(str(record.get("name")))
            if bucket is not None:
                with self._lock:
                    self.workers[bucket] += 1
        elif record.get("type") == "span":
            with self._lock:
                self.spans.append(dict(record))
        self.sink.emit(record)

    def chunk(self, cells: int, bytes_pickled: int) -> None:
        """Record one submitted chunk of ``cells`` worker payloads."""
        with self._lock:
            self.chunks["submitted"] += 1
            self.chunks["cells"] += int(cells)
            self.chunks["bytes_pickled"] += int(bytes_pickled)
        self.sink.event(
            "chunk_submitted", cells=cells, bytes_pickled=bytes_pickled
        )

    def item(
        self,
        program: str,
        analysis: str,
        status: str,
        seconds: Optional[float] = None,
        error_type: Optional[str] = None,
        limit: Optional[str] = None,
        explore: Optional[Dict[str, int]] = None,
    ) -> None:
        """Record one finished (program, analysis) cell.

        ``explore`` carries the explorer's counters (states,
        transitions, reduced_states) when the cell ran that analysis.
        Also emits a ``task`` span to the trace sink.
        """
        if status not in ITEM_STATUSES:
            raise ValueError(f"unknown item status {status!r}")
        entry: Dict[str, object] = {
            "program": program,
            "analysis": analysis,
            "status": status,
            "seconds": seconds,
        }
        if error_type is not None:
            entry["error_type"] = error_type
        if limit is not None:
            entry["limit"] = limit
        if explore is not None:
            entry["explore"] = dict(explore)
        with self._lock:
            self.items.append(entry)
            self._by_status[status] += 1
            if error_type == "WorkerCrash":
                self._abandoned += 1
            agg = self._analyses.setdefault(
                analysis,
                {
                    "tasks": 0,
                    "cached": 0,
                    "ok": 0,
                    "degraded": 0,
                    "errors": 0,
                    "seconds_total": 0.0,
                    "seconds_max": 0.0,
                },
            )
            agg["tasks"] += 1
            agg[{"error": "errors"}.get(status, status)] += 1
            if isinstance(seconds, (int, float)):
                agg["seconds_total"] += seconds
                agg["seconds_max"] = max(agg["seconds_max"], seconds)
            if explore is not None:
                for counter, value in explore.items():
                    agg[counter] = agg.get(counter, 0) + int(value)
        self.sink.span(
            "task",
            seconds if seconds is not None else 0.0,
            program=program,
            analysis=analysis,
            status=status,
        )

    def cache_read(self, hit: bool, corrupt: bool = False) -> None:
        """Record one cache lookup's own outcome."""
        with self._lock:
            self.cache["hits" if hit else "misses"] += 1
            if corrupt:
                self.cache["corrupt"] += 1

    def cache_write(self) -> None:
        """Record one cache write that landed."""
        with self._lock:
            self.cache["writes"] += 1

    def cache_skip_degraded(self) -> None:
        """Note one degraded result deliberately kept out of the cache."""
        with self._lock:
            self.skipped_degraded += 1
        self.sink.event("cache_skip_degraded")

    def to_dict(
        self,
        elapsed_seconds: float,
        jobs: int,
        deadline: Optional[float],
        service: Optional[Dict[str, object]] = None,
        fuzz: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Render the metrics document (see the module docstring).

        The ``run`` and ``analyses`` aggregates are cumulative over the
        aggregator's whole lifetime even when ``max_items`` has dropped
        older per-cell records out of ``items``.  ``service`` (counters
        from a resident ``repro serve`` process — requests, in-flight,
        LRU hits/misses, pool) is included verbatim when given, as
        is ``fuzz`` (the differential-fuzzing campaign counters).

        The document is read-only: its ``items`` and ``spans`` lists
        hold the aggregator's own records, not copies.
        """
        with self._lock:
            items = list(self.items)
            by_status = dict(self._by_status)
            analyses = {
                name: dict(agg) for name, agg in self._analyses.items()
            }
            workers = dict(self.workers)
            chunks = dict(self.chunks)
            spans = list(self.spans)
            cache = dict(self.cache, skipped_degraded=self.skipped_degraded)
            abandoned = self._abandoned
        tasks = sum(by_status.values())
        document: Dict[str, object] = {
            "schema": METRICS_SCHEMA,
            "run": {
                "elapsed_seconds": elapsed_seconds,
                "jobs": jobs,
                "deadline": deadline,
                "tasks": tasks,
                # neither a cache hit nor an abandoned cell ran here
                "computed": tasks - cache["hits"] - abandoned,
                "cached": by_status["cached"],
                "ok": by_status["ok"],
                "degraded": by_status["degraded"],
                "errors": by_status["error"],
            },
            "workers": workers,
            "chunks": chunks,
            "spans": spans,
            "cache": cache,
            "analyses": analyses,
            "items": items,
        }
        if service is not None:
            document["service"] = dict(service)
        if fuzz is not None:
            document["fuzz"] = dict(fuzz)
        return document


def validate_metrics(doc: object) -> List[str]:
    """Structural check of a metrics document; returns problems found.

    An empty list means the document conforms to
    :data:`METRICS_SCHEMA`.  The check is deliberately strict about
    presence and types but silent about extra keys, so the schema can
    grow without breaking older validators.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, not an object"]
    if doc.get("schema") != METRICS_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {METRICS_SCHEMA!r}"
        )
    for section in ("run", "workers", "chunks", "cache", "analyses"):
        if not isinstance(doc.get(section), dict):
            problems.append(f"missing or non-object section {section!r}")
    for section in ("items", "spans"):
        if not isinstance(doc.get(section), list):
            problems.append(f"missing or non-list section {section!r}")
    if problems:
        return problems

    run = doc["run"]
    for key in ("elapsed_seconds", "jobs", "tasks", "computed",
                "cached", "ok", "degraded", "errors"):
        if not isinstance(run.get(key), (int, float)):
            problems.append(f"run.{key} missing or non-numeric")
    if "deadline" not in run:
        problems.append("run.deadline missing")
    for key in ("pools", "crashes", "retries", "abandoned"):
        if not isinstance(doc["workers"].get(key), int):
            problems.append(f"workers.{key} missing or non-integer")
    for key in ("submitted", "cells", "bytes_pickled"):
        if not isinstance(doc["chunks"].get(key), int):
            problems.append(f"chunks.{key} missing or non-integer")
    for i, span in enumerate(doc["spans"]):
        if not isinstance(span, dict):
            problems.append(f"spans[{i}] is not an object")
            continue
        if not isinstance(span.get("name"), str):
            problems.append(f"spans[{i}].name missing or non-string")
        if not isinstance(span.get("seconds"), (int, float)):
            problems.append(f"spans[{i}].seconds missing or non-numeric")
    for name, agg in doc["analyses"].items():
        if not isinstance(agg, dict):
            problems.append(f"analyses.{name} is not an object")
            continue
        for key in ("tasks", "cached", "ok", "degraded", "errors",
                    "seconds_total", "seconds_max"):
            if not isinstance(agg.get(key), (int, float)):
                problems.append(f"analyses.{name}.{key} missing or non-numeric")
    if "service" in doc:
        service = doc["service"]
        if not isinstance(service, dict):
            problems.append("section 'service' is not an object")
        else:
            for key in ("requests", "in_flight", "waiting", "coalesced",
                        "lru_hits", "lru_misses", "client_disconnects",
                        "bytes_read"):
                if not isinstance(service.get(key), int):
                    problems.append(f"service.{key} missing or non-integer")
            admission = service.get("admission")
            if not isinstance(admission, dict):
                problems.append("service.admission missing or not an object")
            else:
                for key in ("admitted", "rejected_busy", "rate_limited",
                            "aborted", "max_queue"):
                    if not isinstance(admission.get(key), int):
                        problems.append(
                            f"service.admission.{key} missing or non-integer"
                        )
            tenants = service.get("tenants")
            if not isinstance(tenants, dict):
                problems.append("service.tenants missing or not an object")
            else:
                for name, record in tenants.items():
                    if not isinstance(record, dict):
                        problems.append(
                            f"service.tenants.{name} is not an object"
                        )
                        continue
                    for key in ("requests", "rate_limited"):
                        if not isinstance(record.get(key), int):
                            problems.append(
                                f"service.tenants.{name}.{key} "
                                "missing or non-integer"
                            )
    if "fuzz" in doc:
        fuzz = doc["fuzz"]
        if not isinstance(fuzz, dict):
            problems.append("section 'fuzz' is not an object")
        else:
            for key in ("programs", "checks", "skips", "violations",
                        "findings", "shrink_iterations"):
                if not isinstance(fuzz.get(key), int):
                    problems.append(f"fuzz.{key} missing or non-integer")
            if not isinstance(fuzz.get("oracles"), dict):
                problems.append("fuzz.oracles missing or non-object")
    for i, entry in enumerate(doc["items"]):
        if not isinstance(entry, dict):
            problems.append(f"items[{i}] is not an object")
            continue
        if entry.get("status") not in ITEM_STATUSES:
            problems.append(f"items[{i}].status {entry.get('status')!r} invalid")
        for key in ("program", "analysis"):
            if not isinstance(entry.get(key), str):
                problems.append(f"items[{i}].{key} missing or non-string")
        if "seconds" not in entry:
            problems.append(f"items[{i}].seconds missing")
    return problems

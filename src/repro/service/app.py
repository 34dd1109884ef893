"""The resident analysis service behind ``repro serve``.

:class:`AnalysisService` wraps the batch pipeline
(:func:`repro.pipeline.run_pipeline`) into a long-lived, thread-safe
request handler.  Three things make it a service rather than a loop
around the CLI:

* **a persistent worker pool** — one :class:`repro.pipeline.WorkerPool`
  survives across requests, so a request pays for analysis, never for
  process startup (the pool is pre-forked before the first request);
* **a two-tier cache** — a bounded in-memory LRU
  (:class:`repro.pipeline.MemoryLRU`) in front of the on-disk
  content-addressed store, keyed by the same ``cache_key``; a warm hit
  is served without touching the pool at all;
* **admission control** — a bounded admission gauge (429 with a
  ``Retry-After`` hint once ``in_flight + waiting`` would exceed
  ``max_queue``) and optional per-tenant token-bucket rate limits
  (:class:`repro.observe.TokenBucket`, keyed by the transport's
  ``X-Repro-Tenant`` header), so overload degrades into cheap explicit
  refusals instead of an unbounded thread pile-up.

Every admitted request takes one path: decode, parse and validate,
``run_pipeline`` on the service's one cache and one pool, render.

The response contract is strict: for any (program, analyses, config)
the ``POST /analyze`` body is byte-identical to the ``repro batch
--json`` document for the same inputs — the service is a cache+pool in
front of the pipeline, never a different pipeline.  Deadlines degrade
(partial results flagged ``degraded``), they do not 500; see
``docs/service.md`` for the endpoint schema and the shutdown/drain
behaviour.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from typing import Dict, Optional, Tuple

import repro
from repro.lang.parser import parse_subject
from repro.lang.validate import validate_program
from repro.observe import MetricsAggregator, TokenBucket
from repro.pipeline import (
    ANALYSES,
    MemoryLRU,
    ResultCache,
    TieredCache,
    WorkerPool,
    check_config,
    run_pipeline,
)

#: Default analyses when a request names none — the same default as
#: ``repro batch``.
DEFAULT_ANALYSES: Tuple[str, ...] = ("cert", "lint")

#: Cap on request body size (bytes); a guard, not a tuning knob.
MAX_REQUEST_BYTES = 4 * 1024 * 1024

#: Per-cell item records the resident metrics aggregator retains (the
#: cumulative ``run``/``analyses`` aggregates are exact regardless).
SERVICE_ITEM_RECORDS = 2048

#: Tenant name used when the transport supplies none.
DEFAULT_TENANT = "default"

#: Tenants tracked individually before new names fold into one
#: overflow bucket — the tenant header is client-controlled, so the
#: registry must not grow without bound.
MAX_TENANTS = 1024

#: Where requests beyond :data:`MAX_TENANTS` distinct tenants land.
OVERFLOW_TENANT = "(overflow)"

#: ``Retry-After`` hint (seconds) for a busy rejection.  Capacity
#: frees when an in-flight analysis finishes, which the service cannot
#: price per-request; one second is the polling cadence we want
#: well-behaved clients to adopt.
RETRY_AFTER_BUSY = 1


class ServiceError(Exception):
    """A request the service rejects (HTTP 4xx), with a clean message."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def _error_body(message: str, status: int) -> bytes:
    document = {"error": message, "status": status}
    return (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")


class AnalysisService:
    """The request-level core of ``repro serve`` (transport-agnostic).

    The HTTP layer (:mod:`repro.service.httpd`) owns sockets and
    signals; everything about *analysis* — parsing requests, the cache
    tiers, the pool, metrics — lives here, which is what the test
    suite drives directly.

    ``jobs=1`` runs analyses in-process (no pool); ``jobs > 1`` keeps
    one persistent pre-forked pool of ``jobs`` workers, shared by every
    request.  ``cache_dir=None`` disables the disk tier, ``lru_capacity=0``
    the memory tier; with both disabled every request recomputes.
    ``default_deadline`` applies to requests that do not set
    ``config.deadline`` themselves (``None`` = unlimited).

    Admission: ``max_queue`` bounds ``in_flight + waiting`` (requests
    running the pipeline plus admitted requests still parsing); a
    request over the bound is a 429, never a queued thread.
    ``tenant_rps`` (with ``tenant_burst``, default
    ``max(1, tenant_rps)``) enables one :class:`TokenBucket` per tenant.
    """

    def __init__(
        self,
        jobs: int = 2,
        cache_dir: Optional[str] = None,
        lru_capacity: int = 4096,
        default_deadline: Optional[float] = None,
        max_queue: int = 64,
        tenant_rps: Optional[float] = None,
        tenant_burst: Optional[float] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if tenant_rps is not None and tenant_rps <= 0:
            raise ValueError(f"tenant_rps must be > 0, got {tenant_rps}")
        self.jobs = jobs
        self.default_deadline = default_deadline
        self.pool: Optional[WorkerPool] = WorkerPool(jobs) if jobs > 1 else None
        disk = ResultCache(cache_dir) if cache_dir else None
        if disk is None and lru_capacity == 0:
            self.cache: Optional[TieredCache] = None
        else:
            self.cache = TieredCache(disk, MemoryLRU(lru_capacity))
        self.observer = MetricsAggregator(max_items=SERVICE_ITEM_RECORDS)
        self.draining = False
        self.started_at = time.monotonic()
        self.requests = 0
        self.rejected = 0
        self.in_flight = 0
        #: Admitted requests still parsing, not yet running the
        #: pipeline.  The drain joins these threads too, so they are
        #: first-class in every snapshot.
        self.waiting = 0
        self.max_queue = max_queue
        self.tenant_rps = tenant_rps
        self.tenant_burst = tenant_burst
        self.admission: Dict[str, int] = {
            "admitted": 0,
            "rejected_busy": 0,
            "rate_limited": 0,
            "aborted": 0,
        }
        self.tenants: Dict[str, Dict[str, int]] = {}
        self.client_disconnects = 0
        self.body_bytes_read = 0
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    def warm(self) -> None:
        """Pre-fork the pool's workers (before serving threads exist)."""
        if self.pool is not None:
            self.pool.warm(self.observer)

    def begin_drain(self) -> None:
        """Refuse new work; in-flight requests run to completion."""
        with self._lock:
            self.draining = True

    def close(self) -> None:
        """Tear down the worker pool."""
        if self.pool is not None:
            self.pool.close()

    # -- request handling ---------------------------------------------

    def analyze_json(self, raw: bytes, tenant: Optional[str] = None) -> Tuple[int, bytes]:
        """Handle one ``POST /analyze`` body; returns (status, body).

        Malformed requests are 400s with a JSON error document; valid
        requests always produce the deterministic pipeline document —
        a per-request deadline yields ``degraded``-flagged partial
        results inside a 200, never a 500.  The headers-free wrapper
        around :meth:`analyze_request` for callers (and tests) that do
        not care about ``Retry-After``.
        """
        status, body, _headers = self.analyze_request(raw, tenant=tenant)
        return status, body

    def analyze_request(
        self, raw: bytes, tenant: Optional[str] = None
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """Full front-line path: returns (status, body, extra headers).

        Order of refusal (each is cheap and happens *before* any
        pipeline work): 413 oversized body, 429 per-tenant rate limit
        (``Retry-After`` = seconds until the bucket refills), 429
        admission bound (``in_flight + waiting`` would exceed
        ``max_queue``), 400 malformed request.  Only an admitted,
        validated request reaches the cache and the pool.
        """
        tenant_name = tenant or DEFAULT_TENANT
        with self._lock:
            self.requests += 1
            tenant_name, record = self._tenant_record_locked(tenant_name)
            record["requests"] += 1
        if len(raw) > MAX_REQUEST_BYTES:
            status, body = self._reject(
                f"request body exceeds {MAX_REQUEST_BYTES} bytes", 413
            )
            return status, body, {}
        if self.tenant_rps is not None:
            bucket = self._bucket(tenant_name)
            if not bucket.try_acquire():
                retry = max(1, int(bucket.retry_after() + 0.999))
                with self._lock:
                    self.rejected += 1
                    self.admission["rate_limited"] += 1
                    self.tenants[tenant_name]["rate_limited"] += 1
                return (
                    429,
                    _error_body(
                        f"tenant {tenant_name!r} over rate limit", 429
                    ),
                    {"Retry-After": str(retry)},
                )
        with self._lock:
            if self.in_flight + self.waiting >= self.max_queue:
                self.rejected += 1
                self.admission["rejected_busy"] += 1
                return (
                    429,
                    _error_body(
                        f"service at capacity ({self.max_queue} admitted)",
                        429,
                    ),
                    {"Retry-After": str(RETRY_AFTER_BUSY)},
                )
            self.admission["admitted"] += 1
            self.waiting += 1
        try:
            status, body = self._admitted(raw)
        finally:
            with self._lock:
                self.waiting -= 1
        return status, body, {}

    def _admitted(self, raw: bytes) -> Tuple[int, bytes]:
        """Decode, parse and run one admitted request body."""
        try:
            request = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return self._reject("request body is not valid JSON", 400)
        try:
            corpus, analyses, config = self._parse_request(request)
        except ServiceError as exc:
            return self._reject(str(exc), exc.status)
        except Exception:
            # anything else escaping parse or validation is a service
            # bug: answer it, never drop the connection
            return self._abort()
        return self._run(corpus, analyses, config)

    def _reject(self, message: str, status: int) -> Tuple[int, bytes]:
        with self._lock:
            self.rejected += 1
        return status, _error_body(message, status)

    def _abort(self) -> Tuple[int, bytes]:
        """The counted 500 for a service bug; its traceback goes to stderr."""
        traceback.print_exc()
        with self._lock:
            self.admission["aborted"] += 1
        return 500, _error_body("internal service error", 500)

    def _tenant_record_locked(
        self, name: str
    ) -> Tuple[str, Dict[str, int]]:
        """Resolve a tenant's counter record (caller holds ``_lock``).

        The tenant header is client-controlled, so past
        :data:`MAX_TENANTS` distinct names everything new folds into
        :data:`OVERFLOW_TENANT` — the registry (and the bucket map)
        stays bounded no matter what clients send.
        """
        record = self.tenants.get(name)
        if record is None:
            if len(self.tenants) >= MAX_TENANTS:
                name = OVERFLOW_TENANT
                record = self.tenants.setdefault(
                    name, {"requests": 0, "rate_limited": 0}
                )
            else:
                record = {"requests": 0, "rate_limited": 0}
                self.tenants[name] = record
        return name, record

    def _bucket(self, name: str) -> TokenBucket:
        """The (lazily created) rate-limit bucket for one tenant."""
        with self._lock:
            bucket = self._buckets.get(name)
            if bucket is None:
                bucket = TokenBucket(self.tenant_rps, self.tenant_burst)
                self._buckets[name] = bucket
            return bucket

    def _run(self, corpus, analyses, config) -> Tuple[int, bytes]:
        with self._lock:
            # this thread graduates from *waiting* to *running*; the
            # caller's finally decrements waiting exactly once, so put
            # the slot back on the way out.
            self.waiting -= 1
            self.in_flight += 1
        try:
            result = run_pipeline(
                corpus,
                analyses=analyses,
                jobs=self.jobs,
                config=config,
                cache=self.cache,
                pool=self.pool,
                observer=self.observer,
            )
        except Exception:
            # Request-level validation already happened in
            # _parse_request; anything escaping the pipeline here is a
            # service bug and must read as one, never as a client 400.
            return self._abort()
        finally:
            with self._lock:
                self.in_flight -= 1
                self.waiting += 1
        body = (result.to_json() + "\n").encode("utf-8")
        return 200, body

    def _parse_request(self, request: object):
        """Validate and resolve one request document.

        Shape (see ``docs/service.md``)::

            {"program": "...", "name": "p.rl", "kind": "program",
             "analyses": ["cert", "explore"], "config": {...}}

        or ``"programs": [{"name", "program", "kind"}, ...]`` for a
        whole corpus.  Raises :class:`ServiceError` on anything that
        ``repro batch`` would have refused at the command line.
        """
        if not isinstance(request, dict):
            raise ServiceError("request must be a JSON object")
        unknown = set(request) - {
            "program", "programs", "name", "kind", "analyses", "config",
            "deadline",
        }
        if unknown:
            raise ServiceError(
                f"unknown request field(s): {sorted(unknown)}"
            )

        # request-shape checks first: they are cheap and their error
        # messages should win over a parse error in the program text
        analyses = request.get("analyses", list(DEFAULT_ANALYSES))
        if not isinstance(analyses, list) or not all(
            isinstance(a, str) for a in analyses
        ):
            raise ServiceError("'analyses' must be an array of analysis names")
        if not analyses:
            raise ServiceError("'analyses' must name at least one analysis")
        for name in analyses:
            # validate *here*, before any pipeline work: an unknown
            # name must be a 400, and the pipeline's own ValueError
            # must stay free to mean "service bug" (the 500 path).
            if name not in ANALYSES:
                raise ServiceError(
                    f"unknown analysis {name!r}; "
                    f"available: {', '.join(sorted(ANALYSES))}"
                )

        config = request.get("config", {})
        if not isinstance(config, dict):
            raise ServiceError("'config' must be an object")
        config = dict(config)
        if "deadline" in request:
            if "deadline" in config:
                raise ServiceError(
                    "give the deadline once: top-level or config.deadline"
                )
            config["deadline"] = request["deadline"]
        if "deadline" not in config and self.default_deadline is not None:
            config["deadline"] = self.default_deadline
        try:
            check_config(config)
        except ValueError as exc:
            raise ServiceError(str(exc))

        if "programs" in request:
            if "program" in request:
                raise ServiceError("give either 'program' or 'programs', not both")
            entries = request["programs"]
            if not isinstance(entries, list) or not entries:
                raise ServiceError("'programs' must be a non-empty array")
        else:
            if "program" not in request:
                raise ServiceError("request needs a 'program' (source text)")
            entries = [
                {
                    "program": request["program"],
                    "name": request.get("name", "program"),
                    "kind": request.get("kind", "program"),
                }
            ]

        corpus = []
        names = set()
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ServiceError(f"programs[{i}] must be an object")
            source = entry.get("program")
            if not isinstance(source, str) or not source.strip():
                raise ServiceError(
                    f"programs[{i}].program must be non-empty source text"
                )
            name = entry.get("name", f"program-{i}")
            if not isinstance(name, str) or not name:
                raise ServiceError(f"programs[{i}].name must be a string")
            if name in names:
                # an unnamed entry defaults to program-<i>, which an
                # explicit name can already hold
                raise ServiceError(
                    f"programs[{i}].name {name!r} repeats an earlier name"
                )
            names.add(name)
            kind = entry.get("kind", "program")
            if kind not in ("program", "statement"):
                raise ServiceError(
                    f"programs[{i}].kind must be 'program' or 'statement', "
                    f"got {kind!r}"
                )
            try:
                subject = parse_subject(source, kind)
            except Exception as exc:
                raise ServiceError(f"{name}: parse error: {exc}")
            if kind == "program":
                problems = validate_program(subject)
                if problems:
                    raise ServiceError(f"{name}: {problems[0]}")
            corpus.append((name, subject))

        return corpus, tuple(analyses), config

    # -- introspection -------------------------------------------------

    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started_at

    def note_client_disconnect(self) -> None:
        """Record a client that went away mid-response (transport hook)."""
        with self._lock:
            self.client_disconnects += 1

    def note_bytes_read(self, count: int) -> None:
        """Record request-body bytes actually read off a socket.

        The 413/400 pre-read guards exist so this counter does *not*
        move for refused oversized bodies — the test suite asserts
        exactly that through a real socket.
        """
        with self._lock:
            self.body_bytes_read += count

    def service_counters(self) -> Dict[str, object]:
        """The ``service`` section of the metrics document.

        All but ``pool``, which :meth:`metrics_document` adds from the
        run ledger.
        """
        lru = self.cache.lru.to_dict() if self.cache is not None else None
        with self._lock:
            counters: Dict[str, object] = {
                "requests": self.requests,
                "in_flight": self.in_flight,
                "waiting": self.waiting,
                # retired with request coalescing; kept at 0 because
                # existing readers still look the key up
                "coalesced": 0,
                "rejected": self.rejected,
                "draining": self.draining,
                "client_disconnects": self.client_disconnects,
                "bytes_read": self.body_bytes_read,
                "uptime_seconds": self.uptime_seconds(),
                "lru_hits": lru["hits"] if lru else 0,
                "lru_misses": lru["misses"] if lru else 0,
                "admission": dict(self.admission, max_queue=self.max_queue),
                "tenants": {
                    name: dict(record)
                    for name, record in sorted(self.tenants.items())
                },
            }
        if lru is not None:
            counters["lru"] = lru
        return counters

    def metrics_document(self) -> Dict[str, object]:
        """The cumulative ``repro-metrics/1`` document for ``/metrics``.

        ``service.pool`` restates the pool's share of the run ledger
        from the same snapshot: every chunk submitted and every
        executor started ran on this service's one observer.
        """
        document = self.observer.to_dict(
            elapsed_seconds=self.uptime_seconds(),
            jobs=self.jobs,
            deadline=self.default_deadline,
            service=self.service_counters(),
        )
        if self.pool is not None:
            document["service"]["pool"] = {
                "jobs": self.pool.jobs,
                "submitted": document["chunks"]["submitted"],
                "pools_started": document["workers"]["pools"],
            }
        return document

    def health_document(self) -> Tuple[int, Dict[str, object]]:
        """The ``/healthz`` payload: 200 while serving, 503 draining.

        The snapshot is taken under ``_lock`` — request threads mutate
        every one of these fields, and a health probe racing a writer
        must never see a torn view (e.g. ``draining`` true with a
        stale ``in_flight``).
        """
        with self._lock:
            draining = self.draining
            document = {
                "status": "draining" if draining else "ok",
                "version": repro.__version__,
                "uptime_seconds": round(self.uptime_seconds(), 3),
                "requests": self.requests,
                "in_flight": self.in_flight,
                "waiting": self.waiting,
            }
        return (503 if draining else 200), document

    def drain_snapshot(self) -> Tuple[int, int]:
        """(in_flight, waiting) under the lock — for the drain log."""
        with self._lock:
            return self.in_flight, self.waiting

"""The batch pipeline: fan a corpus out over workers, memoize on disk.

``run_pipeline`` takes a corpus of named programs (the shape produced
by :func:`repro.workloads.suites.corpus`), a set of analyses, a worker
count, and a cache directory, and produces one deterministic result
document.  The execution strategy:

1. every subject is canonicalized to pretty-printed source text — the
   unit of work that crosses process boundaries and the content that
   addresses the cache;
2. the parent resolves cache hits up front (a warm run never touches
   the pool at all, which is what makes re-runs near-free);
3. the remaining tasks go to a ``concurrent.futures`` process pool
   when ``jobs > 1`` and more than one misses (a caller-owned pool
   always gets them).  Tasks are dispatched in *chunks*: many
   (program, analysis) cells ride one submitted task, so executor
   dispatch and pickling are amortized instead of dominating tiny
   analyses (``chunk_size``; auto-sized from the pending-cell count
   and ``jobs``).  Workers re-parse the source, which costs more than
   a cert or Denning pass, so each chunk carries each of its programs'
   text once and the worker parses it once (:class:`_Source`);
4. fresh results are written back to the cache and merged, and the
   document is assembled in sorted program order.

Fault isolation contract: no single program can take down a corpus
run.  An analysis that *raises* becomes a structured per-item error
record (exception type + truncated traceback) inside the worker; a
worker that *dies* (``MemoryError`` escaping the interpreter, a
signal, ``os._exit``) breaks the pool, which the parent rebuilds —
surviving tasks are retried a bounded number of times and a task that
repeatedly kills its worker is abandoned with a ``WorkerCrash`` error
record.  Every dispatch round — the first, and each retry round —
goes through :meth:`WorkerPool.run`'s one submit-and-collect step, and
the fuzz driver shares the pipeline's pool lifecycle (:func:`_execute`).
An analysis that exhausts its :class:`repro.observe.Budget`
(``deadline=...``) returns a partial result flagged ``degraded``;
degraded results are reported but never cached.

Observability: the run narrates itself through a
:class:`repro.observe.MetricsAggregator` — per-task spans, pool
lifecycle events, each cache read's own outcome and each write that
landed — which both feeds an optional JSON-lines trace sink and
renders the metrics document available as
:attr:`PipelineResult.metrics` (and ``repro batch --metrics``).  The
aggregator is the only thing that counts: the caches and the worker
pool keep no counters of their own.

Determinism contract: :meth:`PipelineResult.to_json` is byte-identical
across ``jobs=1``, ``jobs=N`` and warm-cache runs of the same corpus
and configuration.  Volatile facts (timings, hit/miss counts, worker
count) live in :attr:`PipelineResult.metrics`, which is deliberately
*not* part of the document.  Runs with a ``deadline`` are the one
exception: where the clock truncates an analysis is inherently
timing-dependent, so degraded cells may differ between runs (they are
flagged, auditable, and excluded from the cache for exactly that
reason).
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import threading
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple, Union

import repro
from repro.lang.ast import Program, Stmt
from repro.lang.parser import parse_program, parse_statement
from repro.lang.pretty import pretty
from repro.observe import MetricsAggregator, TraceEmitter
from repro.pipeline.analyses import ANALYSES, DEFAULT_CONFIG, check_config
from repro.pipeline.cache import ResultCache, cache_key

Subject = Union[Program, Stmt]

#: Total attempts a task gets when its worker keeps dying (the first
#: run plus bounded retries for transient failures).
MAX_TASK_ATTEMPTS = 3

#: Characters of formatted traceback kept in an error record.
_TRACEBACK_LIMIT = 1_000

#: Auto chunk sizing aims at about this many chunks per worker: large
#: enough to amortize submission/pickling over many cells, small
#: enough that one slow chunk cannot serialize the tail of the run.
_CHUNKS_PER_WORKER = 4


class _Source:
    """A canonical source text shared by every cell of its program.

    ``parsed`` (kind -> subject) is the worker parse memo; it holds
    successful parses only.  One ``pickle.dumps`` sends a shared object
    once, so a worker gets one ``_Source`` per program per chunk (an
    in-process run, one per :func:`run_pipeline` call).  ``__reduce__``
    sends the text only, never a parse.
    """

    __slots__ = ("text", "parsed")

    def __init__(self, text: str):
        self.text = text
        self.parsed: Dict[str, Subject] = {}

    def __reduce__(self):
        return _Source, (self.text,)


def _subject_from_source(source: str, kind: str) -> Subject:
    return parse_program(source) if kind == "program" else parse_statement(source)


def _error_record(exc: BaseException) -> dict:
    """A structured, deterministic per-item error entry."""
    tb = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return {
        "error": f"{type(exc).__name__}: {exc}",
        "error_type": type(exc).__name__,
        "traceback": tb[-_TRACEBACK_LIMIT:],
    }


def _compute(payload: Tuple[_Source, str, str, dict]) -> dict:
    """Worker entry point: run one analysis on one program.

    Top-level (picklable) and exception-safe: analysis failures become
    a deterministic structured error record instead of poisoning the
    pool — a batch over an arbitrary corpus must report per-program
    failures, not die on the first odd program.  Returns an envelope
    ``{"result": ..., "seconds": ...}``; the wall time is measured in
    the worker so it covers the analysis (and any parse), not queueing.
    """
    shared, kind, analysis, config = payload
    source = shared.text
    spec = ANALYSES[analysis]
    started = time.perf_counter()
    try:
        subject = shared.parsed.get(kind)
        if subject is None:
            subject = _subject_from_source(source, kind)
            shared.parsed[kind] = subject
        result = spec.run(subject, config)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        result = _error_record(exc)
    return {"result": result, "seconds": time.perf_counter() - started}


def _run_chunk(fn, chunk: List[tuple]) -> List[dict]:
    """Chunk-level worker entry point: run ``fn`` over many payloads.

    One submitted task per chunk amortizes executor dispatch and
    payload pickling over many cells, which is what lets ``jobs > 1``
    beat serial on corpora of tiny analyses.  Per-cell isolation is
    preserved: a payload whose ``fn`` raises, or whose envelope cannot
    cross the process boundary back, becomes *that cell's* error
    record — never the chunk's.
    """
    envelopes = []
    for payload in chunk:
        try:
            envelope = fn(payload)
            pickle.dumps(envelope)  # must survive the trip back intact
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            envelope = {"result": _error_record(exc), "seconds": None}
        envelopes.append(envelope)
    return envelopes


def _auto_chunk_size(cells: int, jobs: int) -> int:
    """Cells per chunk when the caller sets no ``chunk_size``."""
    return max(1, -(-cells // (jobs * _CHUNKS_PER_WORKER)))


class PipelineResult:
    """Everything one ``run_pipeline`` call produced.

    ``programs`` is a sorted list of
    ``{"name", "source", "analyses": {analysis: result}}`` entries;
    ``metrics`` is the run record: the volatile facts (wall time, cache
    counters, worker count) in the observability document (schema in
    :mod:`repro.observe.metrics`), excluded from :meth:`to_dict`.
    """

    def __init__(
        self,
        programs: List[dict],
        analyses: Tuple[str, ...],
        config: Dict[str, object],
        metrics: Dict[str, object],
    ):
        self.programs = programs
        self.analyses = analyses
        self.config = dict(config)
        self.metrics = dict(metrics)

    def to_dict(self) -> dict:
        """The deterministic result document (no timings, no counters).

        ``fastpath`` is an execution-strategy knob with a byte-identity
        contract (like ``jobs`` or caching, which are also not part of
        the document): toggling it must not change a single byte, so it
        is excluded from the config echo.
        """
        echoed = {k: self.config[k] for k in sorted(self.config) if k != "fastpath"}
        return {
            "analyses": list(self.analyses),
            "config": echoed,
            "programs": self.programs,
            "version": repro.__version__,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize :meth:`to_dict`; byte-stable for identical inputs."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def program(self, name: str) -> dict:
        """The entry for the program called ``name``."""
        for entry in self.programs:
            if entry["name"] == name:
                return entry
        raise KeyError(name)

    def errors(self) -> List[Tuple[str, str, str]]:
        """Every failed analysis as ``(program, analysis, message)``."""
        out = []
        for entry in self.programs:
            for analysis in self.analyses:
                result = entry["analyses"][analysis]
                if "error" in result:
                    out.append((entry["name"], analysis, result["error"]))
        return out

    def degraded(self) -> List[Tuple[str, str, str]]:
        """Budget-truncated cells as ``(program, analysis, limit)``."""
        out = []
        for entry in self.programs:
            for analysis in self.analyses:
                result = entry["analyses"][analysis]
                if result.get("degraded"):
                    out.append(
                        (entry["name"], analysis, str(result.get("limit")))
                    )
        return out

    def __repr__(self) -> str:
        return (
            f"<PipelineResult {len(self.programs)} programs x "
            f"{len(self.analyses)} analyses>"
        )


def _canonical_corpus(
    corpus: Sequence[Tuple[str, Subject]]
) -> List[Tuple[str, str, str]]:
    """Sorted ``(name, canonical-source, kind)`` triples.

    Sorting by name makes the document independent of corpus order;
    duplicate names are rejected (they would silently shadow).
    """
    seen = set()
    out = []
    for name, subject in corpus:
        if name in seen:
            raise ValueError(f"duplicate program name {name!r} in corpus")
        seen.add(name)
        kind = "program" if isinstance(subject, Program) else "statement"
        out.append((name, pretty(subject), kind))
    out.sort(key=lambda triple: triple[0])
    return out


def _item_status(result: dict, cached: bool) -> str:
    if "error" in result:
        return "error"
    if result.get("degraded"):
        return "degraded"
    return "cached" if cached else "ok"


def _explore_counters(analysis: str, result: dict) -> Optional[Dict[str, int]]:
    """The explorer counters carried into the metrics document."""
    if analysis != "explore" or "error" in result:
        return None
    return {
        key: int(result[key])
        for key in ("states", "transitions", "reduced_states")
        if isinstance(result.get(key), int)
    }


def run_pipeline(
    corpus: Sequence[Tuple[str, Subject]],
    analyses: Sequence[str] = ("cert", "lint"),
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    config: Optional[Dict[str, object]] = None,
    deadline: Optional[float] = None,
    trace: Optional[TraceEmitter] = None,
    pool: Optional[WorkerPool] = None,
    cache: Optional[object] = None,
    observer: Optional[MetricsAggregator] = None,
    chunk_size: Optional[int] = None,
) -> PipelineResult:
    """Run ``analyses`` over every program in ``corpus``.

    ``corpus`` is a sequence of ``(name, Program-or-Stmt)`` pairs with
    unique names.  ``jobs > 1`` fans cache misses out over a process
    pool; ``cache_dir`` (with ``use_cache=True``) enables the on-disk
    content-addressed cache.  ``config`` overlays
    :data:`repro.pipeline.analyses.DEFAULT_CONFIG`; unknown keys and
    ill-typed values are rejected (:func:`check_config`) so typos cannot
    silently produce wrong cache keys or a different policy.

    ``deadline`` (seconds) is the per-analysis wall-clock budget: an
    analysis that exhausts it returns a partial result flagged
    ``degraded`` and the batch carries on — so one divergent or
    state-explosive program costs at most the deadline, never the run.
    Deadlines are per *task*: every (program, analysis) cell starts its
    own clock, so an earlier slow task never shortens a later one's
    grant.  ``trace`` (a :class:`repro.observe.TraceEmitter`) receives
    the run's spans and lifecycle events; the aggregated metrics
    document is always available as :attr:`PipelineResult.metrics`.

    The three resident-service hooks (``repro serve`` uses all of
    them): ``pool`` is a caller-owned :class:`WorkerPool` reused
    across calls instead of a per-call executor; ``cache`` is a
    caller-owned cache object (``lookup``/``put``, e.g. a
    :class:`repro.pipeline.cache.TieredCache`) that overrides
    ``cache_dir``/``use_cache``; ``observer`` is a caller-owned
    :class:`repro.observe.MetricsAggregator` that accumulates across
    calls (when given, ``trace`` should be wired as its sink).  The
    observer counts the cache's outcomes, so a shared cache used
    without a shared observer reports each run's own counts.

    ``chunk_size`` sets how many (program, analysis) cells ride one
    submitted worker task (CLI: ``--chunk-size``).  ``None`` auto-sizes
    from the pending-cell count and ``jobs``; ``1`` restores per-cell
    dispatch.  Chunking is an execution-strategy knob like ``jobs``:
    the document is byte-identical for every value.
    """
    started = time.perf_counter()
    if observer is None:
        observer = MetricsAggregator(sink=trace) if trace is not None else MetricsAggregator()
    for analysis in analyses:
        if analysis not in ANALYSES:
            raise ValueError(
                f"unknown analysis {analysis!r}; "
                f"available: {sorted(ANALYSES)}"
            )
    if not analyses:
        raise ValueError("no analyses requested")
    check_config(config or {})
    merged = dict(DEFAULT_CONFIG)
    merged.update(config or {})
    if deadline is not None:
        merged["deadline"] = float(deadline)
    # Normalize sequence-valued knobs so cache keys don't depend on
    # whether the caller passed a list or a tuple.
    merged["high"] = tuple(sorted(merged["high"]))

    entries = _canonical_corpus(corpus)
    analyses = tuple(analyses)
    if cache is None:
        cache = ResultCache(cache_dir) if (cache_dir and use_cache) else None

    results: Dict[Tuple[int, str], dict] = {}
    cached_cells: set = set()
    keys: Dict[Tuple[int, str], str] = {}
    # The cache misses: their cells, labels and worker payloads.  Every
    # cell of one program shares one :class:`_Source`, so a chunk
    # pickles each of its programs' text once; each cell gets its *own*
    # config dict, so a per-task budget (``deadline``) starts from the
    # task's own clock, never from a sibling's partially-spent one.
    pending: List[Tuple[int, str]] = []
    labels: List[Tuple[str, str]] = []
    payloads: List[tuple] = []
    sources: Dict[str, _Source] = {}
    for index, (name, source, kind) in enumerate(entries):
        for analysis in analyses:
            cell = (index, analysis)
            if cache is not None:
                key = cache_key(
                    source,
                    kind,
                    analysis,
                    ANALYSES[analysis].config_slice(merged),
                    repro.__version__,
                )
                keys[cell] = key
                hit, corrupt = cache.lookup(key)
                observer.cache_read(hit is not None, corrupt)
                if hit is not None:
                    results[cell] = hit
                    cached_cells.add(cell)
                    continue
            if source not in sources:
                sources[source] = _Source(source)
            pending.append(cell)
            labels.append((name, analysis))
            payloads.append((sources[source], kind, analysis, dict(merged)))

    computed = _execute(
        labels, payloads, jobs, observer, pool=pool, chunk_size=chunk_size
    )
    seconds: Dict[Tuple[int, str], Optional[float]] = {}
    for cell, envelope in zip(pending, computed):
        result = envelope["result"]
        results[cell] = result
        seconds[cell] = envelope.get("seconds")
        if cache is not None:
            if result.get("degraded"):
                # A budget-truncated partial result is a fact about
                # this run's clock, not about the program — caching it
                # would replay the truncation forever.
                observer.cache_skip_degraded()
            elif result.get("error_type") == "WorkerCrash":
                pass  # environment trouble, not a property of the program
            elif cache.put(keys[cell], cell[1], result):
                observer.cache_write()

    for index, (name, source, kind) in enumerate(entries):
        for analysis in analyses:
            cell = (index, analysis)
            result = results[cell]
            cached = cell in cached_cells
            status = _item_status(result, cached)
            observer.item(
                name,
                analysis,
                status,
                seconds=seconds.get(cell),
                error_type=result.get("error_type")
                if status == "error"
                else None,
                limit=result.get("limit") if status == "degraded" else None,
                explore=_explore_counters(analysis, result),
            )

    programs = [
        {
            "name": name,
            "kind": kind,
            "analyses": {a: results[(index, a)] for a in sorted(analyses)},
        }
        for index, (name, source, kind) in enumerate(entries)
    ]
    elapsed = time.perf_counter() - started
    # The run span must land before the document is assembled, or
    # ``PipelineResult.metrics`` would never contain it.
    observer.span("run", elapsed, jobs=jobs, tasks=len(entries) * len(analyses))
    metrics = observer.to_dict(
        elapsed_seconds=elapsed, jobs=jobs, deadline=merged.get("deadline")
    )
    return PipelineResult(programs, tuple(sorted(analyses)), merged, metrics)


def _pool_context():
    """fork shares the already-imported package with workers; spawn
    (the only option on some platforms) pays a per-worker import."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


def _crash_record(attempts: int, detail: str) -> dict:
    """The envelope for a task whose worker died on every attempt."""
    return {
        "result": {
            "error": f"WorkerCrash: worker died {attempts} time(s) ({detail})",
            "error_type": "WorkerCrash",
            "traceback": "",
        },
        "seconds": None,
    }


def _reprice_deadline(
    config: dict, first_submitted: float, now: float
) -> dict:
    """The retry-time config: the deadline is what's *left*, not the
    original grant.

    A deadline-carrying task whose worker crashed is retried; giving
    the retry the original deadline would let a crash + retry spend up
    to ``MAX_TASK_ATTEMPTS`` times the caller's budget.  The retry is
    charged the wall-clock already spent since the task's first
    submission, clamped at zero (a zero deadline degrades immediately,
    which is exactly the contract: partial result, flagged, on time).
    """
    deadline = config.get("deadline")
    if deadline is None:
        return config
    repriced = dict(config)
    repriced["deadline"] = max(0.0, float(deadline) - (now - first_submitted))
    return repriced


def _warm_worker() -> bool:
    """A no-op task used to pre-spawn pool workers (see WorkerPool.warm)."""
    return True


class WorkerPool:
    """A persistent, crash-isolated process pool for pipeline tasks.

    ``run_pipeline`` historically built a pool per call and tore it
    down afterwards; a resident service cannot afford that — worker
    startup would dominate every request.  A ``WorkerPool`` owns one
    ``ProcessPoolExecutor`` that survives across ``run_pipeline(...,
    pool=...)`` calls, rebuilding it only when a dying worker breaks
    it.  The crash-isolation contract is unchanged: a task that keeps
    killing its worker is abandoned with a ``WorkerCrash`` record
    after :data:`MAX_TASK_ATTEMPTS` attempts, and a retried
    deadline-carrying task only gets the *remaining* wall-clock budget
    (see :func:`_reprice_deadline`).  Both the batch pipeline and the
    fuzz driver dispatch through :meth:`run`, which names each cell by
    its ``(program, analysis)`` label.

    Thread-safe: concurrent ``run`` calls (service requests) share the
    executor; only creation/teardown is serialized.  The pool keeps no
    counters: each executor it starts is a ``pool_start`` event, and
    each chunk it submits a :meth:`MetricsAggregator.chunk` call, on
    the caller's observer.
    """

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._ctx = _pool_context()
        self._lock = threading.RLock()
        self._executor = None
        self._closed = False

    def _handle(self, observer: MetricsAggregator):
        """The live executor, creating (and announcing) one if needed."""
        from concurrent.futures import ProcessPoolExecutor

        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=self._ctx
                )
                observer.event("pool_start", workers=self.jobs)
            return self._executor

    def _discard(self, executor) -> None:
        """Drop a broken executor (unless a racing call already did)."""
        with self._lock:
            if self._executor is executor:
                self._executor = None
        executor.shutdown(wait=False, cancel_futures=True)

    def warm(self, observer: Optional[MetricsAggregator] = None) -> None:
        """Pre-spawn every worker now.

        A threaded server should fork its workers *before* request
        threads exist — forking a many-threaded process risks
        inheriting held locks.  Also moves worker startup cost out of
        the first request.
        """
        observer = observer if observer is not None else MetricsAggregator()
        pool = self._handle(observer)
        futures = [pool.submit(_warm_worker) for _ in range(self.jobs)]
        for future in futures:
            future.result()

    def close(self) -> None:
        """Shut the executor down and join it; the pool cannot be reused.

        Call it after the last ``run`` has returned.  Joining keeps the
        executor's manager thread from outliving the pool: at exit,
        ``concurrent.futures`` writes to that thread's wakeup pipe,
        which a thread still shutting down may be closing (``OSError:
        [Errno 9] Bad file descriptor``).
        """
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def run(
        self,
        labels: List[Tuple[str, str]],
        payloads: List[tuple],
        observer: MetricsAggregator,
        fn=None,
        chunk_size: Optional[int] = None,
    ) -> List[dict]:
        """Run one batch of cells, retrying across worker crashes.

        Returns one envelope per payload, in payload order (so the
        assembled document never depends on completion order).
        ``labels`` names each cell ``(program, analysis)`` in the
        ``task_retry``/``task_abandoned`` events and ``WorkerCrash``
        records.  Every round goes through one submit-and-collect step:
        the first round hands it all of its chunks of ``chunk_size``
        cells (default: auto-sized — see :func:`_auto_chunk_size`),
        each one submitted :func:`_run_chunk` task with per-cell
        exception isolation inside.  When a worker dies the broken
        executor is rebuilt and only the unfinished cells are retried,
        up to :data:`MAX_TASK_ATTEMPTS` attempts per cell; a retry
        round hands the step one singleton chunk at a time, so an
        innocent cell is never re-killed by the cell that broke its
        worker.

        ``fn`` is the per-cell worker entry point (default
        :func:`_compute`); it must be a top-level picklable callable
        taking one payload tuple.  Payload convention: the *last*
        element is the config dict, so per-cell deadline repricing on
        retry works for any caller (the fuzz driver reuses this pool
        with its own entry point).
        """
        from concurrent.futures import as_completed
        from concurrent.futures.process import BrokenProcessPool

        if fn is None:
            fn = _compute
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        results: List[Optional[dict]] = [None] * len(payloads)
        attempts = [0] * len(payloads)
        first_submitted: List[Optional[float]] = [None] * len(payloads)
        remaining = list(range(len(payloads)))

        def submit(executor, cells: List[int], now: float):
            batch = []
            for i in cells:
                payload = payloads[i]
                if first_submitted[i] is not None:
                    # a retry: charge the wall-clock spent since
                    # the cell was first handed to a worker
                    *head, config = payload
                    payload = tuple(head) + (
                        _reprice_deadline(config, first_submitted[i], now),
                    )
                batch.append(payload)
            future = executor.submit(_run_chunk, fn, batch)
            # Only now did these cells genuinely reach the executor;
            # stamping before a submit that never happens would charge
            # never-run cells wall-clock and wrongly shorten their
            # repriced deadlines.
            for i in cells:
                if first_submitted[i] is None:
                    first_submitted[i] = now
            try:
                nbytes = len(pickle.dumps((fn, batch)))
            except Exception:
                # An unpicklable fn/payload fails its own future
                # inside the executor and becomes per-cell error
                # records below; the ledger just can't price it.
                nbytes = 0
            observer.chunk(cells=len(cells), bytes_pickled=nbytes)
            return future

        def submit_and_collect(chunks: List[List[int]], now: float) -> None:
            executor = self._handle(observer)
            broken = False
            futures: Dict[object, List[int]] = {}
            try:
                for cells in chunks:
                    futures[submit(executor, cells, now)] = cells
            except (BrokenProcessPool, RuntimeError):
                # the executor broke under a concurrent run() before
                # we finished submitting; collect what we did submit
                broken = True
            # A break fails every unfinished future at once, so waiting
            # for all of them also keeps each chunk that finished first.
            for future in as_completed(futures):
                cells = futures[future]
                try:
                    envelopes = future.result()
                except BrokenProcessPool:
                    broken = True
                    continue
                except Exception as exc:  # e.g. an unpicklable chunk
                    envelopes = [
                        {"result": _error_record(exc), "seconds": None}
                        for _ in cells
                    ]
                for i, envelope in zip(cells, envelopes):
                    results[i] = envelope
            if broken:
                self._discard(executor)
                observer.event("pool_broken")

        while remaining:
            now = time.monotonic()
            if any(attempts):
                # Retry rounds run their chunks one at a time.  A
                # suspect that kills its worker breaks the whole
                # executor, failing every future in flight — submitted
                # concurrently, one poison cell would charge innocent
                # singletons an attempt per round and abandon them.
                # Sequential dispatch means a crasher can only fail
                # itself; the pool is rebuilt before the next chunk.
                for i in remaining:
                    submit_and_collect([[i]], now)
            else:
                size = chunk_size or _auto_chunk_size(len(remaining), self.jobs)
                submit_and_collect(
                    [remaining[pos:pos + size]
                     for pos in range(0, len(remaining), size)],
                    now,
                )
            retry = []
            for index in remaining:
                if results[index] is not None:
                    continue
                attempts[index] += 1
                program, analysis = labels[index]
                if attempts[index] >= MAX_TASK_ATTEMPTS:
                    results[index] = _crash_record(
                        attempts[index], f"{program}/{analysis}"
                    )
                    observer.event(
                        "task_abandoned",
                        program=program,
                        analysis=analysis,
                        attempts=attempts[index],
                    )
                else:
                    retry.append(index)
                    observer.event(
                        "task_retry",
                        program=program,
                        analysis=analysis,
                        attempt=attempts[index],
                    )
            remaining = retry
        assert all(envelope is not None for envelope in results)
        return results


def _execute(
    labels: List[Tuple[str, str]],
    payloads: List[tuple],
    jobs: int,
    observer: MetricsAggregator,
    fn=None,
    pool: Optional[WorkerPool] = None,
    chunk_size: Optional[int] = None,
) -> List[dict]:
    """Run ``fn`` over ``payloads`` on the pool this call picks.

    The one pool lifecycle of :func:`run_pipeline` and the fuzz
    driver: a caller-owned ``pool`` always runs the work; otherwise
    one payload (or none), or ``jobs <= 1``, runs in-process; anything
    else gets a :class:`WorkerPool` of ``jobs`` workers that is closed
    when the call ends.  Returns one envelope per payload, in order;
    ``fn`` defaults to :func:`_compute`.
    """
    if fn is None:
        fn = _compute
    if pool is not None:
        if not payloads:
            return []
        return pool.run(labels, payloads, observer, fn=fn, chunk_size=chunk_size)
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(payload) for payload in payloads]
    own = WorkerPool(jobs)
    try:
        return own.run(labels, payloads, observer, fn=fn, chunk_size=chunk_size)
    finally:
        own.close()

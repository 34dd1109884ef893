"""The traced pass's layer replay.

The benchmark process replays a workload's own inputs through each
layer's public functions, in the order production runs them today, and
records a span around every call: name, start, end, parent span and the
request (or program) id.  Spans stay in memory and are written once, as
JSON lines, when the replay ends.  Span names follow the ROADMAP's
layer ledger (``decode``, ``lex``, ``parse``, ``validate``,
``canonicalize``, ``key``, ``cache_mem.*``, ``cache_disk.*``,
``worker_parse``, ``analysis.<name>``, ``render``) so spans emitted by
the program later can reuse them.

Two conventions a reader of the trace needs:

* ``parse`` times ``parse_program``, which lexes again internally;
  ``parse.busy_s`` is therefore the ``parse`` total minus the ``lex``
  total.
* the replay runs in one process, after every timed phase has ended;
  it never runs while the program is being timed.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import repro
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.lang.validate import validate_program
from repro.pipeline import (
    ANALYSES,
    DEFAULT_CONFIG,
    MemoryLRU,
    PipelineResult,
    ResultCache,
    cache_key,
)

from benchmarks._util import loglog_slope

#: Fused certifiers with a reference (paper-transcription) twin; the
#: replay also times the reference so the fast path's worth is visible.
REFERENCE_TWINS = ("cert", "denning")


class Spans:
    """In-memory span recorder (one per replay)."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._open: List[int] = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, rid: Optional[str] = None) -> Iterator[None]:
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "rid": rid,
        }
        self.records.append(record)
        self._open.append(record["id"])
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            record["start"] = start - self._origin
            record["end"] = end - self._origin

    def busy(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)

    def by_rid(self, name: str) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for r in self.records:
            if r["name"] == name:
                totals[r["rid"]] = totals.get(r["rid"], 0.0) + r["end"] - r["start"]
        return totals

    def durations(self, name: str) -> List[float]:
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


#: Replay phases whose share of the replay wall is reported, in
#: production order.  ``parse`` here is parse-minus-lex.
PHASES = (
    "decode", "lex", "parse", "validate", "canonicalize", "key",
    "cache_mem", "cache_disk", "worker_parse",
    "analysis.cert", "analysis.denning", "analysis.lint", "analysis.explore",
    "render",
)


def phase_busy(spans: Spans) -> Dict[str, float]:
    """Busy seconds per reported phase (tiers summed over get and put)."""
    busy = {
        "decode": spans.busy("decode"),
        "lex": spans.busy("lex"),
        "parse": spans.busy("parse") - spans.busy("lex"),
        "validate": spans.busy("validate"),
        "canonicalize": spans.busy("canonicalize"),
        "key": spans.busy("key"),
        "cache_mem": spans.busy("cache_mem.get") + spans.busy("cache_mem.put"),
        "cache_disk": spans.busy("cache_disk.get") + spans.busy("cache_disk.put"),
        "worker_parse": spans.busy("worker_parse"),
        "render": spans.busy("render"),
    }
    for name in ("cert", "denning", "lint", "explore"):
        busy[f"analysis.{name}"] = spans.busy(f"analysis.{name}")
    return busy


def _binned_slope(tokens: Dict[str, int], busy: Dict[str, float]) -> float:
    order = sorted(busy, key=lambda rid: (tokens[rid], rid))
    bins = [order[i * len(order) // 4:(i + 1) * len(order) // 4] for i in range(4)]
    xs = [sum(tokens[r] for r in group) / len(group) for group in bins]
    ys = [sum(busy[r] for r in group) / len(group) for group in bins]
    return loglog_slope(xs, ys)


def size_slopes(spans: Spans, tokens: Dict[str, int]) -> Tuple[float, float]:
    """Log-log slopes of parse and cert busy time against program length.

    The programs a layer saw are sorted by token count and split into
    four equal bins (on batch-cert these are exactly its four size
    classes); each bin gives its mean length and mean busy time.  §6
    predicts a slope of 1 for both.
    """
    lex = spans.by_rid("lex")
    parse = {rid: t - lex[rid] for rid, t in spans.by_rid("parse").items()}
    return (
        _binned_slope(tokens, parse),
        _binned_slope(tokens, spans.by_rid("analysis.cert")),
    )


def add_layer_metrics(
    outcome, spans: Spans, tokens: Dict[str, int], counters: Dict[str, float],
    worker_s: float,
) -> None:
    """Add every per-layer metric: ``counters`` (source a), the replay (b).

    ``worker_s`` is the seconds the program's workers reported for the
    cells they ran; ``worker_parse.busy_s`` is that minus the replay's
    analysis time, i.e. what a worker spends outside the analysis.
    """
    add = outcome.add
    for name, value in counters.items():
        add(name, value)
    busy = phase_busy(spans)
    wall = spans.busy("replay")
    for phase in ("decode", "lex", "parse", "validate", "canonicalize", "key", "render"):
        add(f"{phase}.busy_s", busy[phase])
    add("lex.tokens_per_s", sum(tokens.values()) / busy["lex"])
    add("analysis.cert.busy_s", busy["analysis.cert"])
    add("analysis.cert.ref_busy_s", spans.busy("analysis.cert.ref"))
    add("worker_parse.busy_s", worker_s - sum(
        busy[f"analysis.{name}"] for name in ("cert", "denning", "lint", "explore")
    ))
    for tier_op in ("cache_disk.get", "cache_disk.put"):
        durations = spans.durations(tier_op)
        add(f"{tier_op}_us", 1e6 * sum(durations) / len(durations))
    for phase in PHASES:
        add(f"{phase}.share", busy[phase] / wall)


def _load(spans: Spans, rid: str, source: str):
    with spans.span("lex", rid):
        tokens = tokenize(source)
    with spans.span("parse", rid):
        program = parse_program(source)
    with spans.span("validate", rid):
        problems = validate_program(program)
    if problems:
        raise ValueError(f"{rid}: {problems[0]}")
    return program, len(tokens)


def _key(canonical: str, analysis: str, config: dict) -> str:
    return cache_key(
        canonical, "program", analysis,
        ANALYSES[analysis].config_slice(config), repro.__version__,
    )


def _reference(spans: Spans, cells: Sequence[Tuple[str, str, str]], config: dict) -> None:
    """Time the reference twin of each fused certifier cell (not production)."""
    reference = dict(config, fastpath=False)
    for rid, canonical, analysis in cells:
        if analysis in REFERENCE_TWINS:
            subject = parse_program(canonical)
            with spans.span(f"analysis.{analysis}.ref", rid):
                ANALYSES[analysis].run(subject, reference)


def replay_batch(
    spans: Spans, files: Sequence[Path], analyses: Sequence[str],
    config: dict, cache_root: Path,
) -> Tuple[str, Dict[str, int]]:
    """``repro batch FILES`` in production order; returns (document, tokens).

    ``config`` is the merged pipeline config the CLI passes.  Order: the
    CLI loads every file, ``run_pipeline`` canonicalizes and keys every
    cell and misses the fresh disk cache, workers re-parse and analyse
    each cell, the parent writes every result back, the CLI renders.
    """
    disk = ResultCache(str(cache_root))
    tokens: Dict[str, int] = {}
    with spans.span("replay"):
        loaded = []
        for path in files:
            rid = path.name
            with spans.span("decode", rid):
                source = path.read_bytes().decode("utf-8")
            program, tokens[rid] = _load(spans, rid, source)
            loaded.append((rid, program))
        cells = []
        for rid, program in sorted(loaded, key=lambda pair: pair[0]):
            with spans.span("canonicalize", rid):
                canonical = pretty(program)
            for analysis in analyses:
                with spans.span("key", rid):
                    key = _key(canonical, analysis, config)
                with spans.span("cache_disk.get", rid):
                    disk.get(key)
                cells.append((rid, canonical, analysis, key))
        results: Dict[Tuple[str, str], dict] = {}
        for rid, canonical, analysis, _ in cells:
            with spans.span("worker_parse", rid):
                subject = parse_program(canonical)
            with spans.span(f"analysis.{analysis}", rid):
                results[rid, analysis] = ANALYSES[analysis].run(subject, config)
        for rid, _, analysis, key in cells:
            with spans.span("cache_disk.put", rid):
                disk.put(key, analysis, results[rid, analysis])
        programs = [
            {
                "name": rid,
                "kind": "program",
                "analyses": {a: results[rid, a] for a in sorted(analyses)},
            }
            for rid in sorted({rid for rid, _, _, _ in cells})
        ]
        with spans.span("render"):
            document = PipelineResult(programs, tuple(sorted(analyses)), config, {}).to_json()
    _reference(spans, [(rid, c, a) for rid, c, a, _ in cells], config)
    return document + "\n", tokens


def replay_serve(
    spans: Spans, requests: Sequence[Tuple[str, bytes]], cache_root: Path,
) -> Tuple[Dict[str, bytes], Dict[str, int]]:
    """``POST /analyze`` as ``AnalysisService`` runs it, request by request.

    ``requests`` is ``(request id, body)`` in the order the server saw
    them (warm-up first).  Per request: decode, validation parse,
    canonicalize twice (coalescing key, then the pipeline's canonical
    corpus), key and look up each cell in the memory tier then the disk
    tier, compute misses (worker re-parse + analysis), write both tiers,
    render.  Returns the rendered body per request id, and token counts.
    """
    config = dict(DEFAULT_CONFIG)
    config["high"] = tuple(sorted(config["high"]))
    lru = MemoryLRU(4096)
    disk = ResultCache(str(cache_root))
    bodies: Dict[str, bytes] = {}
    tokens: Dict[str, int] = {}
    cells = []
    with spans.span("replay"):
        for rid, raw in requests:
            with spans.span("request", rid):
                with spans.span("decode", rid):
                    request = json.loads(raw.decode("utf-8"))
                program, tokens[rid] = _load(spans, rid, request["program"])
                with spans.span("canonicalize", rid):
                    pretty(program)
                with spans.span("canonicalize", rid):
                    canonical = pretty(program)
                analyses = tuple(sorted(request["analyses"]))
                results: Dict[str, dict] = {}
                for analysis in analyses:
                    with spans.span("key", rid):
                        key = _key(canonical, analysis, config)
                    with spans.span("cache_mem.get", rid):
                        found = lru.get(key)
                    if found is None:
                        with spans.span("cache_disk.get", rid):
                            found = disk.get(key)
                        if found is not None:
                            with spans.span("cache_mem.put", rid):
                                lru.put(key, found)
                    if found is None:
                        with spans.span("worker_parse", rid):
                            subject = parse_program(canonical)
                        with spans.span(f"analysis.{analysis}", rid):
                            found = ANALYSES[analysis].run(subject, config)
                        cells.append((rid, canonical, analysis))
                        with spans.span("cache_mem.put", rid):
                            lru.put(key, found)
                        with spans.span("cache_disk.put", rid):
                            disk.put(key, analysis, found)
                    results[analysis] = found
                entry = {"name": request["name"], "kind": "program", "analyses": results}
                with spans.span("render", rid):
                    body = PipelineResult([entry], analyses, config, {}).to_json() + "\n"
                bodies[rid] = body.encode("utf-8")
    _reference(spans, cells, config)
    return bodies, tokens

"""The serve workloads: a real ``repro serve`` driven over loopback HTTP.

One run: spawn a server (``--jobs 2``, every other flag at its default,
a fresh ``--cache-dir``), warm it, then time ``ROUNDS`` rounds of two
phases from ``LOAD_THREADS`` threads, one connection each:

* **open loop** (two thirds of each round): requests are due at a
  constant rate, and each is timed from its *due* time, so a stall
  delays every request behind it and counts.  Constant, not Poisson:
  with two connections a burst of arrivals queues behind itself.  How
  late the generator ran is reported.
* **closed loop** (the last third): each thread sends its next request
  as soon as the last one returns, for a fixed number of requests
  (``closed_rate`` times the phase length; stopped at twice that time
  on a slow machine).  A fixed count keeps the cold server's cache,
  and so its memory, the same size on every run.  Goodput counts 200
  responses that are byte-correct and inside the workload's latency
  limit, per second of the phase; the median over rounds is reported.

Set-up is the time from spawn to the ``listening on`` line, for the
server and, after the rounds, for ``SETUP_REPEATS - 1`` more servers
started and stopped on their own, spread over the run so that one
burst of machine noise cannot move every sample.  The machine's speed
is calibrated before the server starts, before each round and after
the last (:class:`~benchmarks.e2e.common.Speed`).

Request bodies exist before timing starts; responses are compared with
the reference only after the server has been stopped, so the benchmark
never competes with the server for the CPUs while it is timed.  The
reference documents come from ``run_pipeline`` in the benchmark process
(``fastpath`` off, no cache).
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.parser import parse_program
from repro.pipeline import PipelineResult, run_pipeline
from repro.service import AnalysisService

from benchmarks.e2e import inputs, replay
from benchmarks.e2e.common import (
    LOAD_THREADS, OUT, Outcome, Server, Speed, percentile, work_dir,
)

SETUP_REPEATS = 7
SMOKE_SETUP_REPEATS = 3
REQUEST_TIMEOUT = 30.0

#: The timed phases alternate in this many rounds (open loop, then
#: closed loop), with a calibration of the machine before each round
#: and after the last.  The machine's speed drifts over seconds, so
#: short rounds let each request be scaled by the speed measured close
#: to it; a burst lands in one round's closed loop, and the median
#: goodput over rounds passes it by.
ROUNDS = 10

#: Requests timed in-process through ``AnalysisService.analyze_request``
#: for ``handle.p50_us`` in the traced pass.
HANDLE_SAMPLES = 300


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    rate: float  # open-loop requests per second
    closed_rate: float  # sizes the closed loop: what two slow cores still complete
    limit_ms: float  # goodput latency limit
    distinct: Optional[int]  # hot: programs cycled; cold: None (all new)
    warm: int  # requests sent before timing


WORKLOADS = {
    spec.name: spec
    for spec in (
        ServeWorkload("serve-hot", 25.0, 100.0, 50.0, 32, 32),
        ServeWorkload("serve-cold", 15.0, 30.0, 250.0, None, 4),
    )
}


@dataclass
class Sent:
    """One request as the load thread saw it."""

    request: inputs.Request
    status: Optional[int]  # None: network error
    payload: bytes
    latency_s: float  # from due time (open loop) or send time (closed)
    late_s: float = 0.0  # open loop: send time minus due time


def _get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _send(port: int, request: inputs.Request) -> Tuple[Optional[int], bytes]:
    """POST one request on a fresh connection; (status, body), (None, b"") on error."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
    try:
        conn.request(
            "POST", "/analyze", body=request.body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return None, b""
    finally:
        conn.close()


def open_loop(port: int, requests: Sequence[inputs.Request], rate: float) -> List[Sent]:
    """Send ``requests[i]`` due at ``start + i / rate``, from the load threads."""
    sent: List[Optional[Sent]] = [None] * len(requests)
    lock = threading.Lock()
    next_index = [0]
    start = time.perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                i = next_index[0]
                next_index[0] += 1
            if i >= len(requests):
                return
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            began = time.perf_counter()
            status, payload = _send(port, requests[i])
            sent[i] = Sent(requests[i], status, payload, time.perf_counter() - due, began - due)

    _run_threads(worker)
    return sent


def closed_loop(
    port: int, requests: Sequence[inputs.Request], cap_s: float
) -> Tuple[List[Sent], float]:
    """Send every request back to back (stop after ``cap_s``); (sent, elapsed)."""
    per_thread: List[List[Sent]] = [[] for _ in range(LOAD_THREADS)]
    lock = threading.Lock()
    next_index = [0]
    start = time.perf_counter()
    stop = start + cap_s

    def worker(mine: List[Sent]) -> None:
        while time.perf_counter() < stop:
            with lock:
                i = next_index[0]
                next_index[0] += 1
            if i >= len(requests):
                return
            began = time.perf_counter()
            status, payload = _send(port, requests[i])
            mine.append(Sent(requests[i], status, payload, time.perf_counter() - began))

    _run_threads(worker, per_thread)
    elapsed = time.perf_counter() - start
    return [s for mine in per_thread for s in mine], elapsed


def _run_threads(target, args_per_thread=None) -> None:
    threads = [
        threading.Thread(
            target=target,
            args=(args_per_thread[i],) if args_per_thread is not None else (),
        )
        for i in range(LOAD_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=REQUEST_TIMEOUT * 8)
        if thread.is_alive():
            raise RuntimeError("load thread did not finish")


def expected_bodies(requests: Sequence[inputs.Request]) -> Dict[bytes, bytes]:
    """Reference response per distinct body, from in-process ``run_pipeline``.

    One pipeline run over every distinct program (fast path off, no
    cache), then each program's entry rendered as a one-program
    document: the response ``repro serve`` must return byte for byte.
    """
    distinct = {request.body: request for request in requests}
    corpus = [(r.name, parse_program(r.source)) for r in distinct.values()]
    result = run_pipeline(
        corpus, analyses=("cert", "lint"), jobs=2, use_cache=False,
        config={"fastpath": False},
    )
    entries = {entry["name"]: entry for entry in result.programs}
    return {
        body: (
            PipelineResult([entries[r.name]], result.analyses, result.config, {}).to_json() + "\n"
        ).encode("utf-8")
        for body, r in distinct.items()
    }


def check_responses(sent: Sequence[Sent], expected: Dict[bytes, bytes]) -> Tuple[int, int]:
    """(requests checked, requests failed): non-200, network error, or wrong bytes."""
    failed = sum(
        1 for s in sent if s.status != 200 or s.payload != expected[s.request.body]
    )
    return len(sent), failed


def _flat_counters(metrics: dict) -> Dict[str, float]:
    service = metrics["service"]
    lru = service.get("lru", {})
    analyses = metrics["analyses"]
    return {
        "cache.hits": metrics["cache"]["hits"],
        "cache.misses": metrics["cache"]["misses"],
        "cache.writes": metrics["cache"]["writes"],
        "lru.hits": lru.get("hits", 0),
        "lru.misses": lru.get("misses", 0),
        "coalesced": service["coalesced"],
        "pool_submitted": service.get("pool", {}).get("submitted", 0),
        "chunks": metrics["chunks"]["submitted"],
        "bytes_pickled": metrics["chunks"]["bytes_pickled"],
        "worker_s": sum(a["seconds_total"] for a in analyses.values()),
        "explore.states": analyses.get("explore", {}).get("states", 0),
        "explore.reduced_states": analyses.get("explore", {}).get("reduced_states", 0),
    }


def _layer_counters(before: dict, after: dict) -> Tuple[Dict[str, float], float]:
    """Per-layer counters (source a) and worker seconds between two ``/metrics``.

    The tiered cache counts a memory hit as a hit and a miss only when
    both tiers miss, so disk hits are total hits minus memory hits.
    """
    old, new = _flat_counters(before), _flat_counters(after)
    delta = {key: new[key] - old[key] for key in new}
    lookups = delta["lru.hits"] + delta["lru.misses"]
    counters = {
        "cache_disk.hits": delta["cache.hits"] - delta["lru.hits"],
        "cache_disk.misses": delta["cache.misses"],
        "cache_disk.writes": delta["cache.writes"],
        "cache_mem.hit_ratio": delta["lru.hits"] / lookups if lookups else 0.0,
        "service.coalesced": delta["coalesced"],
        "service.pool_submitted": delta["pool_submitted"],
        "dispatch.chunks": delta["chunks"],
        "dispatch.bytes_pickled": delta["bytes_pickled"],
        "explore.states": delta["explore.states"],
        "explore.reduced_states": delta["explore.reduced_states"],
        # The service's metrics sink is always on; there is no untraced
        # server to compare against.
        "trace.overhead": 0.0,
    }
    return counters, delta["worker_s"]


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    spec = WORKLOADS[name]
    outcome = Outcome()
    open_s, closed_s = seconds * 2.0 / 3.0 / ROUNDS, seconds / 3.0 / ROUNDS
    open_per = max(1, int(spec.rate * open_s))
    closed_per = max(LOAD_THREADS, int(spec.closed_rate * closed_s))
    open_count, closed_count = ROUNDS * open_per, ROUNDS * closed_per
    if spec.distinct is not None:
        distinct = inputs.serve_programs(name, seed, 8 if smoke else spec.distinct)
        warm = list(distinct)
        schedule = inputs.hot_schedule(seed, open_count + closed_count, len(distinct))
        open_requests = [distinct[i] for i in schedule[:open_count]]
        closed_requests = [distinct[i] for i in schedule[open_count:]]
    else:
        pool = inputs.serve_programs(name, seed, spec.warm + open_count + closed_count)
        warm = pool[:spec.warm]
        open_requests = pool[spec.warm:spec.warm + open_count]
        closed_requests = pool[spec.warm + open_count:]

    with work_dir(name) as work:
        setup_repeats = 0 if trace else SMOKE_SETUP_REPEATS if smoke else SETUP_REPEATS
        speed = Speed()
        speed.calibrate()
        server = Server(["--jobs", "2", "--cache-dir", str(work / "cache")], work)
        speed.add("setup", server.setup_s)
        setups = 1
        try:
            before = _get_json(server.port, "/metrics") if trace else None
            warmed = [Sent(r, *_send(server.port, r), 0.0) for r in warm]
            opened, rounds = [], []
            for k in range(ROUNDS):
                speed.calibrate()
                sent = open_loop(
                    server.port, open_requests[k * open_per:(k + 1) * open_per], spec.rate
                )
                for s in sent:
                    speed.add("latency", s.latency_s)
                opened += sent
                rounds.append(closed_loop(
                    server.port, closed_requests[k * closed_per:(k + 1) * closed_per],
                    2.0 * closed_s,
                ))
                while setups < setup_repeats * (k + 1) // ROUNDS:
                    spare_cache = work / f"spare-{setups}"
                    spare = Server(["--jobs", "2", "--cache-dir", str(spare_cache)], work)
                    speed.add("setup", spare.setup_s)
                    setups += 1
                    if spare.stop()[0] != 0:
                        raise RuntimeError("set-up server did not exit cleanly")
            speed.calibrate()
            after = _get_json(server.port, "/metrics") if trace else None
        finally:
            code, peak_rss, cpu_s = server.stop()
        if code != 0:
            raise RuntimeError(f"repro serve exited {code} on SIGTERM")

        # Everything below runs after the server has stopped.
        closed = [s for sent, _ in rounds for s in sent]
        everything = warmed + opened + closed
        expected = expected_bodies([s.request for s in everything])
        outcome.check(*check_responses(everything, expected))

        latencies = [s.latency_s * 1000.0 for s in opened]
        goodput = [
            sum(
                1 for s in sent
                if s.status == 200 and s.payload == expected[s.request.body]
                and s.latency_s * 1000.0 <= spec.limit_ms
            ) / elapsed
            for sent, elapsed in rounds
        ]
        p50_wall = percentile(latencies, 50)
        outcome.notes.update(
            open_samples=len(latencies),
            p50_wall_ms=p50_wall,
            p95_wall_ms=percentile(latencies, 95),
            p99_wall_ms=percentile(latencies, 99),
            calibration_s=speed.calibration_s(),
            closed_requests=len(closed),
            closed_s=sum(elapsed for _, elapsed in rounds),
            programs_per_s=statistics.median(goodput),
            cpu_ms_per_program=cpu_s * 1000.0 / len(everything),
            goodput_per_round=[round(g, 2) for g in goodput],
            **{"loadgen.late_p99_ms": percentile([s.late_s * 1000.0 for s in opened], 99)},
        )
        if not trace:
            outcome.add("setup_s", statistics.median(speed.scaled("setup")))
            outcome.add("p50_ms", percentile(speed.scaled("latency"), 50) * 1000.0)
            outcome.add("peak_rss_mb", peak_rss)
            return outcome

        sequence = [(f"r{i:06d}", s.request.body) for i, s in enumerate(everything)]
        spans = replay.Spans()
        rendered, tokens = replay.replay_serve(spans, sequence, work / "replay-cache")
        outcome.check(
            len(sequence),
            sum(1 for rid, body in sequence if rendered[rid] != expected[body]),
        )
        spans.write(OUT / f"{name}.trace.jsonl")
        handle_us = _handle_p50_us(
            warm, [s.request for s in opened + closed], work / "handle-cache"
        )
        counters, worker_s = _layer_counters(before, after)
        replay.add_layer_metrics(outcome, spans, tokens, counters, worker_s)
        outcome.notes.update({
            "handle.p50_us": handle_us,
            "write.transport_ms": p50_wall - handle_us / 1000.0,
            "cache_mem.get_us": 1e6 * statistics.mean(spans.durations("cache_mem.get")),
            "analysis.lint.busy_s": spans.busy("analysis.lint"),
            "replay_wall_s": spans.busy("replay"),
        })
    return outcome


def _handle_p50_us(
    warm: Sequence[inputs.Request], requests: Sequence[inputs.Request], cache_root: Path
) -> float:
    """Median in-process ``AnalysisService.analyze_request`` time (µs)."""
    service = AnalysisService(jobs=1, cache_dir=str(cache_root))
    try:
        for request in warm:
            service.analyze_request(request.body)
        timings = []
        for request in requests[:HANDLE_SAMPLES]:
            started = time.perf_counter()
            service.analyze_request(request.body)
            timings.append(time.perf_counter() - started)
    finally:
        service.close()
    return statistics.median(timings) * 1e6

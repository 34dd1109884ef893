"""The batch workloads: ``repro batch`` invoked as a fresh process per sample.

One run: write the seeded corpus to files, compute the reference
document with the paper-transcription path (``--jobs 1 --no-cache
--no-fastpath``, untimed), then time invocations over the corpus, each
with a fresh ``--cache-dir``, until the next one would end after
``--seconds`` (at least ``MIN_INVOCATIONS``).  Before each of the first
``SETUP_REPEATS`` of them, one invocation on a trivial program is timed
for set-up.  The machine's speed is calibrated before the first
invocation and after each one (:class:`~benchmarks.e2e.common.Speed`).
Every output document is checked against the reference after the last
invocation.  The benchmark process runs no analysis before or during
timing, so no memo can carry from one sample to the next.

The corpora are sized so that an invocation takes one to two seconds
on a two-core machine: a run then holds a dozen or more invocations,
and its median is not set by one slow one.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

from repro.pipeline import DEFAULT_CONFIG

from benchmarks.e2e import inputs, replay
from benchmarks.e2e.common import OUT, ROOT, Outcome, Speed, run_repro, work_dir

SETUP_REPEATS = 7
SMOKE_SETUP_REPEATS = 3
MIN_INVOCATIONS = 5
JOBS = 2

TRIVIAL_PROGRAM = "var v0 : integer;\nbegin\n  v0 := 1\nend\n"


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    corpus: Callable[[int, int], List[Tuple[str, str]]]
    count: int
    smoke_count: int
    analyses: Tuple[str, ...]
    high: Tuple[str, ...]
    #: Whether program sizes come in classes (the §6 slopes need them).
    size_classes: bool

    def flags(self) -> List[str]:
        return ["--analyses", ",".join(self.analyses), "--high", ",".join(self.high)]

    def config(self) -> dict:
        """The merged pipeline config ``repro batch`` builds from the flags."""
        return dict(DEFAULT_CONFIG, high=tuple(sorted(self.high)))


WORKLOADS = {
    spec.name: spec
    for spec in (
        BatchWorkload(
            "batch-cert", inputs.cert_corpus, 96, 24,
            ("cert", "denning"), ("h", "h2", "v0"), size_classes=True,
        ),
        BatchWorkload(
            "batch-explore", inputs.explore_corpus, 144, 24,
            ("cert", "explore"), ("h", "h2"), size_classes=False,
        ),
    )
}


def check_document(actual: bytes, expected: bytes) -> Tuple[int, int]:
    """(programs checked, programs failed) for one output document.

    A program fails when its entry differs from the reference entry or
    carries an ``error`` record; a document whose bytes differ although
    every entry matches fails as a whole (the byte-identity contract).
    """
    reference = json.loads(expected)
    programs = reference["programs"]
    try:
        document = json.loads(actual)
    except ValueError:
        return len(programs), len(programs)
    header_ok = all(document.get(k) == reference[k] for k in ("analyses", "config", "version"))
    got = {entry.get("name"): entry for entry in document.get("programs", [])}
    failed = 0
    for entry in programs:
        mine = got.get(entry["name"])
        if (
            not header_ok
            or mine != entry
            or any("error" in cell for cell in mine["analyses"].values())
        ):
            failed += 1
    if failed == 0 and actual != expected:
        failed = len(programs)
    return len(programs), failed


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _must_succeed(done, what: str) -> None:
    if done.returncode != 0:
        raise RuntimeError(f"{what} exited {done.returncode}: {done.stderr[-2000:]}")


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    spec = WORKLOADS[name]
    outcome = Outcome()
    with work_dir(name) as work:
        corpus_dir = work / "corpus"
        corpus_dir.mkdir()
        files = []
        for file_name, source in spec.corpus(seed, spec.smoke_count if smoke else spec.count):
            path = corpus_dir / file_name
            path.write_text(source, encoding="utf-8")
            files.append(path)
        trivial = work / "trivial.rl"
        trivial.write_text(TRIVIAL_PROGRAM, encoding="utf-8")
        file_args = [_rel(path) for path in files]

        reference = work / "reference.json"
        done = run_repro(
            ["batch", *file_args, *spec.flags(), "--jobs", "1", "--no-cache",
             "--no-fastpath", "--json"],
            reference, work,
        )
        _must_succeed(done, "reference batch")
        expected = reference.read_bytes()

        # The timed phase.  With tracing, every other invocation also
        # writes the program's own trace and metrics sinks.  Set-up
        # samples alternate with the first invocations, so that one
        # burst of machine noise cannot move all of them, and every
        # invocation lies between two calibrations of the machine.
        setup_repeats = 0 if trace else SMOKE_SETUP_REPEATS if smoke else SETUP_REPEATS
        speed = Speed()
        samples = []
        started = time.perf_counter()
        speed.calibrate()
        while len(samples) < MIN_INVOCATIONS or (
            time.perf_counter() - started + samples[-1][2].wall_s < seconds
        ):
            i = len(samples)
            if i < setup_repeats:
                done = run_repro(
                    ["batch", _rel(trivial), *spec.flags(), "--jobs", str(JOBS),
                     "--cache-dir", _rel(work / f"setup-cache-{i}")],
                    None, work,
                )
                _must_succeed(done, "set-up batch")
                speed.add("setup", done.wall_s)
            traced = trace and i % 2 == 1
            args = ["batch", *file_args, *spec.flags(), "--jobs", str(JOBS),
                    "--cache-dir", _rel(work / f"cache-{i}"), "--json"]
            if traced:
                args += ["--trace", _rel(work / f"trace-{i}.jsonl"),
                         "--metrics", _rel(work / f"metrics-{i}.json")]
            out = work / f"out-{i}.json"
            done = run_repro(args, out, work)
            samples.append((traced, out, done))
            if not traced:
                speed.add("invocation", done.wall_s)
            speed.calibrate()

        for _, out, _ in samples:
            outcome.check(*check_document(out.read_bytes(), expected))

        plain = [done.wall_s for traced, _, done in samples if not traced]
        wall = statistics.median(plain)
        outcome.notes.update(
            invocations=len(plain),
            programs=len(files),
            wall_s=[round(w, 4) for w in plain],
            p50_wall_ms=wall * 1000.0,
            calibration_s=speed.calibration_s(),
            programs_per_s=len(files) / wall,
            programs_per_s_min=len(files) / max(plain),
            programs_per_s_max=len(files) / min(plain),
            cpu_ms_per_program=1000.0 / len(files) * statistics.median(
                done.cpu_s for traced, _, done in samples if not traced
            ),
        )
        if not trace:
            outcome.add("setup_s", statistics.median(speed.scaled("setup")))
            outcome.add("p50_ms", statistics.median(speed.scaled("invocation")) * 1000.0)
            outcome.add("peak_rss_mb", max(done.maxrss_mb for _, _, done in samples))
            return outcome

        traced_runs = [(i, done) for i, (traced, _, done) in enumerate(samples) if traced]
        last, last_done = traced_runs[-1]
        with open(work / f"metrics-{last}.json", "r", encoding="utf-8") as handle:
            metrics = json.load(handle)
        spans = replay.Spans()
        document, tokens = replay.replay_batch(
            spans, files, spec.analyses, spec.config(), work / "replay-cache"
        )
        outcome.check(1, int(document.encode("utf-8") != expected))
        spans.write(OUT / f"{name}.trace.jsonl")
        _layers(outcome, spec, spans, tokens, metrics, last_done.wall_s,
                traced=[done.wall_s for _, done in traced_runs], plain=plain)
    return outcome


def _layers(
    outcome: Outcome, spec: BatchWorkload, spans: replay.Spans, tokens: dict,
    metrics: dict, cli_wall: float, traced: Sequence[float], plain: Sequence[float],
) -> None:
    """Per-layer metrics: program counters (a) plus the layer replay (b)."""
    run_s = metrics["run"]["elapsed_seconds"]
    analyses = metrics["analyses"]
    worker_s = sum(analyses[a]["seconds_total"] for a in spec.analyses)
    explore = analyses.get("explore", {})
    counters = {
        "cache_disk.hits": metrics["cache"]["hits"],
        "cache_disk.misses": metrics["cache"]["misses"],
        "cache_disk.writes": metrics["cache"]["writes"],
        "cache_mem.hit_ratio": 0.0,  # batch has no memory tier
        "service.coalesced": 0,
        "service.pool_submitted": 0,
        "dispatch.chunks": metrics["chunks"]["submitted"],
        "dispatch.bytes_pickled": metrics["chunks"]["bytes_pickled"],
        "explore.states": explore.get("states", 0),
        "explore.reduced_states": explore.get("reduced_states", 0),
        "trace.overhead": statistics.median(traced) / statistics.median(plain) - 1.0,
    }
    replay.add_layer_metrics(outcome, spans, tokens, counters, worker_s)

    busy = replay.phase_busy(spans)
    outcome.notes.update({
        "cli.outside_run_s": cli_wall - run_s,
        "dispatch.overhead_s": JOBS * run_s - worker_s,
        "dispatch.efficiency": worker_s / (JOBS * run_s),
    })
    for analysis in spec.analyses:
        if analysis == "cert":
            continue
        outcome.notes[f"analysis.{analysis}.busy_s"] = busy[f"analysis.{analysis}"]
        if analysis in replay.REFERENCE_TWINS:
            outcome.notes[f"analysis.{analysis}.ref_busy_s"] = spans.busy(
                f"analysis.{analysis}.ref"
            )
    if explore:
        outcome.notes["explore.states_per_s"] = explore["states"] / busy["analysis.explore"]
    if spec.size_classes:
        parse_slope, cert_slope = replay.size_slopes(spans, tokens)
        outcome.notes["parse.slope"] = parse_slope
        outcome.notes["analysis.cert.slope"] = cert_slope
    outcome.notes["replay_wall_s"] = spans.busy("replay")

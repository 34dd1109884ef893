"""Pipeline throughput and POR effectiveness, as one diffable artifact.

Three experiments, emitted together as ``BENCH_pipeline.json``:

* **throughput** — one corpus x analyses matrix run three ways:
  serially (``jobs=1``, no cache), parallel (``jobs=4``, no cache) and
  serially over a pre-warmed cache.  Each side runs in a fresh
  interpreter that times only its own ``run_pipeline`` call, so no
  side inherits what another side computed, and the corpus is big
  enough that pool start-up does not decide the ratio.  All three
  documents are asserted byte-identical (the determinism contract),
  and the wall-clock ratios are recorded.  The parallel ratio is
  hardware-bound: on a single-core container it cannot exceed ~1x, so
  the artifact records ``cpu_count`` and the assertion only applies
  where the hardware can deliver it.  The warm-cache ratio is
  hardware-independent.

* **observe** — the same serial matrix with the trace sink off vs
  streaming to a JSON-lines file: the observability layer must be
  read-only (byte-identical documents) and near-free (a loose
  overhead gate in full mode).

* **por** — naive vs reduced exploration over the litmus suite and a
  runtime-safe concurrent corpus: states visited by each, and an
  outcome-set comparison that must show zero differences.

Run standalone (``python benchmarks/bench_pipeline.py [--smoke]``,
wired to ``make bench-pipeline`` and the CI smoke job) or via pytest
(``pytest benchmarks/bench_pipeline.py``, which uses the smoke corpus
to keep ``make bench`` fast).
"""

import argparse
import json
import multiprocessing
import os
import sys
import tempfile
import time

from benchmarks._util import emit_table, write_bench_json
from repro.lang.ast import Cobegin, iter_nodes
from repro.pipeline import run_pipeline
from repro.runtime.explorer import explore
from repro.workloads.generators import random_program
from repro.workloads.litmus import CASES

#: Analyses for the throughput matrix: the certification hot path plus
#: the explorer (which dominates, making the corpus worth parallelizing).
ANALYSES = ("cert", "denning", "lint", "explore")

MAX_STATES = 60_000

#: Generated programs (count, statements) in the throughput corpus, in
#: both modes.  On a 2-vCPU VM its serial side takes 6-7 s, so neither
#: pool start-up nor a moment's contention decides the parallel ratio.
THROUGHPUT_PROGRAMS = (96, 22)


def bench_corpus(smoke: bool):
    """The observe and POR corpus."""
    return concurrent_corpus(*((4, 14) if smoke else (24, 22)))


def concurrent_corpus(n: int, size: int):
    """Litmus cases plus ``n`` runtime-safe concurrent generator programs.

    The generated programs are the "concurrent corpus" of this
    benchmark: explorable under every schedule (so outcome sets can be
    compared exhaustively) with real semaphore traffic and cobegins.
    Seeds whose program came out with no ``cobegin`` at all (the
    generator does not guarantee one) are skipped — a sequential
    program says nothing about interleaving reduction.
    """
    corpus = [(case.name, case.statement()) for case in CASES]
    seed, found = 6200, 0
    while found < n:
        program = random_program(
            seed=seed,
            size=size,
            runtime_safe=True,
            p_cobegin=0.3,
            n_sems=2,
        )
        seed += 1
        if not any(isinstance(node, Cobegin) for node in iter_nodes(program)):
            continue
        corpus.append((f"con-{found:02d}", program))
        found += 1
    return corpus


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def timed_run(jobs: int, cache_dir, out: str) -> None:
    """Time one ``run_pipeline`` call over the throughput corpus.

    Writes the call's seconds, document and counters to ``out`` as
    JSON.  ``cache_dir=None`` runs without a cache.
    """
    corpus = concurrent_corpus(*THROUGHPUT_PROGRAMS)
    seconds, result = _timed(
        lambda: run_pipeline(
            corpus,
            ANALYSES,
            jobs=jobs,
            cache_dir=cache_dir,
            use_cache=cache_dir is not None,
            config={"max_states": MAX_STATES},
        )
    )
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "programs": len(corpus),
                "seconds": seconds,
                "document": result.to_json(),
                "computed": result.metrics["run"]["computed"],
                "chunks": dict(result.metrics["chunks"]),
                "errors": len(result.errors()),
            },
            handle,
        )


def _fresh_run(jobs: int, cache_dir=None) -> dict:
    """:func:`timed_run` in a spawned interpreter, which inherits no memo."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run.json")
        child = multiprocessing.get_context("spawn").Process(
            target=timed_run, args=(jobs, cache_dir, out)
        )
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"timed run exited {child.exitcode}")
        with open(out, "r", encoding="utf-8") as handle:
            return json.load(handle)


def throughput_experiment(cache_dir: str, jobs: int):
    """Serial vs parallel vs warm-cache over the same matrix."""
    serial = _fresh_run(1)
    parallel = _fresh_run(jobs)
    _fresh_run(jobs, cache_dir)  # fill the cache, untimed
    warm = _fresh_run(1, cache_dir)
    assert serial["document"] == parallel["document"] == warm["document"], (
        "determinism contract violated across execution strategies"
    )
    assert warm["computed"] == 0
    t_serial = serial["seconds"]
    t_parallel = parallel["seconds"]
    t_warm = warm["seconds"]
    return {
        "programs": serial["programs"],
        "analyses": list(ANALYSES),
        "jobs": jobs,
        "serial_seconds": t_serial,
        "parallel_seconds": t_parallel,
        "warm_cache_seconds": t_warm,
        "speedup_parallel": t_serial / t_parallel if t_parallel > 0 else float("inf"),
        "speedup_warm_cache": t_warm and t_serial / t_warm,
        "chunks": parallel["chunks"],
        "errors": serial["errors"],
    }


def observe_overhead_experiment(corpus):
    """Cost of the observability layer: no sink vs a live JSONL sink.

    The metrics aggregation itself is always on (it is how degraded
    and crashed cells get reported), so the measurable knob is the
    trace sink.  The documents must stay byte-identical either way —
    observability is read-only by contract.
    """
    import os
    import tempfile

    from repro.observe import JsonlEmitter, MetricsAggregator, validate_metrics

    config = {"max_states": MAX_STATES}
    t_off, off = _timed(
        lambda: run_pipeline(corpus, ANALYSES, jobs=1, use_cache=False, config=config)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        emitter = JsonlEmitter(path=path)
        try:
            t_on, on = _timed(
                lambda: run_pipeline(
                    corpus, ANALYSES, jobs=1, use_cache=False,
                    config=config, observer=MetricsAggregator(sink=emitter),
                )
            )
        finally:
            emitter.close()
        with open(path, "r", encoding="utf-8") as handle:
            trace_records = sum(1 for _ in handle)
    assert off.to_json() == on.to_json(), (
        "the trace sink changed the result document"
    )
    return {
        "disabled_seconds": t_off,
        "tracing_seconds": t_on,
        "overhead": (t_on / t_off - 1.0) if t_off > 0 else 0.0,
        "trace_records": trace_records,
        "metrics_valid": validate_metrics(on.metrics) == [],
    }


def por_experiment(corpus):
    """Naive vs POR explorer: states visited and outcome-set equality."""
    rows = []
    for name, subject in corpus:
        naive = explore(subject, max_states=MAX_STATES, por=False)
        reduced = explore(subject, max_states=MAX_STATES, por=True)
        outcomes_equal = frozenset(
            (o.status, o.store) for o in naive.outcomes
        ) == frozenset((o.status, o.store) for o in reduced.outcomes)
        rows.append(
            {
                "program": name,
                "concurrent": name.startswith("con-"),
                "states_naive": naive.states_visited,
                "states_por": reduced.states_visited,
                "reduction": (
                    1 - reduced.states_visited / naive.states_visited
                    if naive.states_visited
                    else 0.0
                ),
                "outcomes_equal": outcomes_equal,
                "complete": naive.complete and reduced.complete,
            }
        )
    concurrent = [r for r in rows if r["concurrent"]]
    reduced_count = sum(
        1 for r in concurrent if r["states_por"] < r["states_naive"]
    )
    return {
        "programs": rows,
        "mismatches": sum(1 for r in rows if not r["outcomes_equal"]),
        "concurrent_programs": len(concurrent),
        "concurrent_reduced": reduced_count,
        "concurrent_reduced_fraction": (
            reduced_count / len(concurrent) if concurrent else 0.0
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small corpus, no perf assertions (CI per-PR mode)",
    )
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache root for the warm-cache column (default: a temp dir)",
    )
    args = parser.parse_args(argv)

    corpus = bench_corpus(args.smoke)
    with tempfile.TemporaryDirectory() as tmp:
        throughput = throughput_experiment(args.cache_dir or tmp, args.jobs)
    observe = observe_overhead_experiment(corpus)
    por = por_experiment(corpus)

    emit_table(
        "pipeline throughput (serial vs parallel vs warm cache)",
        ["mode", "seconds", "speedup"],
        [
            ("serial", f"{throughput['serial_seconds']:.2f}", "1.0x"),
            (
                f"parallel (jobs={args.jobs})",
                f"{throughput['parallel_seconds']:.2f}",
                f"{throughput['speedup_parallel']:.1f}x",
            ),
            (
                "warm cache",
                f"{throughput['warm_cache_seconds']:.2f}",
                f"{throughput['speedup_warm_cache']:.1f}x",
            ),
        ],
    )
    emit_table(
        "observability overhead (trace sink off vs on)",
        ["mode", "seconds", "trace records"],
        [
            ("no sink", f"{observe['disabled_seconds']:.2f}", "-"),
            (
                "jsonl sink",
                f"{observe['tracing_seconds']:.2f}",
                observe["trace_records"],
            ),
        ],
    )
    concurrent_rows = [r for r in por["programs"] if r["concurrent"]]
    emit_table(
        "explorer partial-order reduction (concurrent corpus)",
        ["program", "naive states", "POR states", "reduction", "outcomes"],
        [
            (
                r["program"],
                r["states_naive"],
                r["states_por"],
                f"{r['reduction'] * 100:.0f}%",
                "equal" if r["outcomes_equal"] else "DIFFER",
            )
            for r in concurrent_rows
        ],
    )

    payload = {
        "smoke": args.smoke,
        "cpu_count": multiprocessing.cpu_count(),
        "throughput": throughput,
        "observe": observe,
        "por": por,
    }
    path = write_bench_json("pipeline", payload)
    print(f"wrote {path}")

    # Correctness gates hold in every mode.
    assert por["mismatches"] == 0, "POR changed an outcome set"
    assert observe["metrics_valid"], "metrics document failed validation"
    # The parallel gate also holds in smoke mode wherever the cores
    # exist: with >= 2 cores, jobs > 1 must actually beat serial.
    if multiprocessing.cpu_count() >= 2:
        assert throughput["speedup_parallel"] > 1.0, throughput
    else:
        print(
            f"note: {multiprocessing.cpu_count()} CPU(s) — parallel "
            "> serial gate skipped (needs >= 2 cores)",
            file=sys.stderr,
        )
    if args.smoke:
        return 0
    # Perf gates: warm cache is hardware-independent; parallel speedup
    # needs the cores to exist.  The trace-sink gate is loose — it only
    # has to catch an accidental hot-path regression, not wall noise.
    assert observe["overhead"] <= 0.25, observe
    assert throughput["speedup_warm_cache"] >= 10, throughput
    assert por["concurrent_reduced_fraction"] >= 0.5, por
    if multiprocessing.cpu_count() >= 4:
        assert throughput["speedup_parallel"] >= 3, throughput
    else:
        print(
            f"note: {multiprocessing.cpu_count()} CPU(s) — parallel "
            "speedup gate skipped (needs >= 4 cores)",
            file=sys.stderr,
        )
    return 0


def test_pipeline_bench_smoke():
    """Pytest entry point (``make bench``): the smoke-mode run."""
    assert main(["--smoke", "--jobs", "2"]) == 0


if __name__ == "__main__":
    sys.exit(main())

"""Certifier throughput: the fused fast path against the reference.

Two experiments, emitted together as ``BENCH_cert.json``:

* **identity** — every program in the corpus run through both the
  fused engine (``repro.fastpath``) and the reference analyzers, for
  ``cert`` and ``denning`` alike.  The gate is absolute: zero
  mismatches.  The fast path's whole contract is byte-identity
  (docs/fastpath.md), so a single disagreement fails the benchmark
  regardless of how fast it went.

* **throughput** — the same corpus swept twice: reference analyzers,
  then the fused engine.  Each sweep is repeated and the best time
  kept, so the gate measures the engine rather than scheduler noise.
  Full-mode gate: fused ahead of the reference.

The corpus is the litmus suite (19) + the paper programs (8) + seeded
generator output in both profiles (26 seeds x 2), 79 programs total —
the same population the differential tests and the ``cert-equiv``
fuzz oracle draw from.

Run standalone (``python benchmarks/bench_cert.py [--smoke]``, wired
to ``make bench-cert`` and the CI ``cert-smoke`` job) or via pytest
(``pytest benchmarks/bench_cert.py``, smoke mode, keeping ``make
bench`` fast).
"""

import argparse
import os
import sys
import time

from benchmarks._util import emit_table, write_bench_json
from repro.fastpath import fused_cert, fused_denning
from repro.fuzz.driver import generate_subject
from repro.pipeline.analyses import (
    DEFAULT_CONFIG,
    _reference_cert,
    _reference_denning,
)
from repro.workloads.suites import corpus

# Litmus and paper programs bind h/h2 high; generated programs use
# v0.. — one config keeps the policy non-vacuous across all three.
CONFIG = dict(DEFAULT_CONFIG, high=("h", "h2", "v0"))


def build_corpus(smoke):
    subjects = [s for _, s in corpus("litmus")] + [s for _, s in corpus("paper")]
    for seed in range(4 if smoke else 26):
        for profile in ("static", "runtime_safe"):
            subjects.append(generate_subject(seed, profile))
    return subjects


def bench_identity(subjects):
    comparisons = mismatches = 0
    for subject in subjects:
        for fused, reference in (
            (fused_cert, _reference_cert),
            (fused_denning, _reference_denning),
        ):
            fast = fused(subject, CONFIG)
            assert fast is not None, "fast path declined a corpus program"
            comparisons += 1
            if fast != reference(subject, CONFIG):
                mismatches += 1
    return {
        "programs": len(subjects),
        "comparisons": comparisons,
        "mismatches": mismatches,
    }


def _sweep_reference(subjects):
    for subject in subjects:
        _reference_cert(subject, CONFIG)
        _reference_denning(subject, CONFIG)


def _sweep_fused(subjects):
    for subject in subjects:
        fused_cert(subject, CONFIG)
        fused_denning(subject, CONFIG)


def bench_throughput(subjects, repetitions):
    def best(run):
        times = []
        for _ in range(repetitions):
            start = time.perf_counter()
            run(subjects)
            times.append(time.perf_counter() - start)
        return min(times)

    reference = best(_sweep_reference)
    fused = best(_sweep_fused)
    return {
        "programs": len(subjects),
        "repetitions": repetitions,
        "reference_seconds": reference,
        "fused_seconds": fused,
        "speedup": reference / fused,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small corpus")
    args = parser.parse_args(argv)
    subjects = build_corpus(args.smoke)
    repetitions = 3 if args.smoke else 5

    identity = bench_identity(subjects)
    emit_table(
        "fused/reference identity",
        ["programs", "comparisons", "mismatches"],
        [(identity["programs"], identity["comparisons"], identity["mismatches"])],
    )

    throughput = bench_throughput(subjects, repetitions)
    emit_table(
        "certifier throughput (cert + denning per program, best of "
        f"{repetitions})",
        ["path", "seconds", "speedup"],
        [
            ("reference", f"{throughput['reference_seconds']:.4f}", "1.0x"),
            (
                "fused",
                f"{throughput['fused_seconds']:.4f}",
                f"{throughput['speedup']:.1f}x",
            ),
        ],
    )

    payload = {
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "identity": identity,
        "throughput": throughput,
    }
    path = write_bench_json("cert", payload)
    print(f"wrote {path}")

    # The identity gate is unconditional; an engine that answers
    # differently is wrong no matter what mode we ran in.
    assert identity["mismatches"] == 0, identity
    assert identity["comparisons"] == 2 * len(subjects)
    if not args.smoke:
        assert identity["programs"] >= 75, identity
        # Perf gates only in full mode: smoke corpora are too small to
        # time reliably on loaded CI machines.
        assert throughput["speedup"] > 1.0, throughput
    return 0


def test_cert_bench_smoke():
    """Pytest entry point (``make bench``): the smoke-mode run."""
    assert main(["--smoke"]) == 0


if __name__ == "__main__":
    sys.exit(main())

"""The serve front-line under load, as one diffable artifact.

One campaign (:func:`repro.service.loadtest.run_loadtest`) against a
real ``repro serve`` subprocess, emitted as ``BENCH_serve.json``:

* **identity** — every distinct corpus request is recomputed in-driver
  with ``run_pipeline`` and the served bytes must match exactly; the
  service's byte-identity contract checked over real sockets.
* **steady state** — closed-loop clients drive the mixed corpus under
  round-robin tenants: sustained RPS, p50/p95/p99 latency, and the
  status histogram.
* **overload** — more unique-work clients than ``max_queue`` admission
  slots: the admission layer must refuse (nonzero 429s) while
  ``/healthz`` keeps answering 200 throughout.
* **service counters** — the server's own ``/metrics`` document
  (``admission``, ``tenants``, ``pool``), schema-validated, plus a
  clean SIGTERM drain.

Every field in the artifact is measured against the live server —
nothing is hand-written.  Run standalone
(``python benchmarks/bench_serve.py [--smoke]``, wired to
``make bench-serve`` and the CI serve-smoke job) or via pytest
(``pytest benchmarks/bench_serve.py``, which uses the smoke shape).
"""

import argparse
import sys

from benchmarks._util import emit_table, write_bench_json
from repro.service.loadtest import LoadtestOptions, run_loadtest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short phases, few clients (CI per-PR mode)",
    )
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)

    if args.smoke:
        options = LoadtestOptions(
            duration=2.0,
            clients=4,
            jobs=args.jobs,
            max_queue=6,
            overload_clients=12,
            overload_seconds=2.0,
            smoke=True,
        )
    else:
        options = LoadtestOptions(
            duration=10.0,
            clients=16,
            jobs=args.jobs,
            max_queue=16,
            overload_clients=32,
            overload_seconds=5.0,
            smoke=False,
        )
    payload = run_loadtest(options)

    steady = payload["loadtest"]
    overload = payload["overload"]
    latency = steady["latency_ms"]
    healthz = overload["healthz"]
    emit_table(
        "serve front-line loadtest",
        ["phase", "requests", "rps", "p50 ms", "p99 ms", "429s"],
        [
            (
                "steady",
                steady["requests"],
                steady["rps_sustained"],
                latency["p50"],
                latency["p99"],
                steady["statuses"].get("429", 0),
            ),
            (
                "overload",
                sum(overload["statuses"].values()),
                "-",
                "-",
                "-",
                overload["rejected_busy_429"],
            ),
        ],
    )
    emit_table(
        "healthz under overload",
        ["probes", "ok", "p99 ms"],
        [(healthz["probes"], healthz["ok"], healthz["latency_ms"]["p99"])],
    )

    path = write_bench_json("serve", payload)
    print(f"wrote {path}")

    # Correctness gates hold in every mode: the artifact must never
    # publish a trajectory the code did not actually produce.
    assert payload["identity"]["invalid_documents"] == 0, payload["identity"]
    assert steady["network_errors"] == 0, steady
    assert payload["metrics_valid"], payload["metrics_problems"]
    assert payload["clean_exit"], "server did not drain cleanly on SIGTERM"
    if args.smoke:
        return 0
    # Full-mode gates: overload must actually trip admission control
    # while the health plane stays responsive, and the steady phase
    # must demonstrate real throughput (warm-path requests are LRU
    # hits; double digits of RPS is a floor, not a goal).
    assert overload["rejected_busy_429"] > 0, overload
    assert healthz["probes"] > 0 and healthz["ok"] == healthz["probes"], (
        healthz
    )
    assert steady["rps_sustained"] >= 10, steady
    return 0


def test_serve_bench_smoke():
    """Pytest entry point (``make bench``): the smoke-mode run."""
    assert main(["--smoke"]) == 0


if __name__ == "__main__":
    sys.exit(main())

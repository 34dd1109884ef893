"""Static lint vs. the exhaustive explorer: the polynomial/exponential gap.

The point of ``repro.staticlint`` is that its answers cost a CFG and a
few fixpoints, while ``find_deadlock`` pays for every interleaving.
This benchmark times both on generated programs of increasing size and
records the wall-time ratio, emitting ``BENCH_lint.json`` for diffing
across commits.  The explorer runs with a capped state budget, so its
column reads "time to explore up to the cap" once programs stop being
exhaustible — the lint column keeps scaling.

Lint is timed twice: with no binding, and on the default path, the
pipeline's ``lint`` analysis with its config-derived policy binding
(what ``repro batch`` and ``POST /analyze`` run), which adds the
label-creep solves.  The log-log slope of each lint column against
program size is recorded next to the rows: the section 6 linearity
check applied to the path users run.  Run it with::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_lint.py -s
"""

import time

from benchmarks._util import emit_table, loglog_slope, write_bench_json
from repro.analysis.deadlock import find_deadlock
from repro.lang.ast import program_size
from repro.pipeline.analyses import ANALYSES, DEFAULT_CONFIG
from repro.staticlint import run_lint
from repro.workloads.generators import sized_program

SIZES = [20, 50, 100, 200, 400]
SEED = 11
MAX_STATES = 20_000


def _time(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_lint_vs_explorer_walltime():
    rows = []
    records = []
    for size in SIZES:
        program = sized_program(
            SEED, size, p_cobegin=0.25, p_sem_op=0.1, runtime_safe=True
        )
        n = program_size(program.body)
        t_lint, lint_result = _time(lambda: run_lint(program))
        t_default, default_doc = _time(
            lambda: ANALYSES["lint"].run(program, dict(DEFAULT_CONFIG))
        )
        t_dyn, dyn_result = _time(
            lambda: find_deadlock(program, max_states=MAX_STATES)
        )
        ratio = t_dyn / t_lint if t_lint > 0 else float("inf")
        rows.append(
            (
                n,
                f"{t_lint * 1e3:.2f}",
                len(lint_result.diagnostics),
                f"{t_default * 1e3:.2f}",
                f"{t_dyn * 1e3:.2f}",
                dyn_result.states_visited,
                "yes" if dyn_result.complete else "capped",
                f"{ratio:.1f}x",
            )
        )
        records.append(
            {
                "statements": n,
                "lint_seconds": t_lint,
                "lint_findings": len(lint_result.diagnostics),
                "lint_default_seconds": t_default,
                "lint_default_findings": default_doc["findings"],
                "explorer_seconds": t_dyn,
                "explorer_states": dyn_result.states_visited,
                "explorer_complete": dyn_result.complete,
                "ratio": ratio,
            }
        )
        # the static pass must stay sound against whatever the capped
        # explorer still proves
        if not dyn_result.deadlock_free:
            static = __import__(
                "repro.staticlint", fromlist=["static_deadlock"]
            ).static_deadlock(program)
            assert static.may_deadlock

    statements = [r["statements"] for r in records]
    slope = loglog_slope(statements, [r["lint_seconds"] for r in records])
    slope_default = loglog_slope(
        statements, [r["lint_default_seconds"] for r in records]
    )
    emit_table(
        "repro lint vs find_deadlock (wall time)",
        ["stmts", "lint ms", "findings", "default-path ms", "explorer ms",
         "states", "complete", "ratio"],
        rows,
    )
    print(f"lint scaling exponent: no binding {slope:.3f}, "
          f"default path {slope_default:.3f} (1.0 = linear)")
    path = write_bench_json(
        "lint",
        {
            "seed": SEED,
            "max_states": MAX_STATES,
            "sizes": SIZES,
            "rows": records,
            "lint_slope": slope,
            "lint_default_slope": slope_default,
        },
    )
    print(f"wrote {path}")
    # sanity: lint must finish the largest size in interactive time
    assert records[-1]["lint_seconds"] < 5.0
    assert records[-1]["lint_default_seconds"] < 5.0

"""End-to-end benchmark of ``repro``'s production entry points.

Run from the repository root (no install, no build)::

    python3 benchmarks/e2e/run.py --workload batch-cert --seed 1 --seconds 25 --trace 0
    python3 benchmarks/e2e/run.py                # every workload once
    python3 benchmarks/e2e/run.py --sets 2       # twice; spreads against bounds
    python3 benchmarks/e2e/run.py --trace 1      # the traced (per-layer) pass
    python3 benchmarks/e2e/run.py --smoke        # tiny counts, 2 s phases

``python -m benchmarks.e2e`` is the same program.  With ``--workload``
and one set, the run happens in this process and the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); with ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its
per-layer metrics.  Without ``--workload``, or with ``--sets`` above 1,
each workload run is a child process of its own, so no run inherits
another's process state.  See ``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
DEFAULT_SEED = 1
SMOKE_SECONDS = 2.0


def _parse_args(argv: Optional[List[str]], catalogue: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", choices=[w["name"] for w in catalogue["workloads"]],
        help="run one workload (default: all)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default: {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per run "
        "(default: run_seconds of BENCHMARK.json; 2 with --smoke)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: the traced pass, reporting per-layer metrics (default: 0)",
    )
    parser.add_argument(
        "--sets", type=int, default=1,
        help="repeat every run this many times (default: 1)",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny counts and 2 s phases")
    args = parser.parse_args(argv)
    if args.sets < 1:
        parser.error("--sets must be at least 1")
    return args


def _print_metrics(workload: str, result: dict, notes: Dict[str, object]) -> None:
    for name, metric in result["metrics"].items():
        print(f"  {workload:<14} {name:<28} {metric['value']:>16.6f} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {workload:<14} {'error_rate':<28} {failed / attempted:>16.6f} fraction"
          f"  ({failed} of {attempted} outputs wrong)")
    for name, value in notes.items():
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {workload:<14} {'(note) ' + name:<28} {shown}")


def run_one(args: argparse.Namespace, seconds: float, catalogue: dict) -> int:
    """One workload, in this process; the JSON result is the last line."""
    from benchmarks.e2e import batch, serve

    module = batch if args.workload in batch.WORKLOADS else serve
    outcome = module.run(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    section = catalogue["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if set(outcome.metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(outcome.metrics))}, "
            f"undeclared {sorted(set(outcome.metrics) - set(units))}"
        )
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(f"workload {args.workload} seed {args.seed} seconds {seconds:g} trace {args.trace}")
    _print_metrics(args.workload, result, outcome.notes)
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))
    return 0


def _child(args: argparse.Namespace, workload: str, seconds: float) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    last = ""
    for line in proc.stdout:
        sys.stdout.write(line)
        sys.stdout.flush()
        last = line
    if proc.wait() != 0:
        raise RuntimeError(f"{workload} run exited {proc.returncode}")
    return json.loads(last)


def run_sets(args: argparse.Namespace, seconds: float, catalogue: dict) -> int:
    """Every selected workload, ``--sets`` times, each run its own process."""
    workloads = (
        [args.workload] if args.workload else [w["name"] for w in catalogue["workloads"]]
    )
    # A workload's runs go back to back, so machine drift between the
    # sets is as small as the run length allows.
    results = {w: [_child(args, w, seconds) for _ in range(args.sets)] for w in workloads}
    bounds = {m["name"]: m["bound"] for m in catalogue["end_to_end"]}
    ok = True
    print("\nsummary (value per set; spread = (max - min) / median across sets)")
    for workload in workloads:
        runs = results[workload]
        if any(r["failed"] for r in runs):
            ok = False
        error_rates = [r["failed"] / r["attempted"] for r in runs]
        print(f"  {workload:<14} {'error_rate':<28} {' '.join(f'{e:.6f}' for e in error_rates)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            line = f"  {workload:<14} {name:<28} " + " ".join(f"{v:.6g}" for v in values)
            if len(values) > 1:
                middle = statistics.median(values)
                spread = (max(values) - min(values)) / middle if middle else 0.0
                line += f"  spread {spread:.4f}"
                if name in bounds:
                    line += f" bound {bounds[name]}"
                    if spread > bounds[name]:
                        line += "  EXCEEDED"
                        ok = False
            print(line)
    if not ok:
        print("FAIL: a spread exceeded its bound or an output was wrong", file=sys.stderr)
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} lacks src/repro or BENCHMARK.json; run from a full checkout",
              file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.e2e.common import load_catalogue

    catalogue = load_catalogue()
    args = _parse_args(argv, catalogue)
    if args.seconds is not None:
        seconds = args.seconds
    elif args.smoke:
        seconds = SMOKE_SECONDS
    else:
        seconds = float(catalogue["run_seconds"])
    if args.workload and args.sets == 1:
        return run_one(args, seconds, catalogue)
    return run_sets(args, seconds, catalogue)


if __name__ == "__main__":
    sys.exit(main())

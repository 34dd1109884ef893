"""Smoke tests for the end-to-end benchmark.

Run from the repository root with ``python -m pytest benchmarks/e2e``
(about a minute: eight smoke runs, each a real ``repro batch`` or
``repro serve`` process tree).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e.batch import check_document  # noqa: E402
from benchmarks.e2e.common import load_catalogue  # noqa: E402

CATALOGUE = load_catalogue()
WORKLOAD_NAMES = [w["name"] for w in CATALOGUE["workloads"]]


def _smoke(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke_runs():
    return {(w, t): _smoke(w, t) for w in WORKLOAD_NAMES for t in (0, 1)}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(smoke_runs, workload, trace):
    lines, result = smoke_runs[workload, trace]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = CATALOGUE["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = {tuple(line.split()[:2]): line.split()[-1] for line in lines[:-1] if line.strip()}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed.get((workload, metric["name"])) == metric["unit"]


def test_samples_do_not_share_process_state(smoke_runs):
    """Every batch sample is a fresh process, so later samples are not faster.

    Were samples to share a process, memos (the fast path's lint memo,
    inherited by forked workers) would make every sample after the first
    several times faster.  Noise moves single samples; the median of
    samples 2-5 stays within the metric's bound of sample 1.
    """
    lines, _ = smoke_runs["batch-cert", 0]
    walls = next(
        json.loads(line.split("wall_s", 1)[1]) for line in lines if "(note) wall_s" in line
    )
    bound = next(m["bound"] for m in CATALOGUE["end_to_end"] if m["name"] == "p50_ms")
    assert len(walls) >= 5
    assert statistics.median(walls[1:5]) >= walls[0] * (1.0 - bound), walls


def test_each_sample_is_scaled_by_the_calibrations_around_it(monkeypatch):
    from benchmarks.e2e import common

    # Two CPUs per calibration, two clock reads per CPU: the first
    # calibration takes 0.2 s per CPU, the second 0.4 s (half speed).
    ticks = iter([0.0, 0.2, 0.0, 0.2, 0.0, 0.4, 0.0, 0.4])
    monkeypatch.setattr(common.time, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(common, "CALIBRATION_PASSES", 0)
    speed = common.Speed()
    with pytest.raises(RuntimeError):
        speed.add("invocation", 1.0)
    speed.calibrate()
    speed.add("invocation", 3.0)
    speed.calibrate()
    speed.add("invocation", 4.0)
    # The first sample lies between both calibrations, the second
    # after the last one only.
    reference = common.REFERENCE_CALIBRATION_S
    assert speed.scaled("invocation") == pytest.approx(
        [3.0 * reference / 0.3, 4.0 * reference / 0.4]
    )


def test_a_corrupted_reference_counts_as_an_error():
    from repro.pipeline import run_pipeline
    from repro.workloads.generators import sized_program

    corpus = [(f"p{i}.rl", sized_program(i, 20)) for i in range(3)]
    produced = run_pipeline(corpus, analyses=("cert", "denning"), use_cache=False)
    good = (produced.to_json() + "\n").encode("utf-8")
    assert check_document(good, good) == (3, 0)

    document = json.loads(good)
    cell = document["programs"][1]["analyses"]["cert"]
    cell["certified"] = not cell["certified"]
    corrupted = (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")
    attempted, failed = check_document(good, corrupted)
    assert failed / attempted > 0
    assert failed == 1

"""Process, timing and reporting helpers shared by the workload modules.

Everything the benchmark writes goes under :data:`OUT` inside the
checkout (``benchmarks/e2e/out/``): corpora, cache directories, program
outputs and the traced pass's span files.  Per-run scratch lives in a
work directory that :func:`work_dir` removes when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: Load threads, and therefore open connections, of the serve workloads.
#: Two matches the two-core machines the baseline was recorded on; the
#: server gets ``--jobs 2`` as well, so load and server share the CPUs.
LOAD_THREADS = 2

#: Program processes get this long before they are killed as hung.
PROCESS_TIMEOUT = 150.0

#: The line ``repro serve`` prints once it is bound and its pool is warm.
_ANNOUNCE = re.compile(r"listening on http://[\d.]+:(\d+)")

#: One calibration is this many passes of :func:`_calibration_pass` on
#: each of ``CALIBRATION_CPUS`` CPUs; about 0.1 s per CPU on a 2 GHz Xeon.
CALIBRATION_PASSES = 100
CALIBRATION_CPUS = 2

#: Seconds one CPU's share of a calibration takes at reference speed, a
#: round figure inside the range the baseline's two-vCPU machine
#: measured (run medians of 0.07 to 0.14 s).  Scaled times read as
#: seconds at that speed.
REFERENCE_CALIBRATION_S = 0.1

_CALIBRATION_TEXT = " ".join(
    f"v{i % 23} := (v{(i * 7) % 23} + {i % 97}) * h{i % 5};" for i in range(300)
)


@dataclass
class Outcome:
    """One workload run: output checks, metrics and human-only notes.

    ``metrics`` maps a ``BENCHMARK.json`` metric name to its value (the
    unit comes from ``BENCHMARK.json``); ``notes`` holds values printed
    for a reader but not reported (sample counts, minima and maxima,
    per-layer numbers that exist on only some workloads).
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def check(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def _calibration_pass() -> Tuple[str, int]:
    """Fixed interpreter work shaped like the program's: scan, split, count, sort."""
    tokens, word = [], []
    for ch in _CALIBRATION_TEXT:
        if ch.isalnum():
            word.append(ch)
            continue
        if word:
            tokens.append("".join(word))
            word.clear()
        if not ch.isspace():
            tokens.append(ch)
    counts: Dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]


class Speed:
    """The machine's speed, measured next to the samples it scales.

    On a shared host the CPUs' speed drifts: a fixed loop's time moves
    by a fifth over seconds and by a tenth between minutes, and every
    program time moves with it.  So the workloads call :meth:`calibrate`
    between timed samples, and :meth:`scaled` divides each sample by the
    mean of the calibrations just before and after it, then multiplies
    by :data:`REFERENCE_CALIBRATION_S`: the time the sample would have
    taken on a machine where the loop takes that long.  A change to the
    program moves the samples and not the calibrations.
    """

    def __init__(self) -> None:
        self._calibrations: List[float] = []
        self._samples: Dict[str, List[Tuple[float, int]]] = {}
        self._cpus = sorted(os.sched_getaffinity(0))

    def calibrate(self) -> None:
        """Time the calibration loop once on each of the next CPUs in turn.

        The benchmark is single-threaded whenever it calibrates: load
        threads have been joined, and programs it waits for are idle.
        Pinning applies to this thread only and is undone before any
        program is started, so children inherit every CPU.
        """
        start = len(self._calibrations) * CALIBRATION_CPUS
        cpus = [self._cpus[(start + k) % len(self._cpus)] for k in range(CALIBRATION_CPUS)]
        taken = []
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                started = time.perf_counter()
                for _ in range(CALIBRATION_PASSES):
                    _calibration_pass()
                taken.append(time.perf_counter() - started)
        finally:
            os.sched_setaffinity(0, self._cpus)
        self._calibrations.append(statistics.mean(taken))

    def add(self, kind: str, seconds: float) -> None:
        """Record one timed sample, taken after the latest calibration."""
        if not self._calibrations:
            raise RuntimeError("calibrate before the first timed sample")
        self._samples.setdefault(kind, []).append((seconds, len(self._calibrations)))

    def scaled(self, kind: str) -> List[float]:
        """Every ``kind`` sample in seconds at reference speed."""
        scaled = []
        for seconds, after in self._samples.get(kind, []):
            around = self._calibrations[after - 1:after + 1]
            scaled.append(seconds * REFERENCE_CALIBRATION_S / statistics.mean(around))
        return scaled

    def calibration_s(self) -> float:
        """The median calibration, for a note: how fast the machine ran."""
        return statistics.median(self._calibrations)


def program_env() -> Dict[str, str]:
    """The environment for ``python -m repro`` subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def repro_command(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


@dataclass
class Finished:
    """A program process that ran to completion."""

    wall_s: float
    maxrss_mb: float
    cpu_s: float
    returncode: int
    stderr: str


def _reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, float, float]:
    """Wait for ``proc`` with ``os.wait4``; (exit code, max RSS MB, CPU seconds).

    ``wait4``'s rusage covers the process and every descendant it reaped
    (pool workers), so ``ru_maxrss`` is the peak RSS of the process
    tree and user plus system time is the CPU time of the whole tree.
    A timer kills a hung process so the benchmark always ends.
    """
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def run_repro(
    args: Sequence[str], stdout: Optional[Path], work: Path
) -> Finished:
    """Run ``python -m repro ARGS`` to completion, timing it from spawn."""
    err_path = work / "stderr.txt"
    out_target = stdout if stdout is not None else Path(os.devnull)
    with open(out_target, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            repro_command(*args), stdout=out, stderr=err,
            env=program_env(), cwd=ROOT,
        )
        code, rss, cpu = _reap(proc, PROCESS_TIMEOUT)
        wall = time.perf_counter() - started
    return Finished(wall, rss, cpu, code, err_path.read_text(errors="replace"))


class Server:
    """A ``repro serve`` subprocess on a free loopback port."""

    def __init__(self, args: Sequence[str], work: Path):
        self._err = open(work / "server-stderr.txt", "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            repro_command("serve", "--port", "0", "--quiet", *args),
            stdout=subprocess.PIPE, stderr=self._err,
            env=program_env(), cwd=ROOT,
        )
        killer = threading.Timer(60.0, self.proc.kill)
        killer.start()
        try:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            #: Spawn to the ``listening on`` line: start-up, imports, pool fork.
            self.setup_s = time.perf_counter() - started
            announced = _ANNOUNCE.search(line)
            if announced is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
        except BaseException:
            self.stop()
            raise
        finally:
            killer.cancel()
        self.port = int(announced.group(1))

    def stop(self) -> Tuple[int, float, float]:
        """SIGTERM (drain) and reap; (exit code, peak RSS MB, CPU seconds)."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            result = _reap(self.proc, 60.0)
        else:
            result = (self.proc.returncode, 0.0, 0.0)
        self.proc.stdout.close()
        self._err.close()
        return result


@contextlib.contextmanager
def work_dir(workload: str) -> Iterator[Path]:
    """A fresh scratch directory under ``out/``, removed afterwards."""
    path = OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_catalogue() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)

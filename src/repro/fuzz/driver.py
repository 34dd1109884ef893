"""The fuzz campaign driver: fan seeds out, check oracles, shrink.

One *seed* produces two generated subjects — a ``static`` profile
program (anything the grammar allows) and a ``runtime_safe`` profile
program (bounded loops, deadlock-free semaphore pairing) — and every
registered oracle whose profile matches is checked against each.  A
violation is immediately minimized in-worker with the delta-debugging
shrinker (the predicate: the *same oracle* still reports a violation
or crashes), so the driver only ever surfaces 1-minimal findings.

Scale-out shares the batch pipeline's dispatch path: the same choice
of pool (a caller-owned one, in-process for one seed or ``jobs <= 1``,
else a campaign-owned :class:`~repro.pipeline.runner.WorkerPool`
closed at the end), the same crash isolation (a seed that kills its
worker is retried, then abandoned as a ``WorkerCrash`` error record,
never lost silently), the same chunk sizing and the same deadline
repricing (the payload convention puts the config dict last).  The
``deadline`` config key bounds each exploration, so a runaway one
degrades to an inconclusive *skip* instead of hanging the campaign.

The campaign result aggregates per-oracle counters into the ``fuzz``
section of the ``repro-metrics/1`` document (see
:func:`repro.observe.metrics.validate_metrics`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fuzz.oracles import ORACLES, OracleSkip, PROFILES
from repro.fuzz.shrinker import shrink
from repro.lang.ast import Program
from repro.lang.pretty import pretty
from repro.observe.metrics import MetricsAggregator
from repro.pipeline.analyses import DEFAULT_CONFIG, merge_config
from repro.pipeline.runner import WorkerPool, _execute

#: The campaign's analysis-config defaults.  Budgets sit well below
#: the pipeline's: a fuzz campaign runs hundreds of explorations and
#: wants breadth, and an inconclusive check is a counted *skip*, not
#: a lost verdict.  ``high`` names a variable the generator actually
#: emits (the pipeline default ``("h", "h2")`` never occurs in
#: generated programs, which would make every policy oracle vacuous):
#: with ``v0`` bound top, campaigns sweep a genuine mix of certified
#: and rejected programs.
FUZZ_CONFIG: Dict[str, object] = dict(
    DEFAULT_CONFIG, max_states=8_000, max_depth=600, high=("v0",)
)


def generate_subject(seed: int, profile: str) -> Program:
    """The generated subject for ``(seed, profile)`` — the single
    source of truth shared by the driver, its workers, and replays.

    A few generator knobs are derived from the seed so one campaign
    sweeps different program shapes (size, semaphore count, cobegin
    density) instead of three hundred near-identical programs.
    """
    from repro.workloads.generators import random_program

    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    return random_program(
        seed,
        size=18 + (seed % 4) * 8,
        runtime_safe=(profile == "runtime_safe"),
        n_sems=1 + seed % 3,
        p_cobegin=0.15 + 0.05 * (seed % 3),
    )


def _checked(spec, subject, config):
    """Run one check; a crash *is* a violation (analyzers must not
    die on generator-valid programs)."""
    try:
        return spec.check(subject, config)
    except Exception as exc:  # noqa: BLE001 - converted to evidence
        return {
            "relation": "oracle must not crash",
            "error": f"{type(exc).__name__}: {exc}",
            "error_type": type(exc).__name__,
        }


def _violation(spec, subject, config) -> Optional[dict]:
    """The check's violation evidence, or ``None`` on pass/skip."""
    outcome = _checked(spec, subject, config)
    if outcome is None or isinstance(outcome, OracleSkip):
        return None
    return outcome


def _fuzz_worker(payload: Tuple[int, Tuple[str, ...], bool, dict]) -> dict:
    """Worker entry point: one seed, both profiles, all oracles.

    Top-level and picklable (the :class:`WorkerPool` contract), config
    dict last (the deadline-repricing contract).  Returns the usual
    ``{"result": ..., "seconds": ...}`` envelope.
    """
    seed, oracle_names, do_shrink, config = payload
    started = time.perf_counter()
    checks: List[dict] = []
    programs = 0
    for profile in PROFILES:
        subject = generate_subject(seed, profile)
        applicable = [
            name for name in oracle_names
            if profile in ORACLES[name].profiles
        ]
        if not applicable:
            continue
        programs += 1
        source = pretty(subject)
        for name in applicable:
            spec = ORACLES[name]
            outcome = _checked(spec, subject, config)
            if outcome is None:
                checks.append(
                    {"oracle": name, "profile": profile, "status": "pass"}
                )
                continue
            if isinstance(outcome, OracleSkip):
                checks.append(
                    {
                        "oracle": name,
                        "profile": profile,
                        "status": "skip",
                        "reason": outcome.reason,
                    }
                )
                continue
            finding = {
                "oracle": name,
                "seed": seed,
                "profile": profile,
                "kind": "program",
                "source": source,
                "original_source": source,
                "details": outcome,
                "shrink_iterations": 0,
                "shrink_checks": 0,
                "config": {
                    key: (list(value) if isinstance(value, tuple) else value)
                    for key, value in config.items()
                },
            }
            if do_shrink:
                result = shrink(
                    subject,
                    lambda s: _violation(spec, s, config) is not None,
                )
                minimized = _violation(spec, result.subject, config)
                finding.update(
                    source=pretty(result.subject),
                    details=minimized if minimized is not None else outcome,
                    shrink_iterations=result.iterations,
                    shrink_checks=result.checks,
                )
            checks.append(
                {
                    "oracle": name,
                    "profile": profile,
                    "status": "violation",
                    "finding": finding,
                }
            )
    return {
        "result": {"seed": seed, "programs": programs, "checks": checks},
        "seconds": time.perf_counter() - started,
    }


@dataclass
class FuzzResult:
    """Everything one :func:`run_fuzz` campaign produced."""

    seeds: int
    findings: List[dict] = field(default_factory=list)
    errors: List[dict] = field(default_factory=list)
    programs: int = 0
    checks: int = 0
    skips: int = 0
    violations: int = 0
    shrink_iterations: int = 0
    oracles: Dict[str, Dict[str, int]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    metrics: Dict[str, object] = field(default_factory=dict)

    def fuzz_section(self) -> Dict[str, object]:
        """The ``fuzz`` section of the metrics document."""
        return {
            "seeds": self.seeds,
            "programs": self.programs,
            "checks": self.checks,
            "skips": self.skips,
            "violations": self.violations,
            "findings": len(self.findings),
            "errors": len(self.errors),
            "shrink_iterations": self.shrink_iterations,
            "oracles": {
                name: dict(counters)
                for name, counters in sorted(self.oracles.items())
            },
        }

    def to_dict(self) -> dict:
        """The JSON campaign report (``repro fuzz --json``)."""
        return {
            "fuzz": self.fuzz_section(),
            "findings": self.findings,
            "errors": self.errors,
        }

    def __repr__(self) -> str:
        return (
            f"<FuzzResult seeds={self.seeds} checks={self.checks} "
            f"findings={len(self.findings)}>"
        )


def run_fuzz(
    seeds: int = 100,
    seed_start: int = 0,
    oracles: Optional[Sequence[str]] = None,
    jobs: int = 1,
    config: Optional[Dict[str, object]] = None,
    do_shrink: bool = True,
    corpus_dir: Optional[str] = None,
    observer: Optional[MetricsAggregator] = None,
    pool: Optional[WorkerPool] = None,
) -> FuzzResult:
    """Run a differential fuzzing campaign.

    ``seeds`` consecutive seeds starting at ``seed_start`` each
    produce one subject per generation profile; ``oracles`` restricts
    the registry (default: all; a repeated name counts once).
    ``config`` overlays :data:`FUZZ_CONFIG`
    (:func:`repro.pipeline.analyses.merge_config`); its ``deadline``
    (seconds) bounds each oracle's exploration wall-clock.  With
    ``corpus_dir`` every minimized finding is persisted for replay.
    ``jobs > 1`` fans two or more seeds over a :class:`WorkerPool` (a
    caller-owned ``pool`` runs every campaign).
    """
    started = time.perf_counter()
    names = tuple(sorted(ORACLES) if oracles is None else dict.fromkeys(oracles))
    for name in names:
        if name not in ORACLES:
            raise ValueError(
                f"unknown oracle {name!r}; available: {sorted(ORACLES)}"
            )
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    merged = merge_config(FUZZ_CONFIG, config)
    if observer is None:
        observer = MetricsAggregator()

    seed_list = list(range(seed_start, seed_start + seeds))
    envelopes = _execute(
        [(f"seed-{seed}", "fuzz") for seed in seed_list],
        [(seed, names, do_shrink, dict(merged)) for seed in seed_list],
        jobs,
        observer,
        fn=_fuzz_worker,
        pool=pool,
    )

    result = FuzzResult(seeds=seeds)
    for seed, envelope in zip(seed_list, envelopes):
        data = envelope["result"]
        if "error" in data:  # a WorkerCrash record from the pool
            result.errors.append({"seed": seed, **data})
            observer.item(f"seed-{seed}", "fuzz", "error",
                          error_type=data.get("error_type"))
            continue
        result.programs += data["programs"]
        for check in data["checks"]:
            result.checks += 1
            counters = result.oracles.setdefault(
                check["oracle"], {"checks": 0, "skips": 0, "violations": 0}
            )
            counters["checks"] += 1
            if check["status"] == "skip":
                result.skips += 1
                counters["skips"] += 1
            elif check["status"] == "violation":
                result.violations += 1
                counters["violations"] += 1
                finding = check["finding"]
                result.shrink_iterations += finding["shrink_iterations"]
                result.findings.append(finding)
        observer.item(
            f"seed-{seed}",
            "fuzz",
            "ok",
            seconds=envelope.get("seconds"),
        )

    if corpus_dir:
        from repro.fuzz.corpus import save_finding

        for finding in result.findings:
            save_finding(corpus_dir, finding)

    result.elapsed_seconds = time.perf_counter() - started
    result.metrics = observer.to_dict(
        elapsed_seconds=result.elapsed_seconds,
        jobs=jobs,
        deadline=merged["deadline"],
        fuzz=result.fuzz_section(),
    )
    return result

"""Batch analysis pipeline: parallel workers + content-addressed cache.

The production-scale entry point for running any subset of the repo's
analyses (CFM certification, the Denning baseline, flow-sensitive
certification, Theorem 1 proof search, static lint, exhaustive
exploration) over whole corpora of programs:

>>> from repro.pipeline import run_pipeline
>>> from repro.workloads.suites import corpus
>>> result = run_pipeline(corpus("litmus"), analyses=("cert",))
>>> result.program("explicit")["analyses"]["cert"]["certified"]
False

Results are memoized in an on-disk content-addressed cache (keyed by
canonical program text x analysis x config slice x package version),
so re-running over an unchanged corpus is near-free; see
``docs/pipeline.md`` for the cache layout and invalidation rules, and
``repro batch --help`` for the CLI surface.
"""

from repro.pipeline.analyses import (
    ANALYSES,
    DEFAULT_CONFIG,
    AnalysisSpec,
    analysis_names,
    check_config,
    scheme_names,
)
from repro.pipeline.cache import (
    CacheStats,
    MemoryLRU,
    ResultCache,
    TieredCache,
    cache_key,
)
from repro.pipeline.runner import PipelineResult, WorkerPool, run_pipeline

__all__ = [
    "ANALYSES",
    "DEFAULT_CONFIG",
    "AnalysisSpec",
    "CacheStats",
    "MemoryLRU",
    "PipelineResult",
    "ResultCache",
    "TieredCache",
    "WorkerPool",
    "analysis_names",
    "cache_key",
    "check_config",
    "run_pipeline",
    "scheme_names",
]

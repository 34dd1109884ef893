"""A resident analysis service: the batch pipeline behind HTTP.

``repro serve`` keeps one process resident so repeated analysis of
similar programs pays for analysis, never for startup: a persistent
pre-forked worker pool and an in-memory LRU in front of the on-disk
content-addressed cache.  The response document is byte-identical to
``repro batch --json`` for the same inputs — the service adds speed,
never a second result format.  The front line degrades predictably:
a bounded admission gauge and per-tenant token buckets turn overload
into cheap 429s (with ``Retry-After``).
``repro loadtest`` (:mod:`repro.service.loadtest`) measures all of it
against a live spawned server.  See ``docs/service.md``.  Its names
resolve on first use, so ``repro serve`` never loads it.
"""

from repro import _lazy
from repro.service.app import (
    DEFAULT_ANALYSES,
    AnalysisService,
    ServiceError,
)
from repro.service.httpd import AnalysisServer, serve

_EXPORTS = {"loadtest": ("LoadtestOptions", "run_loadtest")}

__all__ = [
    "DEFAULT_ANALYSES",
    "AnalysisServer",
    "AnalysisService",
    "LoadtestOptions",
    "ServiceError",
    "run_loadtest",
    "serve",
]

__getattr__, __dir__ = _lazy(globals(), _EXPORTS)

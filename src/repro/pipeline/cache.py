"""Content-addressed on-disk result cache for the batch pipeline.

Every cached entry is addressed by the SHA-256 of a canonical JSON
document describing *everything the result depends on*: the canonical
(pretty-printed) program text, the analysis name, the slice of the
pipeline configuration that analysis reads, and the package version.
Two consequences:

* a cache never returns a stale result — any change to the program,
  the policy/lattice configuration, or the code version lands on a
  different key, so invalidation is automatic and no entry is ever
  mutated in place;
* the cache is safe to share between concurrent pipelines — writes go
  through a temp file + ``os.replace`` (atomic on POSIX), and losing a
  race merely rewrites identical bytes.

Layout: ``<root>/<key[:2]>/<key>.json`` (two-level fan-out keeps
directories small on large corpora).  Each file holds
``{"key": ..., "analysis": ..., "result": ...}``; a file that fails to
parse, or whose embedded key disagrees with its address, is treated as
a miss and recomputed — corruption can cost time, never correctness.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

#: Bump when the on-disk entry format changes (part of every key).
CACHE_FORMAT = 1


def _reject_non_json(value: object) -> object:
    """``json.dumps`` fallback for :func:`cache_key`: always raises.

    Silently coercing arbitrary objects (the old behaviour was
    ``default=list``) lets two distinct configurations alias one cache
    key — a set's iteration order is arbitrary, and any stateful
    iterable serializes as whatever it happened to yield.  A loud
    ``TypeError`` turns a wrong-result bug into an immediate one.
    """
    raise TypeError(
        f"cache_key config value {value!r} of type "
        f"{type(value).__name__} is not JSON-serializable; cache keys "
        "require plain JSON config values (normalize sets and custom "
        "objects before keying)"
    )


def cache_key(
    source: str,
    kind: str,
    analysis: str,
    config: Dict[str, object],
    version: str,
) -> str:
    """The content address of one (program, analysis, config) result.

    ``source`` must be the *canonical* program text (the pretty-printed
    AST, not the raw input), so formatting-only differences between
    inputs still share an entry.  ``config`` should already be sliced
    down to the keys the analysis actually reads (see
    :data:`repro.pipeline.analyses.ANALYSES`), so that e.g. changing
    explorer budgets does not invalidate certification entries.

    Config values must be plain JSON data (tuples are fine — they
    serialize exactly like lists); anything else raises ``TypeError``
    rather than silently coercing into a possibly-aliasing key.
    """
    document = json.dumps(
        {
            "format": CACHE_FORMAT,
            "source": source,
            "kind": kind,
            "analysis": analysis,
            "config": config,
            "version": version,
        },
        sort_keys=True,
        separators=(",", ":"),
        default=_reject_non_json,
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


class ResultCache:
    """A content-addressed store of analysis results under ``root``.

    All methods degrade gracefully: an unreadable or corrupted entry is
    a miss, an unwritable directory turns ``put`` into a no-op.  The
    pipeline must never fail because its cache did.  The store keeps
    no counters: each ``lookup`` and ``put`` returns its own outcome,
    and ``run_pipeline`` reports it to the run's
    :class:`repro.observe.MetricsAggregator`.
    """

    def __init__(self, root: str):
        self.root = root

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get(self, key: str) -> Optional[dict]:
        """The cached result for ``key``, or ``None`` on miss/corruption."""
        return self.lookup(key)[0]

    def lookup(self, key: str) -> Tuple[Optional[dict], bool]:
        """:meth:`get`'s answer and whether *this* read found corruption.

        A path that cannot be read (missing, or under an unreadable or
        non-directory root) is a clean miss; only an entry that was read
        and is not a valid record for ``key`` counts as corrupt.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            return None, False
        except ValueError:
            payload = None
        if not isinstance(payload, dict) or payload.get("key") != key \
                or "result" not in payload:
            return None, True
        return payload["result"], False

    def put(self, key: str, analysis: str, result: dict) -> bool:
        """Atomically store ``result`` under ``key``; True if it landed.

        The temp file is removed in a ``finally`` whenever the write
        did not complete — a serialization error or a failing
        ``os.replace`` must never strand ``*.json.tmp`` litter in the
        cache root (a long-running service makes this path hot).  Any
        write failure, including an unserializable ``result``, is
        swallowed: the pipeline must never fail because its cache did.
        """
        path = self._path(key)
        payload = {"key": key, "analysis": analysis, "result": result}
        tmp: Optional[str] = None
        try:
            # One-shot dumps runs CPython's C encoder; json.dump to a
            # file would run the pure-Python one.  Same bytes either way.
            text = json.dumps(payload, sort_keys=True)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".json.tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
            tmp = None  # the write landed; nothing to clean up
            return True
        except (OSError, TypeError, ValueError):
            return False
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass


class MemoryLRU:
    """A bounded, thread-safe in-memory LRU of analysis results.

    The memory tier of a :class:`TieredCache`: keyed by the same
    :func:`cache_key` addresses as the on-disk store, so promoting or
    demoting an entry between tiers never changes what it means.
    ``get`` returns a deep copy — entries are shared across service
    requests and threads, and a caller mutating its result document
    must not corrupt every later hit.

    ``capacity`` bounds the entry count (the results this repo caches
    are small JSON documents; an entry cap is predictable where a byte
    cap would be guesswork).  ``capacity=0`` disables the tier.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, dict]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[dict]:
        """The cached result for ``key`` (a fresh copy), or ``None``."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return copy.deepcopy(value)

    def put(self, key: str, result: dict) -> None:
        """Insert ``result`` under ``key``, evicting the LRU entry."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = copy.deepcopy(result)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def to_dict(self) -> Dict[str, int]:
        """JSON shape of the tier's counters."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class TieredCache:
    """A :class:`MemoryLRU` in front of an (optional) on-disk store.

    Drop-in for :class:`ResultCache` where ``run_pipeline`` is
    concerned (``lookup``/``put``): reads try memory first and promote
    disk hits; writes land in both tiers.  Like the disk store it keeps
    no combined counters (a memory hit is still a cache hit, which the
    run's metrics count); the memory tier keeps its own counters
    (:meth:`MemoryLRU.to_dict` on :attr:`lru`).
    """

    def __init__(self, disk: Optional[ResultCache], lru: Optional[MemoryLRU] = None):
        self.disk = disk
        self.lru = lru if lru is not None else MemoryLRU()

    def lookup(self, key: str) -> Tuple[Optional[dict], bool]:
        """Memory first, then disk (promoting the entry on a disk hit).

        Returns the result (``None`` on a miss) and whether *this* read
        found a corrupt disk entry.
        """
        found = self.lru.get(key)
        if found is not None or self.disk is None:
            return found, False
        found, corrupt = self.disk.lookup(key)
        if found is not None:
            self.lru.put(key, found)
        return found, corrupt

    def put(self, key: str, analysis: str, result: dict) -> bool:
        """Store ``result`` in both tiers; True if a write landed.

        With a disk tier only a durable write counts; memory-only, the
        memory write is the write (none when the tier is disabled).
        """
        self.lru.put(key, result)
        if self.disk is not None:
            return self.disk.put(key, analysis, result)
        return self.lru.capacity > 0

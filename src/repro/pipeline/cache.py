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


def render_json(value: object) -> str:
    """``value`` as the result document lays out JSON: ``indent=2``, sorted keys.

    The one renderer of a cell's text: :meth:`MemoryLRU.put` keeps its
    output, and :meth:`repro.pipeline.PipelineResult.to_json` places it
    in the document (or calls it for a cell that arrives without one).
    The text is laid out as if at the top level; JSON text never holds
    a raw newline, so indenting every line break places it deeper.
    """
    return json.dumps(value, indent=2, sort_keys=True)


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

    ``lookup`` and ``put`` speak the cache protocol ``run_pipeline``
    reads, which :class:`TieredCache` shares: each also hands back the
    memory tier's text of the result, which this store, holding no
    memory tier, gives as ``None``.
    """

    def __init__(self, root: str):
        self.root = root

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get(self, key: str) -> Optional[dict]:
        """The cached result for ``key``, or ``None`` on miss/corruption."""
        return self.lookup(key)[0]

    def lookup(self, key: str) -> Tuple[Optional[dict], None, bool]:
        """:meth:`get`'s answer, no text, and whether *this* read found
        corruption.

        A path that cannot be read (missing, or under an unreadable or
        non-directory root) is a clean miss; only an entry that was read
        and is not a valid record for ``key`` counts as corrupt.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            return None, None, False
        except ValueError:
            payload = None
        if not isinstance(payload, dict) or payload.get("key") != key \
                or "result" not in payload:
            return None, None, True
        return payload["result"], None, False

    def put(self, key: str, analysis: str, result: dict) -> Tuple[bool, None]:
        """Atomically store ``result`` under ``key``: whether it landed,
        and no text.

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
            return True, None
        except (OSError, TypeError, ValueError):
            return False, None
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

    Each entry is kept as its result's text, :func:`render_json`, made
    once when it is stored, not as a dict.  A hit decodes that text, so
    every caller gets a fresh object: entries are shared across service
    requests and threads, yet no caller can corrupt a later hit by
    mutating its result, and no writer's later mutation reaches the
    tier.  :meth:`lookup` also hands back the text, which
    :meth:`repro.pipeline.PipelineResult.to_json` places in the document
    as it is.  Encoding and decoding run outside the tier's lock; the
    lock guards only the entry map and the counters.

    ``capacity`` bounds the entry count (the results this repo caches
    are small JSON documents; an entry cap is predictable where a byte
    cap would be guesswork).  ``text_bytes``, the summed length of the
    texts held, shows what that bound costs.  ``capacity=0`` disables
    the tier.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.text_bytes = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, str]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[dict]:
        """The cached result for ``key`` (a fresh object), or ``None``."""
        return self.lookup(key)[0]

    def lookup(self, key: str) -> Tuple[Optional[dict], Optional[str]]:
        """The cached result for ``key`` (a fresh object) and its text,
        or ``(None, None)``."""
        with self._lock:
            text = self._entries.get(key)
            if text is None:
                self.misses += 1
                return None, None
            self._entries.move_to_end(key)
            self.hits += 1
        return json.loads(text), text

    def put(self, key: str, result: dict) -> Optional[str]:
        """Insert ``result`` under ``key``, evicting the LRU entry.

        Returns the text it stored.  A result :func:`render_json`
        cannot encode is not stored and gives ``None``, as does a
        disabled tier: the pipeline must never fail because its cache
        did.
        """
        if self.capacity == 0:
            return None
        try:
            text = render_json(result)
        except (TypeError, ValueError):
            return None
        with self._lock:
            replaced = self._entries.pop(key, None)
            if replaced is not None:
                self.text_bytes -= len(replaced)
            self._entries[key] = text
            self.text_bytes += len(text)
            while len(self._entries) > self.capacity:
                _, evicted = self._entries.popitem(last=False)
                self.text_bytes -= len(evicted)
                self.evictions += 1
        return text

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self.text_bytes = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON shape of the tier's counters and its ``text_bytes`` gauge."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "text_bytes": self.text_bytes,
            }


class TieredCache:
    """A :class:`MemoryLRU` in front of an (optional) on-disk store.

    Speaks :class:`ResultCache`'s cache protocol, the one
    ``run_pipeline`` reads: ``lookup`` gives ``(result, text, corrupt)``
    and ``put`` gives ``(landed, text)``, where ``text`` is the memory
    tier's text of the result (``None`` when the tier did not store
    it).  Reads try memory first and promote disk hits; writes land in
    both tiers.  Like the disk store it keeps no combined counters (a
    memory hit is still a cache hit, which the run's metrics count);
    the memory tier keeps its own counters (:meth:`MemoryLRU.to_dict`
    on :attr:`lru`).
    """

    def __init__(self, disk: Optional[ResultCache], lru: Optional[MemoryLRU] = None):
        self.disk = disk
        self.lru = lru if lru is not None else MemoryLRU()

    def lookup(self, key: str) -> Tuple[Optional[dict], Optional[str], bool]:
        """Memory first, then disk (promoting the entry on a disk hit).

        Returns the result (``None`` on a miss), its memory-tier text,
        and whether *this* read found a corrupt disk entry.
        """
        found, text = self.lru.lookup(key)
        if found is not None or self.disk is None:
            return found, text, False
        found, _, corrupt = self.disk.lookup(key)
        if found is not None:
            text = self.lru.put(key, found)
        return found, text, corrupt

    def put(self, key: str, analysis: str, result: dict) -> Tuple[bool, Optional[str]]:
        """Store ``result`` in both tiers: whether a write landed, and
        the memory tier's text.

        With a disk tier only a durable write counts; memory-only, the
        memory write is the write (none when the tier is disabled or
        cannot encode the result).
        """
        text = self.lru.put(key, result)
        if self.disk is not None:
            return self.disk.put(key, analysis, result)[0], text
        return text is not None, text

"""Cache correctness: accounting, key sensitivity, corruption recovery."""

import json
import os

import pytest

import repro
from repro.observe import MetricsAggregator
from repro.pipeline import ResultCache, cache_key, run_pipeline
from repro.pipeline.analyses import ANALYSES, DEFAULT_CONFIG
from repro.workloads.litmus import CASES


def small_corpus(n=4):
    return [(case.name, case.statement()) for case in CASES[:n]]


def _cache_counts(result):
    """The four cache counters of one run's metrics document."""
    cache = result.metrics["cache"]
    return {key: cache[key] for key in ("hits", "misses", "writes", "corrupt")}


def test_cold_run_misses_then_warm_run_hits(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = run_pipeline(small_corpus(), analyses=("cert",), cache_dir=cache_dir)
    assert _cache_counts(cold) == {
        "hits": 0, "misses": 4, "writes": 4, "corrupt": 0,
    }
    warm = run_pipeline(small_corpus(), analyses=("cert",), cache_dir=cache_dir)
    assert _cache_counts(warm) == {
        "hits": 4, "misses": 0, "writes": 0, "corrupt": 0,
    }
    assert warm.metrics["run"]["computed"] == 0
    assert cold.to_json() == warm.to_json()


def test_partial_overlap_accounts_hits_and_misses(tmp_path):
    cache_dir = str(tmp_path / "cache")
    run_pipeline(small_corpus(2), analyses=("cert",), cache_dir=cache_dir)
    mixed = run_pipeline(small_corpus(4), analyses=("cert",), cache_dir=cache_dir)
    assert mixed.metrics["cache"]["hits"] == 2
    assert mixed.metrics["cache"]["misses"] == 2


def test_use_cache_false_never_touches_disk(tmp_path):
    cache_dir = str(tmp_path / "cache")
    result = run_pipeline(
        small_corpus(), analyses=("cert",), cache_dir=cache_dir, use_cache=False
    )
    assert _cache_counts(result) == {
        "hits": 0, "misses": 0, "writes": 0, "corrupt": 0,
    }
    assert not os.path.exists(cache_dir)


def _keys_for(config_overrides, version=None, subject=None):
    """Cache keys for one litmus program (default: the first) under a
    config variation."""
    from repro.lang.pretty import pretty

    source = pretty(subject if subject is not None else CASES[0].statement())
    config = dict(DEFAULT_CONFIG)
    config.update(config_overrides)
    config["high"] = tuple(sorted(config["high"]))
    return {
        name: cache_key(
            source,
            "statement",
            name,
            spec.config_slice(config),
            version or repro.__version__,
        )
        for name, spec in ANALYSES.items()
    }


def test_key_changes_with_scheme_policy_and_version():
    base = _keys_for({})
    # Changing the lattice invalidates every policy-consuming analysis.
    four = _keys_for({"scheme": "four-level"})
    assert four["cert"] != base["cert"]
    assert four["lint"] != base["lint"]
    # Changing the policy (high-variable set) likewise.
    high = _keys_for({"high": ("h", "h2", "l2")})
    assert high["cert"] != base["cert"]
    # Changing explorer budgets touches only the explorer.
    budget = _keys_for({"max_states": 999})
    assert budget["explore"] != base["explore"]
    assert budget["cert"] == base["cert"]
    assert budget["lint"] == base["lint"]
    # A new package version invalidates everything.
    bumped = _keys_for({}, version="999.0.0")
    for name in base:
        assert bumped[name] != base[name], name


def test_pre_creep_fix_lint_entries_miss_cleanly():
    """Lint cells cached by 1.2.x must re-key, not replay.

    Since 1.3.0 lint reports RPL501 for every variable whose least class
    is not below its binding, also when another check fails too, so a
    1.2.x lint cell can lack findings the current code emits.
    """
    assert repro.__version__ != "1.2.0"
    assert _keys_for({})["lint"] != _keys_for({}, version="1.2.0")["lint"]


def test_pre_fastpath_entries_miss_cleanly(tmp_path):
    """Stale 1.1.x cert/denning/lint entries must re-key, not replay.

    The fused fast path landed with a version bump precisely so caches
    written by the pre-fastpath release cannot serve results to the new
    code: an entry stored under the old version's key must be a clean
    miss (recompute + rewrite), never a hit and never a crash.
    """
    assert repro.__version__ != "1.1.0"  # the release the bump leaves behind
    old = _keys_for({}, version="1.1.0")
    current = _keys_for({})
    for name in current:
        assert current[name] != old[name], name

    # Simulate the migration end to end: seed the cache under the old
    # version's keys, then run the pipeline and demand zero hits.
    from repro.lang.pretty import pretty

    cache_dir = str(tmp_path / "cache")
    cache = ResultCache(cache_dir)
    config = dict(DEFAULT_CONFIG)
    config["high"] = tuple(sorted(config["high"]))
    for name, subject in small_corpus():
        key = cache_key(
            pretty(subject),
            "statement",
            "cert",
            ANALYSES["cert"].config_slice(config),
            "1.1.0",
        )
        cache.put(key, "cert", {"certified": False, "checks": 0, "violations": []})
    migrated = run_pipeline(small_corpus(), analyses=("cert",), cache_dir=cache_dir)
    assert migrated.metrics["cache"]["hits"] == 0
    assert migrated.metrics["cache"]["misses"] == 4
    assert migrated.metrics["run"]["computed"] == 4
    # the stale planted answers never leak into the document
    assert all(
        entry["analyses"]["cert"]["checks"] > 0 or entry["analyses"]["cert"]["certified"]
        for entry in migrated.programs
    )


def test_key_changes_with_program_text():
    a = cache_key("l := h", "statement", "cert", {}, "1.0.0")
    b = cache_key("l := h2", "statement", "cert", {}, "1.0.0")
    assert a != b
    # and is stable for identical inputs
    assert a == cache_key("l := h", "statement", "cert", {}, "1.0.0")


@pytest.mark.parametrize("damage", ["truncate", "garbage", "wrong-key", "empty"])
def test_corrupted_cache_entry_recomputes_not_crashes(tmp_path, damage):
    cache_dir = str(tmp_path / "cache")
    first = run_pipeline(small_corpus(), analyses=("cert",), cache_dir=cache_dir)
    files = sorted(
        os.path.join(root, f)
        for root, _, names in os.walk(cache_dir)
        for f in names
    )
    assert len(files) == 4
    victim = files[0]
    if damage == "truncate":
        with open(victim, "r+", encoding="utf-8") as handle:
            handle.truncate(10)
    elif damage == "garbage":
        with open(victim, "w", encoding="utf-8") as handle:
            handle.write("\x00not json at all")
    elif damage == "wrong-key":
        with open(victim, "w", encoding="utf-8") as handle:
            json.dump({"key": "0" * 64, "analysis": "cert", "result": {}}, handle)
    else:  # empty
        open(victim, "w").close()
    again = run_pipeline(small_corpus(), analyses=("cert",), cache_dir=cache_dir)
    assert again.metrics["cache"]["corrupt"] == 1
    assert again.metrics["cache"]["hits"] == 3
    assert again.metrics["cache"]["misses"] == 1
    # the damaged entry was recomputed and the document is unharmed
    assert again.to_json() == first.to_json()
    # and the entry was healed on disk
    healed = run_pipeline(small_corpus(), analyses=("cert",), cache_dir=cache_dir)
    assert healed.metrics["cache"]["hits"] == 4


def test_cache_get_put_roundtrip(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    key = "ab" + "0" * 62
    assert cache.get(key) is None
    assert cache.put(key, "cert", {"certified": True}) is True
    assert cache.get(key) == {"certified": True}


def test_unwritable_cache_root_is_a_no_op(tmp_path):
    blocker = tmp_path / "flat"
    blocker.write_text("a file where the cache root should be")
    cache = ResultCache(str(blocker / "sub"))
    # must not raise, and must not claim the write
    assert cache.put("ab" + "0" * 62, "cert", {"certified": True}) is False


# -- write-path hygiene (regression: a failed write stranded *.tmp files) ----


def _tmp_litter(root):
    return [
        f
        for dirpath, _, names in os.walk(str(root))
        for f in names
        if f.endswith(".tmp")
    ]


def test_failed_replace_leaves_no_tmp_litter(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path / "c"))

    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("repro.pipeline.cache.os.replace", refuse)
    # must not raise, and must not claim the write
    assert cache.put("ab" + "0" * 62, "cert", {"certified": True}) is False
    assert _tmp_litter(tmp_path) == []
    assert cache.get("ab" + "0" * 62) is None  # nothing half-written


def test_unserializable_result_leaves_no_tmp_litter(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    # must not raise, and must not claim the write
    assert cache.put("ab" + "0" * 62, "cert", {"bad": object()}) is False
    assert _tmp_litter(tmp_path) == []
    assert cache.get("ab" + "0" * 62) is None


def test_entry_file_holds_the_sorted_key_json_of_its_payload(tmp_path):
    # the on-disk bytes are pinned: entries written before and after any
    # change to how the cache encodes them must stay readable
    cache = ResultCache(str(tmp_path / "c"))
    key = "cd" + "0" * 62
    result = {"zeta": [1, "\u00e9", None], "alpha": {"b": True, "a": 2.5}}
    assert cache.put(key, "explore", result)
    (path,) = [
        os.path.join(root, name)
        for root, _, names in os.walk(tmp_path)
        for name in names
    ]
    with open(path, "rb") as handle:
        stored = handle.read()
    expected = json.dumps(
        {"analysis": "explore", "key": key, "result": result}, sort_keys=True
    )
    assert stored == expected.encode("utf-8")
    assert cache.get(key) == result


# -- key hygiene (regression: default=list silently coerced non-JSON) --------


def test_cache_key_rejects_non_json_config_values():
    with pytest.raises(TypeError, match="not JSON-serializable"):
        cache_key(
            "l := h", "statement", "cert", {"high": {"h", "h2"}}, "1.0.0"
        )


def test_cache_key_tuple_and_list_configs_agree():
    # tuples serialize natively as JSON arrays: removing the silent
    # coercion must not re-key any existing entry
    a = cache_key("l := h", "statement", "cert", {"high": ("h", "h2")}, "1.0.0")
    b = cache_key("l := h", "statement", "cert", {"high": ["h", "h2"]}, "1.0.0")
    assert a == b


# -- the in-memory tier ------------------------------------------------------


def test_memory_lru_eviction_order_and_counters():
    from repro.pipeline import MemoryLRU

    lru = MemoryLRU(capacity=2)
    lru.put("a", {"v": 1})
    lru.put("b", {"v": 2})
    assert lru.get("a") == {"v": 1}  # refreshes "a"
    lru.put("c", {"v": 3})  # evicts "b", the least recently used
    assert lru.get("b") is None
    assert lru.get("a") == {"v": 1}
    assert lru.get("c") == {"v": 3}
    assert len(lru) == 2
    assert lru.to_dict() == {
        "capacity": 2, "entries": 2, "hits": 3, "misses": 1, "evictions": 1,
    }


def test_memory_lru_isolates_entries_from_caller_mutation():
    from repro.pipeline import MemoryLRU

    lru = MemoryLRU()
    original = {"nested": {"v": 1}}
    lru.put("k", original)
    original["nested"]["v"] = 666  # the caller's copy, not the cache's
    got = lru.get("k")
    assert got == {"nested": {"v": 1}}
    got["nested"]["v"] = 999  # nor can a reader corrupt later hits
    assert lru.get("k") == {"nested": {"v": 1}}


def test_memory_lru_capacity_zero_disables_the_tier():
    from repro.pipeline import MemoryLRU

    lru = MemoryLRU(capacity=0)
    lru.put("k", {"v": 1})
    assert lru.get("k") is None
    assert len(lru) == 0


def test_tiered_cache_promotes_disk_hits_into_memory(tmp_path):
    from repro.pipeline import MemoryLRU, TieredCache

    key = "ab" + "0" * 62
    first = TieredCache(ResultCache(str(tmp_path / "c")), MemoryLRU(8))
    assert first.put(key, "cert", {"certified": True}) is True
    # a new tier over the same disk store: memory is cold, disk is warm
    second = TieredCache(ResultCache(str(tmp_path / "c")), MemoryLRU(8))
    assert second.lookup(key) == ({"certified": True}, False)  # from disk
    assert second.lru.hits == 0
    assert second.lookup(key) == ({"certified": True}, False)  # from memory
    assert second.lru.hits == 1


def test_tiered_cache_is_a_dropin_for_run_pipeline(tmp_path):
    from repro.pipeline import MemoryLRU, TieredCache

    tier = TieredCache(ResultCache(str(tmp_path / "cache")), MemoryLRU(64))
    observer = MetricsAggregator()
    cold = run_pipeline(
        small_corpus(), analyses=("cert",), cache=tier, observer=observer
    )
    warm = run_pipeline(
        small_corpus(), analyses=("cert",), cache=tier, observer=observer
    )
    assert cold.to_json() == warm.to_json()
    # a shared observer accumulates across runs (service semantics):
    # 4 cold misses+writes, then 4 warm hits
    assert _cache_counts(warm) == {
        "hits": 4, "misses": 4, "writes": 4, "corrupt": 0,
    }
    assert tier.lru.hits == 4  # the warm run never went to disk


# -- cache-counter accounting regressions, at the counting point -------------
#
# ``run_pipeline`` reports each lookup's own outcome and each write that
# landed to its observer; the caches count nothing.  These bugs came from
# reading counters off a cache that several readers shared.


def _garble(cache, key):
    """Plant a corrupt entry at ``key``'s on-disk address."""
    import os

    path = cache._path(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{not json")


def _cert_key(entry):
    """The cache key ``run_pipeline`` gives a corpus entry's cert cell."""
    return _keys_for({}, subject=entry[1])["cert"]


def _certify(entry, cache, observer=None):
    """One ``run_pipeline`` over a single-program corpus."""
    return run_pipeline(
        [entry], analyses=("cert",), cache=cache, observer=observer
    )


def test_tiered_corrupt_counter_tracks_deltas_not_snapshots(tmp_path):
    """Regression: mirroring the disk tier's cumulative counter by
    assignment (miss path only) went stale after any hit; the shared
    count must advance exactly when new corruption is observed and
    then stay put."""
    from repro.pipeline import MemoryLRU, TieredCache

    disk = ResultCache(str(tmp_path / "c"))
    tier = TieredCache(disk, MemoryLRU(8))
    observer = MetricsAggregator()
    bad, good = small_corpus(2)

    def corrupt_after(entry):
        _certify(entry, tier, observer)
        return observer.cache["corrupt"]

    _garble(disk, _cert_key(bad))
    assert corrupt_after(bad) == 1
    # the run healed the entry; garble it again behind the memory
    # tier's back, and the next read counts again — a delta, never a
    # re-snapshot
    _garble(disk, _cert_key(bad))
    tier.lru.clear()
    assert corrupt_after(bad) == 2

    assert corrupt_after(good) == 2  # a clean miss
    assert corrupt_after(good) == 2  # a hit must not disturb the counter
    assert observer.cache["hits"] == 1


def test_two_tiers_sharing_one_disk_count_their_own_corruption(tmp_path):
    """Regression: with the snapshot-assignment bug, the second tier's
    first miss claimed every corruption the *first* tier had already
    observed on their shared disk store."""
    from repro.pipeline import MemoryLRU, TieredCache

    disk = ResultCache(str(tmp_path / "c"))
    first = TieredCache(disk, MemoryLRU(8))
    second = TieredCache(disk, MemoryLRU(8))
    bad, clean = small_corpus(2)

    _garble(disk, _cert_key(bad))
    assert _certify(bad, first).metrics["cache"]["corrupt"] == 1
    # second tier misses a *clean* key: no corruption of its own
    assert _certify(clean, second).metrics["cache"]["corrupt"] == 0


def test_tiered_put_does_not_count_a_swallowed_disk_write(tmp_path):
    """Regression: ``TieredCache.put`` counted a combined write even
    when the disk tier swallowed the failure (unwritable root)."""
    from repro.pipeline import MemoryLRU, TieredCache

    blocker = tmp_path / "flat"
    blocker.write_text("a file where the cache root should be")
    tier = TieredCache(ResultCache(str(blocker / "sub")), MemoryLRU(8))
    observer = MetricsAggregator()
    (entry,) = small_corpus(1)
    _certify(entry, tier, observer)  # disk write swallowed
    _certify(entry, tier, observer)  # memory still serves
    assert observer.cache["writes"] == 0  # nothing durable landed
    assert (observer.cache["hits"], observer.cache["misses"]) == (1, 1)


def test_memory_only_tier_still_counts_writes(tmp_path):
    """Without a disk tier the memory write *is* the write; disabling
    both tiers (capacity 0) writes nowhere and counts nothing."""
    from repro.pipeline import MemoryLRU, TieredCache

    (entry,) = small_corpus(1)
    tier = TieredCache(None, MemoryLRU(8))
    assert _certify(entry, tier).metrics["cache"]["writes"] == 1
    disabled = TieredCache(None, MemoryLRU(0))
    assert _certify(entry, disabled).metrics["cache"]["writes"] == 0


class _GatedDisk(ResultCache):
    """A disk tier whose reads and writes wait for each other."""

    def __init__(self, root, barrier):
        super().__init__(root)
        self.barrier = barrier

    def lookup(self, key):
        self.barrier.wait()
        return super().lookup(key)

    def put(self, key, analysis, result):
        self.barrier.wait()
        return super().put(key, analysis, result)


def _in_two_threads(call, entries):
    import threading

    threads = [threading.Thread(target=call, args=(entry,)) for entry in entries]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)


def test_concurrent_tiered_puts_count_each_write_once(tmp_path):
    """Regression: ``put`` added the *change* in the shared disk tier's
    write counter, so two puts inside the disk tier at the same time
    each counted the other's write too (serve-cold: writes > misses)."""
    import threading

    from repro.pipeline import MemoryLRU, TieredCache

    tier = TieredCache(
        _GatedDisk(str(tmp_path / "c"), threading.Barrier(2, timeout=30)),
        MemoryLRU(8),
    )
    observer = MetricsAggregator()
    _in_two_threads(
        lambda entry: _certify(entry, tier, observer), small_corpus(2)
    )
    assert observer.cache == {"hits": 0, "misses": 2, "writes": 2, "corrupt": 0}


def test_concurrent_tiered_gets_count_each_corruption_once(tmp_path):
    """The read-path twin: each read counts only its own corrupt entry."""
    import threading

    from repro.pipeline import MemoryLRU, TieredCache

    disk = _GatedDisk(str(tmp_path / "c"), threading.Barrier(2, timeout=30))
    tier = TieredCache(disk, MemoryLRU(8))
    corpus = small_corpus(2)
    for entry in corpus:
        _garble(disk, _cert_key(entry))
    observer = MetricsAggregator()
    _in_two_threads(lambda entry: _certify(entry, tier, observer), corpus)
    assert observer.cache == {"hits": 0, "misses": 2, "writes": 2, "corrupt": 2}


def test_result_cache_reports_its_own_outcome(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    key = "ab" + "0" * 62
    assert cache.lookup(key) == (None, False)
    assert cache.put(key, "cert", {"certified": True}) is True
    assert cache.lookup(key) == ({"certified": True}, False)
    _garble(cache, key)
    assert cache.lookup(key) == (None, True)
    assert cache.put(key, "cert", {"bad": object()}) is False


def test_tiered_cache_reports_its_own_outcome(tmp_path):
    from repro.pipeline import MemoryLRU, TieredCache

    disk = ResultCache(str(tmp_path / "c"))
    tier = TieredCache(disk, MemoryLRU(8))
    key = "ab" + "0" * 62
    _garble(disk, key)
    assert tier.lookup(key) == (None, True)  # memory missed; disk is corrupt
    assert tier.put(key, "cert", {"certified": True}) is True
    assert tier.lookup(key) == ({"certified": True}, False)
    assert tier.lru.hits == 1  # served from memory, disk never re-read


def test_tiered_counters_stay_exact_under_many_threads(tmp_path):
    """Stress: more threads than cores and a tiny switch interval, every
    thread running pipelines over one disk-backed tier with one shared
    observer; every write lands once and every read is exactly one hit
    or miss, however the threads interleave."""
    import sys
    import threading

    from repro.lang.parser import parse_statement
    from repro.pipeline import MemoryLRU, TieredCache

    tier = TieredCache(ResultCache(str(tmp_path / "c")), MemoryLRU(16))
    observer = MetricsAggregator()
    threads, rounds = 8, 60

    def work(n):
        for i in range(rounds):
            entry = (f"t{n}-{i}", parse_statement(f"x{n} := {i}"))
            _certify(entry, tier, observer)  # a miss and a write
            _certify(entry, tier, observer)  # a hit, from either tier

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(n,)) for n in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(worker.is_alive() for worker in workers)
    cells = threads * rounds
    assert observer.cache == {
        "hits": cells, "misses": cells, "writes": cells, "corrupt": 0,
    }

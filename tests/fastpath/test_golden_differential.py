"""The golden wall: fused pipeline documents are byte-identical.

The pipeline JSON document is the repo's diffable artifact, so the
fast path is pinned at that level: over the litmus and paper corpora,
for cert + denning + lint together, the document produced with
``fastpath`` enabled equals the reference document **byte for byte** —
cold caches, memo-warm caches, serial and ``jobs=4``.  (Workers fork,
so the jobs=4 runs are warmed by first warming the parent's memo.)

When may the fused and reference paths legally differ?  Never.  Any
byte of divergence is a fast-path bug by definition (docs/fastpath.md).
"""

import pytest

from repro.fastpath import cache_stats, clear_caches
from repro.pipeline import run_pipeline
from repro.workloads.suites import corpus

ANALYSES = ("cert", "denning", "lint")


def _corpus():
    return corpus("litmus") + corpus("paper")


def _document(*, fastpath, jobs=1, config_extra=()):
    config = {"fastpath": fastpath}
    config.update(config_extra)
    return run_pipeline(
        _corpus(),
        analyses=ANALYSES,
        jobs=jobs,
        use_cache=False,
        config=config,
    ).to_json()


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def test_cold_fused_document_is_byte_identical():
    reference = _document(fastpath=False)
    clear_caches()
    fused = _document(fastpath=True)
    assert fused == reference
    assert cache_stats()["irs"] > 0  # the fused run really took the fast path


def test_memo_warm_fused_document_is_byte_identical():
    reference = _document(fastpath=False)
    clear_caches()
    _document(fastpath=True)  # cold pass populates the IR + record memos
    stats = cache_stats()
    assert stats["memo"] > 0
    warm = _document(fastpath=True)
    assert warm == reference


def test_jobs4_fused_document_is_byte_identical():
    reference = _document(fastpath=False, jobs=1)
    clear_caches()
    # jobs=4 cold: each forked worker lowers and evaluates on its own
    cold_parallel = _document(fastpath=True, jobs=4)
    assert cold_parallel == reference
    # jobs=4 memo-warm: warm the parent first; forks inherit its memo
    _document(fastpath=True, jobs=1)
    warm_parallel = _document(fastpath=True, jobs=4)
    assert warm_parallel == reference


def test_reject_mode_documents_are_byte_identical():
    extra = {"on_concurrency": "reject"}
    reference = _document(fastpath=False, config_extra=extra)
    clear_caches()
    cold = _document(fastpath=True, config_extra=extra)
    warm = _document(fastpath=True, config_extra=extra)
    assert cold == reference
    assert warm == reference


def test_other_schemes_are_byte_identical():
    for scheme in ("four-level", "diamond"):
        extra = {"scheme": scheme, "high": ("h",)}
        reference = _document(fastpath=False, config_extra=extra)
        clear_caches()
        assert _document(fastpath=True, config_extra=extra) == reference


def test_fastpath_flag_does_not_change_cache_keys(tmp_path):
    # ``fastpath`` is deliberately excluded from every analysis's
    # config_keys: results are byte-identical by contract, so a cache
    # entry written with the fast path on must be served to a run with
    # it off (and vice versa) rather than recomputed.
    cache_dir = str(tmp_path / "cache")
    subset = _corpus()[:5]
    first = run_pipeline(
        subset,
        analyses=ANALYSES,
        jobs=1,
        cache_dir=cache_dir,
        config={"fastpath": True},
    )
    second = run_pipeline(
        subset,
        analyses=ANALYSES,
        jobs=1,
        cache_dir=cache_dir,
        config={"fastpath": False},
    )
    assert second.stats["computed"] == 0
    assert first.to_json() == second.to_json()

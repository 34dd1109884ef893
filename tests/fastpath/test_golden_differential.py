"""The golden wall: fused pipeline documents are byte-identical.

The pipeline JSON document is the repo's diffable artifact, so the
fast path is pinned at that level: over the litmus and paper corpora,
for cert + denning + lint together, the document produced with
``fastpath`` enabled equals the reference document **byte for byte** —
first run and repeat, serial and ``jobs=4``.

When may the fused and reference paths legally differ?  Never.  Any
byte of divergence is a fast-path bug by definition (docs/fastpath.md).
"""

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


def test_cold_fused_document_is_byte_identical(fused_calls):
    reference = _document(fastpath=False)
    assert fused_calls == {"fused_cert": 0, "fused_denning": 0}
    fused = _document(fastpath=True)
    assert fused == reference
    # the fused run really took the fast path, for every program
    programs = len(_corpus())
    assert fused_calls == {"fused_cert": programs, "fused_denning": programs}


def test_repeated_fused_document_is_byte_identical():
    reference = _document(fastpath=False)
    _document(fastpath=True)
    again = _document(fastpath=True)
    assert again == reference


def test_jobs4_fused_document_is_byte_identical():
    reference = _document(fastpath=False, jobs=1)
    # each forked worker runs the sweep on its own
    first_parallel = _document(fastpath=True, jobs=4)
    assert first_parallel == reference
    # and again after a serial fused run in the parent
    _document(fastpath=True, jobs=1)
    again_parallel = _document(fastpath=True, jobs=4)
    assert again_parallel == reference


def test_reject_mode_documents_are_byte_identical():
    extra = {"on_concurrency": "reject"}
    reference = _document(fastpath=False, config_extra=extra)
    first = _document(fastpath=True, config_extra=extra)
    again = _document(fastpath=True, config_extra=extra)
    assert first == reference
    assert again == reference


def test_other_schemes_are_byte_identical():
    for scheme in ("four-level", "diamond"):
        extra = {"scheme": scheme, "high": ("h",)}
        reference = _document(fastpath=False, config_extra=extra)
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
    assert second.metrics["run"]["computed"] == 0
    assert first.to_json() == second.to_json()

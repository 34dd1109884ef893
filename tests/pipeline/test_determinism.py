"""Determinism: serial, parallel, and cached runs are byte-identical.

The pipeline's JSON document is the artifact that gets diffed across
commits and cached across runs, so it must not depend on worker count,
scheduling, set/dict iteration order, or whether results were computed
or replayed from disk.  The property is tested end to end: same
corpus, three execution strategies, one byte string.
"""

import json

from repro.cli import main
from repro.pipeline import run_pipeline
from repro.workloads.generators import random_program
from repro.workloads.litmus import CASES

ANALYSES = ("cert", "denning", "explore", "lint")


def mixed_corpus():
    corpus = [(case.name, case.statement()) for case in CASES[:6]]
    for i in range(3):
        corpus.append(
            (
                f"rand-{i}",
                random_program(
                    seed=5300 + i, size=16, runtime_safe=True, p_cobegin=0.3
                ),
            )
        )
    return corpus


def test_jobs1_jobs4_and_warm_cache_are_byte_identical(tmp_path):
    cache_dir = str(tmp_path / "cache")
    serial = run_pipeline(mixed_corpus(), analyses=ANALYSES, jobs=1, use_cache=False)
    parallel = run_pipeline(mixed_corpus(), analyses=ANALYSES, jobs=4, use_cache=False)
    cold = run_pipeline(mixed_corpus(), analyses=ANALYSES, jobs=1, cache_dir=cache_dir)
    warm = run_pipeline(mixed_corpus(), analyses=ANALYSES, jobs=1, cache_dir=cache_dir)
    assert warm.metrics["run"]["computed"] == 0  # genuinely replayed from disk
    assert serial.to_json() == parallel.to_json()
    assert serial.to_json() == cold.to_json()
    assert serial.to_json() == warm.to_json()


def test_corpus_order_does_not_matter():
    corpus = mixed_corpus()
    forward = run_pipeline(corpus, analyses=("cert",), use_cache=False)
    backward = run_pipeline(list(reversed(corpus)), analyses=("cert",), use_cache=False)
    assert forward.to_json() == backward.to_json()


def test_document_excludes_volatile_facts():
    result = run_pipeline(mixed_corpus()[:2], analyses=("cert",), use_cache=False)
    text = result.to_json()
    doc = json.loads(text)
    assert "elapsed" not in text and "hits" not in text
    assert set(doc) == {"analyses", "config", "programs", "version"}


def test_cli_batch_json_is_deterministic(tmp_path, capsys):
    program = tmp_path / "p.rl"
    program.write_text(
        "var h, l : integer; s : semaphore;\n"
        "cobegin if h = 0 then signal(s) || begin wait(s); l := 1 end coend"
    )
    cache_dir = str(tmp_path / "cache")
    outputs = []
    for jobs, cached in (("1", False), ("4", False), ("1", True), ("1", True)):
        argv = [
            "batch", str(program), "--corpus", "litmus",
            "--analyses", "cert,explore", "--jobs", jobs, "--json",
        ]
        argv += ["--cache-dir", cache_dir] if cached else ["--no-cache"]
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 1

    doc = json.loads(outputs[0])
    names = [entry["name"] for entry in doc["programs"]]
    assert names == sorted(names)
    assert "p.rl" in names

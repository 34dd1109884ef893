"""Runner and CLI behaviour of the batch pipeline."""

import pytest

from repro.cli import main
from repro.pipeline import run_pipeline
from repro.pipeline.analyses import analysis_names
from repro.workloads.litmus import CASES


def litmus_corpus():
    return [(case.name, case.statement()) for case in CASES]


def test_cert_results_match_litmus_expectations():
    """The pipeline's config-derived binding is the litmus convention,
    so its ``cert`` verdicts must agree with the labelled suite."""
    result = run_pipeline(litmus_corpus(), analyses=("cert",), use_cache=False)
    for case in CASES:
        got = result.program(case.name)["analyses"]["cert"]["certified"]
        assert got == case.cfm, case.name


def test_denning_and_fs_results_match_litmus_expectations():
    result = run_pipeline(
        litmus_corpus(), analyses=("denning", "fs"), use_cache=False
    )
    for case in CASES:
        entry = result.program(case.name)["analyses"]
        assert entry["denning"]["certified"] == case.denning, case.name
        assert entry["fs"]["certified"] == case.flow_sensitive, case.name


def test_explore_analysis_reports_deadlock():
    from repro.lang.parser import parse_statement

    # cyclic wait: both branches block with every semaphore at zero
    stmt = parse_statement(
        "cobegin begin wait(a); signal(b) end"
        " || begin wait(b); signal(a) end coend"
    )
    result = run_pipeline(
        [("cycle", stmt)], analyses=("explore",), use_cache=False
    )
    data = result.program("cycle")["analyses"]["explore"]
    assert data["complete"] is True
    assert data["deadlock_free"] is False
    statuses = {o["status"] for o in data["outcomes"]}
    assert "deadlock" in statuses


def test_unknown_analysis_and_config_are_rejected():
    corpus = litmus_corpus()[:1]
    with pytest.raises(ValueError, match="unknown analysis"):
        run_pipeline(corpus, analyses=("nope",))
    with pytest.raises(ValueError, match="unknown config key"):
        run_pipeline(corpus, analyses=("cert",), config={"typo": 1})
    with pytest.raises(ValueError, match="no analyses"):
        run_pipeline(corpus, analyses=())
    with pytest.raises(ValueError, match="duplicate program name"):
        run_pipeline(corpus + corpus, analyses=("cert",))


@pytest.mark.parametrize("config", [
    {"high": "h2"},
    {"high": [1]},
    {"scheme": "bogus"},
    {"on_concurrency": "maybe"},
    {"max_states": "abc"},
    {"max_depth": True},
    {"por": "no"},
    {"deadline": "soon"},
    {"deadline": False},
    {"fastpath": 1},
])
def test_ill_typed_config_values_are_rejected(config):
    (key,) = config
    with pytest.raises(ValueError, match=f"config '{key}' must be"):
        run_pipeline(litmus_corpus()[:1], analyses=("cert",), config=config)


def test_default_configs_pass_the_config_check():
    from repro.fuzz import FUZZ_CONFIG
    from repro.pipeline import DEFAULT_CONFIG, check_config

    check_config(DEFAULT_CONFIG)
    check_config(FUZZ_CONFIG)
    check_config({"high": ["h"], "deadline": 2, "max_states": 10**8})


def test_analysis_failure_is_reported_not_fatal():
    """A program one analysis cannot handle yields an error entry."""
    from repro.lang.parser import parse_statement

    # division by zero at runtime: explore fails, cert does not
    corpus = [("bad", parse_statement("x := 1 / 0")), ("ok", CASES[0].statement())]
    result = run_pipeline(corpus, analyses=("cert", "explore"), use_cache=False)
    errors = result.errors()
    assert ("bad", "explore") in {(n, a) for n, a, _ in errors}
    assert result.program("ok")["analyses"]["explore"]["complete"] is True
    assert result.program("bad")["analyses"]["cert"]["certified"] is True


def test_every_registered_analysis_runs_on_a_simple_program():
    from repro.lang.parser import parse_statement

    corpus = [("simple", parse_statement("begin l := 1; l2 := l end"))]
    result = run_pipeline(corpus, analyses=analysis_names(), use_cache=False)
    assert not result.errors()
    entry = result.program("simple")["analyses"]
    assert entry["cert"]["certified"] is True
    assert entry["prove"]["valid"] is True
    assert entry["metrics"]["statements"] == 3


def test_double_negation_survives_the_worker_reparse():
    # workers re-parse the pretty-printed text: "--h" would be a comment
    from repro.lang.parser import parse_program

    corpus = [("neg", parse_program("var h, x : integer;\nx := - - h"))]
    result = run_pipeline(corpus, analyses=("cert", "explore"), use_cache=False)
    cells = result.program("neg")["analyses"]
    assert "error" not in cells["cert"] and "error" not in cells["explore"]
    assert cells["cert"]["certified"] is False  # x := - - h is an explicit flow
    assert not result.errors()


def test_cli_batch_human_output(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    code = main(
        ["batch", "--corpus", "litmus", "--analyses", "cert",
         "--cache-dir", cache_dir]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "explicit: cert=REJECT" in out
    assert "19 programs x 1 analyses" in out


def test_cli_batch_rejects_bad_input(capsys):
    with pytest.raises(SystemExit):
        main(["batch", "--analyses", "cert"])  # no corpus at all
    with pytest.raises(SystemExit):
        main(["batch", "--corpus", "litmus", "--analyses", "nope"])
    with pytest.raises(SystemExit):
        main(["batch", "--corpus", "nope", "--analyses", "cert"])
    with pytest.raises(SystemExit):
        main(["batch", "--corpus", "litmus", "--analyses", "cert",
              "--scheme", "nope"])


def test_cli_batch_listings(capsys):
    assert main(["batch", "--list-corpora"]) == 0
    assert "litmus" in capsys.readouterr().out
    assert main(["batch", "--list-analyses"]) == 0
    out = capsys.readouterr().out
    assert "cert:" in out and "explore:" in out


def test_error_records_are_structured():
    """Satellite of the hardening PR: a failing analysis yields a
    structured record (type + truncated traceback), not a bare string."""
    from repro.lang.parser import parse_statement

    corpus = [("bad", parse_statement("x := 1 / 0"))]
    result = run_pipeline(corpus, analyses=("explore",), use_cache=False)
    data = result.program("bad")["analyses"]["explore"]
    assert data["error_type"] == "RuntimeFault"
    assert data["error"].startswith("RuntimeFault:")
    assert "Traceback" in data["traceback"] or data["traceback"]
    assert len(data["traceback"]) <= 1_000


# -- crash isolation ---------------------------------------------------------
#
# ``inject_fault`` (``tests/pipeline/faults.py``) is the deterministic
# stand-in for a worker dying mid-task (MemoryError escaping the
# interpreter, the OOM killer, a segfault).  Workers are forked, so a
# monkeypatched analysis registry is inherited; ``os._exit`` skips every
# Python-level cleanup exactly like a real kill.  These tests require
# jobs > 1: the injected fault must never run in the pytest process
# itself.


def _poison_corpus():
    from repro.lang.parser import parse_statement

    return [
        ("healthy-a", parse_statement("begin l := 1; l2 := l end")),
        ("kaboom", parse_statement("kaboom := 1")),
        ("healthy-b", parse_statement("begin m := 2; m2 := m end")),
    ]


def test_worker_crash_is_isolated_and_abandoned(monkeypatch):
    import os

    from repro.pipeline import runner
    from tests.pipeline.faults import inject_fault

    def die_on_poison(payload):
        if "kaboom" in payload[0]:
            os._exit(13)

    inject_fault(monkeypatch, die_on_poison)
    result = run_pipeline(
        _poison_corpus(), analyses=("cert",), jobs=2, use_cache=False
    )
    data = result.program("kaboom")["analyses"]["cert"]
    assert data["error_type"] == "WorkerCrash"
    assert f"died {runner.MAX_TASK_ATTEMPTS} time(s)" in data["error"]
    # the poison program must not take the healthy ones down with it
    assert result.program("healthy-a")["analyses"]["cert"]["certified"] is True
    assert result.program("healthy-b")["analyses"]["cert"]["certified"] is True
    workers = result.metrics["workers"]
    assert workers["crashes"] >= 1
    assert workers["abandoned"] == 1
    assert ("kaboom", "cert") in {(n, a) for n, a, _ in result.errors()}


def test_an_abandoned_cell_is_not_counted_as_computed(monkeypatch):
    import os

    from tests.pipeline.faults import inject_fault

    def die_on_poison(payload):
        if "kaboom" in payload[0]:
            os._exit(13)

    inject_fault(monkeypatch, die_on_poison)
    result = run_pipeline(
        _poison_corpus(), analyses=("cert",), jobs=2, use_cache=False
    )
    assert result.metrics["workers"]["abandoned"] == 1
    run = result.metrics["run"]
    # three cells, none cached: the two healthy ones computed, the
    # poison one never finished anywhere
    assert (run["tasks"], run["cached"], run["computed"]) == (3, 0, 2)


def test_transient_worker_crash_is_retried_to_success(tmp_path, monkeypatch):
    import os

    from tests.pipeline.faults import inject_fault

    tombstone = tmp_path / "crashed-once"

    def die_once(payload):
        if "kaboom" in payload[0] and not tombstone.exists():
            tombstone.write_text("")
            os._exit(13)

    inject_fault(monkeypatch, die_once)
    result = run_pipeline(
        _poison_corpus(), analyses=("cert",), jobs=2, use_cache=False
    )
    assert result.errors() == []  # the retry recovered the task
    assert result.program("kaboom")["analyses"]["cert"]["certified"] is True
    workers = result.metrics["workers"]
    assert workers["crashes"] >= 1
    assert workers["retries"] >= 1
    assert workers["abandoned"] == 0
    assert workers["pools"] >= 2  # the broken pool was rebuilt


def test_worker_crash_records_are_not_cached(monkeypatch):
    import os

    from tests.pipeline.faults import inject_fault

    def die_on_poison(payload):
        if "kaboom" in payload[0]:
            os._exit(13)

    inject_fault(monkeypatch, die_on_poison)
    import tempfile

    with tempfile.TemporaryDirectory() as cache_dir:
        first = run_pipeline(
            _poison_corpus(), analyses=("cert",), jobs=2, cache_dir=cache_dir
        )
        assert first.program("kaboom")["analyses"]["cert"]["error_type"] == (
            "WorkerCrash"
        )
        inject_fault(monkeypatch, None)
        second = run_pipeline(
            _poison_corpus(), analyses=("cert",), jobs=2, cache_dir=cache_dir
        )
        # environment trouble is not a property of the program: with the
        # fault gone the task recomputes cleanly instead of replaying
        # the crash record from the cache.
        assert second.errors() == []
        assert second.program("kaboom")["analyses"]["cert"]["certified"] is True


def test_cli_batch_high_and_scheme_knobs(tmp_path, capsys):
    program = tmp_path / "p.rl"
    program.write_text("var a, b : integer; b := a")
    # default policy: a and b are both low -> certified
    assert main(["batch", str(program), "--analyses", "cert", "--no-cache"]) == 0
    assert "cert=ok" in capsys.readouterr().out
    # bind a above b -> rejected
    assert main(
        ["batch", str(program), "--analyses", "cert", "--no-cache",
         "--high", "a"]
    ) == 0
    assert "cert=REJECT" in capsys.readouterr().out


# -- per-task budgets (regressions: shared config dicts, full-deadline
#    retries) ----------------------------------------------------------------


def test_reprice_deadline_charges_elapsed_wall_clock():
    from repro.pipeline.runner import _reprice_deadline

    no_deadline = {"deadline": None}
    assert _reprice_deadline(no_deadline, 0.0, 99.0) is no_deadline
    repriced = _reprice_deadline({"deadline": 5.0}, 100.0, 102.0)
    assert repriced["deadline"] == pytest.approx(3.0)
    # clamped at zero: a zero deadline degrades immediately, on time
    spent = _reprice_deadline({"deadline": 1.0}, 100.0, 200.0)
    assert spent["deadline"] == 0.0


def test_each_task_gets_an_independent_config(monkeypatch):
    """One task mutating its config (e.g. consuming a budget) must
    never shorten a sibling's grant: every payload carries its own
    dict, each holding the caller's full original deadline."""
    from repro.pipeline import runner

    arrivals = []
    real_compute = runner._compute

    def spy(payload):
        arrivals.append((id(payload[3]), payload[3]["deadline"]))
        payload[3]["deadline"] = 0.0  # simulate a task spending its grant
        return real_compute(payload)

    monkeypatch.setattr(runner, "_compute", spy)
    result = run_pipeline(
        litmus_corpus()[:3],
        analyses=("cert",),
        use_cache=False,
        config={"deadline": 30.0},
    )
    assert not result.errors()
    assert len(arrivals) == 3
    assert len({ident for ident, _ in arrivals}) == 3  # three distinct dicts
    assert [deadline for _, deadline in arrivals] == [30.0, 30.0, 30.0]


def test_retry_after_crash_gets_remaining_deadline_not_original(
    tmp_path, monkeypatch
):
    """A crash-retried task is charged the wall clock it already spent:
    the retry's deadline must be strictly below the original grant."""
    import json as json_mod
    import os
    import time

    from tests.pipeline.faults import inject_fault

    log = tmp_path / "deadlines.jsonl"
    tombstone = tmp_path / "crashed-once"

    def record_and_die_once(payload):
        if "kaboom" in payload[0]:
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(json_mod.dumps(payload[3]["deadline"]) + "\n")
            if not tombstone.exists():
                tombstone.write_text("")
                time.sleep(0.2)  # burn wall clock against the grant
                os._exit(13)

    inject_fault(monkeypatch, record_and_die_once)
    result = run_pipeline(
        _poison_corpus(),
        analyses=("cert",),
        jobs=2,
        use_cache=False,
        config={"deadline": 30.0},
    )
    assert result.program("kaboom")["analyses"]["cert"]["certified"] is True
    deadlines = [
        json_mod.loads(line) for line in log.read_text().splitlines()
    ]
    assert len(deadlines) >= 2  # first attempt + at least one retry
    assert deadlines[0] == pytest.approx(30.0)
    assert all(d < 30.0 - 0.1 for d in deadlines[1:])


# -- the run span in the metrics document (regression: emitted after
#    to_dict assembled the document, so it never appeared) ------------------


def test_run_span_lands_in_the_metrics_document():
    result = run_pipeline(
        litmus_corpus()[:2], analyses=("cert",), use_cache=False
    )
    spans = [s for s in result.metrics["spans"] if s["name"] == "run"]
    assert len(spans) == 1
    span = spans[0]
    assert span["jobs"] == 1
    assert span["tasks"] == 2
    assert isinstance(span["seconds"], float)


# -- pool lifetime (regression: close() left the executor shutting down
#    in the background, so its manager thread outlived the run) ----------


@pytest.mark.parametrize("entry", ["run_pipeline", "run_fuzz"])
def test_a_run_owned_pool_is_joined_before_the_run_returns(entry):
    import threading
    from concurrent.futures.process import _ExecutorManagerThread

    from repro.fuzz import run_fuzz

    def managers():
        return {
            thread for thread in threading.enumerate()
            if isinstance(thread, _ExecutorManagerThread)
        }

    before = managers()
    if entry == "run_pipeline":
        run_pipeline(
            litmus_corpus()[:2], analyses=("cert",), jobs=2, use_cache=False
        )
    else:
        run_fuzz(seeds=2, oracles=("cert-equiv",), jobs=2)
    assert managers() - before == set()

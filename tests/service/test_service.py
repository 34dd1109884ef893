"""AnalysisService contract tests (in-process, no sockets).

The service's one promise: it is a cache and a pool in front of
``run_pipeline``, never a different pipeline — responses are
byte-identical to ``repro batch --json``, warm hits skip the pool,
concurrent requests share one pool and one cache, and deadlines
degrade instead of erroring.
"""

import json
import threading

import pytest

from repro.observe.metrics import validate_metrics
from repro.pipeline import run_pipeline
from repro.service import AnalysisService
from repro.workloads.paper import FIGURE3_SOURCE, figure3_program
from tests.lang.nesting import SHAPES, nested_program

#: Unbounded state space: explore only ever stops on a budget.
DIVERGENT = "begin x := 0; while 0 = 0 do x := x + 1 end"


def request_body(**overrides) -> bytes:
    payload = {"program": FIGURE3_SOURCE, "name": "figure3.rl"}
    payload.update(overrides)
    return json.dumps(payload).encode("utf-8")


def test_response_is_byte_identical_to_the_batch_document(tmp_path):
    svc = AnalysisService(jobs=1, cache_dir=str(tmp_path / "cache"))
    raw = request_body(analyses=["cert", "explore"])
    status, body = svc.analyze_json(raw)
    assert status == 200
    expected = run_pipeline(
        [("figure3.rl", figure3_program())],
        analyses=("cert", "explore"),
        use_cache=False,
    )
    assert body == (expected.to_json() + "\n").encode("utf-8")
    # a warm (memory-tier) hit must serve the very same bytes
    status2, body2 = svc.analyze_json(raw)
    assert (status2, body2) == (200, body)
    assert svc.cache.lru.hits >= 2


def test_an_integer_deadline_is_served_as_batch_prints_it(tmp_path, capsys):
    """A served ``"deadline": 2`` and ``repro batch --deadline 2`` are
    one setting: the config echo reads 2.0 in both documents."""
    from repro.cli import main

    path = tmp_path / "figure3.rl"
    path.write_text(FIGURE3_SOURCE)
    assert main(
        ["batch", str(path), "--analyses", "cert,explore", "--no-cache",
         "--deadline", "2", "--json"]
    ) == 0
    batch = capsys.readouterr().out.encode("utf-8")
    svc = AnalysisService(jobs=1, cache_dir=None, lru_capacity=0)
    status, body = svc.analyze_json(
        request_body(analyses=["cert", "explore"], config={"deadline": 2})
    )
    assert status == 200
    assert body == batch
    assert json.loads(body)["config"]["deadline"] == 2.0


def test_warm_lru_hit_never_touches_the_pool(tmp_path):
    svc = AnalysisService(jobs=2, cache_dir=str(tmp_path / "cache"))
    try:
        raw = request_body(analyses=["cert", "lint"])
        status, body = svc.analyze_json(raw)
        assert status == 200
        def submitted():
            return svc.metrics_document()["service"]["pool"]["submitted"]

        cold_submitted = submitted()
        assert cold_submitted >= 1  # the cold request did use the pool
        status2, body2 = svc.analyze_json(raw)
        assert (status2, body2) == (200, body)
        # zero new pool submissions: the hit was served from memory
        assert submitted() == cold_submitted
        assert svc.cache.lru.hits >= 2
    finally:
        svc.close()


def test_concurrent_cold_requests_share_one_pool_and_one_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    svc = AnalysisService(jobs=2, cache_dir=str(cache_dir))
    raw = request_body(analyses=["cert", "lint"])
    expected = run_pipeline(
        [("figure3.rl", figure3_program())],
        analyses=("cert", "lint"),
        use_cache=False,
    )
    start = threading.Barrier(4)
    outcomes = []

    def send():
        start.wait(timeout=30)
        outcomes.append(svc.analyze_json(raw))

    threads = [threading.Thread(target=send) for _ in range(4)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        svc.close()
    body = (expected.to_json() + "\n").encode("utf-8")
    assert outcomes == [(200, body)] * 4
    # one entry per (program, analysis) cell, and no stranded temp file
    files = sorted(p.name for p in cache_dir.rglob("*") if p.is_file())
    assert len(files) == 2
    assert all(name.endswith(".json") for name in files)
    assert (svc.in_flight, svc.waiting) == (0, 0)
    assert svc.admission["aborted"] == 0


def test_deadline_degrades_the_result_never_500s(tmp_path):
    svc = AnalysisService(jobs=1, cache_dir=str(tmp_path / "cache"))
    status, body = svc.analyze_json(request_body(
        program=DIVERGENT,
        name="spin",
        kind="statement",
        analyses=["explore"],
        config={"deadline": 0.1, "max_states": 10**8, "max_depth": 10**8},
    ))
    assert status == 200
    data = json.loads(body)["programs"][0]["analyses"]["explore"]
    assert data["degraded"] is True
    assert data["limit"] == "deadline"
    # a budget-truncated partial result must never enter the cache
    assert svc.observer.skipped_degraded >= 1
    assert svc.metrics_document()["cache"]["writes"] == 0


def test_default_deadline_applies_when_the_request_sets_none():
    svc = AnalysisService(jobs=1, cache_dir=None, lru_capacity=0,
                          default_deadline=0.1)
    status, body = svc.analyze_json(request_body(
        program=DIVERGENT, name="spin", kind="statement",
        analyses=["explore"],
        config={"max_states": 10**8, "max_depth": 10**8},
    ))
    assert status == 200
    document = json.loads(body)
    assert document["config"]["deadline"] == 0.1
    assert document["programs"][0]["analyses"]["explore"]["degraded"] is True


@pytest.mark.parametrize("raw,fragment", [
    (b"{not json", "not valid JSON"),
    (b"[1, 2]", "JSON object"),
    (b"{}", "'program'"),
    (json.dumps({"program": "x := 1", "programs": []}).encode(), "not both"),
    (json.dumps({"programs": []}).encode(), "non-empty"),
    (json.dumps({"program": "x := 1", "kind": "poem"}).encode(), "kind"),
    (json.dumps({"program": "x := 1", "analyses": "cert"}).encode(), "array"),
    # each of these three used to escape into run_pipeline as a 500
    (json.dumps({"program": "x := 1", "kind": "statement",
                 "analyses": []}).encode(), "'analyses' must name"),
    (json.dumps({"programs": [
        {"name": "a.rl", "program": "x := 1", "kind": "statement"},
        {"name": "a.rl", "program": "y := 1", "kind": "statement"},
    ]}).encode(), "programs[1].name 'a.rl'"),
    # an unnamed programs[1] defaults to program-1, which is taken
    (json.dumps({"programs": [
        {"name": "program-1", "program": "x := 1", "kind": "statement"},
        {"program": "y := 1", "kind": "statement"},
    ]}).encode(), "programs[1].name 'program-1'"),
    (json.dumps({"program": "x := 1", "bogus": 1}).encode(), "unknown request field"),
    (json.dumps({"program": "x := 1", "config": []}).encode(), "object"),
    (json.dumps({"program": "x := 1", "deadline": 1.0,
                 "config": {"deadline": 2.0}}).encode(), "once"),
    (json.dumps({"program": "x := := 1"}).encode(), "parse error"),
    (json.dumps({"program": "x := 1", "kind": "statement",
                 "analyses": ["nope"]}).encode(), "unknown analysis"),
    (json.dumps({"program": "x := 1", "kind": "statement",
                 "config": {"typo": 1}}).encode(), "unknown config key"),
    # ill-typed config values: each one used to come back 200, either
    # under a silently different policy or with a per-cell error record
    (json.dumps({"program": "var h2, y : integer; y := h2",
                 "config": {"high": "h2"}}).encode(), "'high' must be"),
    (json.dumps({"program": "var h2, y : integer; y := h2",
                 "config": {"high": [1]}}).encode(), "'high' must be"),
    (json.dumps({"program": "x := 1", "kind": "statement",
                 "config": {"por": "no"}}).encode(), "'por' must be"),
    (json.dumps({"program": "x := 1", "kind": "statement",
                 "config": {"scheme": "bogus"}}).encode(), "'scheme' must be"),
    (json.dumps({"program": "x := 1", "kind": "statement",
                 "config": {"on_concurrency": "maybe"}}).encode(),
     "'on_concurrency' must be"),
    (json.dumps({"program": "x := 1", "kind": "statement",
                 "config": {"max_states": "abc"}}).encode(),
     "'max_states' must be"),
    (json.dumps({"program": "x := 1", "kind": "statement",
                 "config": {"max_depth": True}}).encode(),
     "'max_depth' must be"),
    (json.dumps({"program": "x := 1", "kind": "statement",
                 "config": {"deadline": "soon"}}).encode(),
     "'deadline' must be"),
    (json.dumps({"program": "x := 1", "kind": "statement",
                 "deadline": "soon"}).encode(), "'deadline' must be"),
    (json.dumps({"program": "x := 1", "kind": "statement",
                 "config": {"fastpath": "yes"}}).encode(),
     "'fastpath' must be"),
    # 10,000 levels deep: refused by the parser's nesting bound, with a
    # position, instead of overflowing the stack in a parse or a pretty
    *[
        (json.dumps({"program": nested_program(shape, 10_000)}).encode(),
         "nesting deeper than")
        for shape in SHAPES
    ],
])
def test_malformed_requests_are_clean_400s(raw, fragment):
    svc = AnalysisService(jobs=1, cache_dir=None, lru_capacity=0)
    status, body = svc.analyze_json(raw)
    assert status == 400
    document = json.loads(body)
    assert fragment in document["error"]
    assert svc.rejected == 1


def test_undeclared_variable_in_a_program_is_a_400():
    svc = AnalysisService(jobs=1, cache_dir=None, lru_capacity=0)
    status, body = svc.analyze_json(request_body(program="begin l := 1 end"))
    assert status == 400
    assert "declared" in json.loads(body)["error"]


def test_metrics_document_is_valid_and_cumulative(tmp_path):
    svc = AnalysisService(jobs=1, cache_dir=str(tmp_path / "cache"))
    raw = request_body(analyses=["cert", "lint"])
    svc.analyze_json(raw)
    svc.analyze_json(raw)
    document = svc.metrics_document()
    assert validate_metrics(document) == []
    service = document["service"]
    assert service["requests"] == 2
    assert service["in_flight"] == 0
    assert service["coalesced"] == 0
    assert service["lru_hits"] >= 2
    assert "pool" not in service  # jobs=1 runs in-process
    # both requests' cells accumulated in one document
    assert document["run"]["tasks"] == 4
    assert document["run"]["cached"] == 2


def test_metrics_items_are_listed_in_the_order_requests_finished():
    svc = AnalysisService(jobs=1, cache_dir=None, lru_capacity=0)
    for name in ("b.rl", "a.rl"):
        status, _ = svc.analyze_json(
            request_body(name=name, analyses=["lint", "cert"])
        )
        assert status == 200
    items = svc.metrics_document()["items"]
    assert [(e["program"], e["analysis"]) for e in items] == [
        ("b.rl", "cert"), ("b.rl", "lint"), ("a.rl", "cert"), ("a.rl", "lint")
    ]


def test_a_repeated_analysis_is_served_once():
    svc = AnalysisService(jobs=1, cache_dir=None, lru_capacity=0)
    status, twice = svc.analyze_json(request_body(analyses=["cert", "cert"]))
    assert status == 200
    status, once = svc.analyze_json(request_body(analyses=["cert"]))
    assert (status, twice) == (200, once)
    assert svc.metrics_document()["run"]["tasks"] == 2


def _tamper(value):
    """Mutate every container in ``value`` in place."""
    if isinstance(value, dict):
        for inner in list(value.values()):
            _tamper(inner)
        value["tampered"] = True
    elif isinstance(value, list):
        for inner in value:
            _tamper(inner)
        value.append("tampered")


def test_mutating_a_served_run_leaves_later_responses_unchanged(monkeypatch):
    """The memory tier keeps each cell as text and decodes a fresh
    object per hit: mutating a served run's ``programs``, cold or warm,
    cannot change a later response."""
    from repro.service import app as app_module

    runs = []

    def recording(*args, **kwargs):
        runs.append(run_pipeline(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(app_module, "run_pipeline", recording)
    svc = AnalysisService(jobs=1, cache_dir=None)
    raw = request_body(analyses=["cert", "lint"])
    status, first = svc.analyze_json(raw)
    assert status == 200
    for _ in range(2):
        _tamper(runs[-1].programs)
        assert svc.analyze_json(raw) == (200, first)
    assert svc.cache.lru.hits == 4


def test_a_cold_request_renders_each_cell_once(monkeypatch):
    """The memory tier renders a computed cell for itself and the
    response reuses that text; a warm request renders no cell."""
    from repro.pipeline import cache as cache_module
    from repro.pipeline import runner as runner_module

    rendered = []
    render_json = cache_module.render_json

    def counting(value):
        rendered.append(value)
        return render_json(value)

    monkeypatch.setattr(cache_module, "render_json", counting)
    monkeypatch.setattr(runner_module, "render_json", counting)
    svc = AnalysisService(jobs=1, cache_dir=None)
    raw = request_body(analyses=["cert", "lint"])
    status, cold = svc.analyze_json(raw)
    assert status == 200
    cells = list(json.loads(cold)["programs"][0]["analyses"].values())
    assert [sum(value == cell for value in rendered) for cell in cells] == [1, 1]
    rendered.clear()
    assert svc.analyze_json(raw) == (200, cold)
    assert not [value for value in rendered if value in cells]


def test_metrics_report_the_memory_tier_text_bytes(tmp_path):
    """``service.lru.text_bytes`` sums the rendered cells the tier holds."""
    from repro.pipeline.cache import render_json

    svc = AnalysisService(jobs=1, cache_dir=str(tmp_path / "cache"))
    raw = request_body(analyses=["cert", "lint"])
    status, body = svc.analyze_json(raw)
    assert svc.analyze_json(raw) == (200, body)
    cells = json.loads(body)["programs"][0]["analyses"].values()
    lru = svc.metrics_document()["service"]["lru"]
    assert lru["hits"] == 2
    assert lru["text_bytes"] == sum(len(render_json(cell)) for cell in cells)


def test_health_document_reflects_draining():
    svc = AnalysisService(jobs=1, cache_dir=None, lru_capacity=0)
    status, document = svc.health_document()
    assert (status, document["status"]) == (200, "ok")
    svc.begin_drain()
    status, document = svc.health_document()
    assert (status, document["status"]) == (503, "draining")


def test_corpus_requests_accept_many_programs():
    svc = AnalysisService(jobs=1, cache_dir=None, lru_capacity=0)
    status, body = svc.analyze_json(json.dumps({
        "programs": [
            {"name": "b.rl", "program": "l := 1", "kind": "statement"},
            {"name": "a.rl", "program": "l2 := 2", "kind": "statement"},
        ],
        "analyses": ["cert"],
    }).encode("utf-8"))
    assert status == 200
    names = [p["name"] for p in json.loads(body)["programs"]]
    assert names == ["a.rl", "b.rl"]  # document order is sorted, as in batch


def test_cli_serve_flags_parse():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--port", "0", "--jobs", "3", "--no-cache",
         "--lru-size", "7", "--deadline", "1.5", "--quiet"]
    )
    assert args.command == "serve"
    assert (args.port, args.jobs, args.lru_size) == (0, 3, 7)
    assert args.no_cache and args.quiet
    assert args.deadline == 1.5

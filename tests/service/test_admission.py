"""The serve front-line: admission control, tenants, the one path, 500s.

In-process tests of :class:`repro.service.AnalysisService` covering
the layer in front of the pipeline: the bounded admission gauge
(429 + ``Retry-After``), per-tenant token buckets, concurrent
requests each running the pipeline, and the client-error/server-error
split (unknown names are 400s decided before the pipeline; anything
escaping the pipeline is a 500).
"""

import json
import threading

import pytest

from repro.service import AnalysisService
from repro.service import app as app_module

TINY = {"program": "l := 1", "kind": "statement", "name": "tiny",
        "analyses": ["cert"]}


def body(**overrides) -> bytes:
    payload = dict(TINY)
    payload.update(overrides)
    return json.dumps(payload).encode("utf-8")


class _GatedPipeline:
    """A ``run_pipeline`` stand-in that blocks until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        self.entered.set()
        assert self.release.wait(timeout=30)

        class _Result:
            def to_json(self):
                return "{}"

        return _Result()


def test_over_capacity_requests_get_429_with_retry_after(monkeypatch):
    gate = _GatedPipeline()
    monkeypatch.setattr(app_module, "run_pipeline", gate)
    svc = AnalysisService(jobs=1, cache_dir=None, lru_capacity=0,
                          max_queue=1)

    outcome = {}
    leader = threading.Thread(
        target=lambda: outcome.update(leader=svc.analyze_request(body()))
    )
    leader.start()
    try:
        assert gate.entered.wait(timeout=30)
        # capacity 1 is fully held by the leader: a *different* request
        # must be refused immediately, cheaply, with a retry hint —
        # never queued on a thread.
        status, payload, headers = svc.analyze_request(
            body(name="other", program="l2 := 1")
        )
        assert status == 429
        assert headers["Retry-After"] == str(app_module.RETRY_AFTER_BUSY)
        assert b"capacity" in payload
        assert svc.admission["rejected_busy"] == 1
        assert svc.admission["admitted"] == 1
        assert gate.calls == 1  # the rejected request never ran anything
    finally:
        gate.release.set()
        leader.join(timeout=30)
    assert outcome["leader"][0] == 200
    # gauges return to rest
    assert (svc.in_flight, svc.waiting) == (0, 0)


def test_per_tenant_rate_limits_are_independent_buckets():
    svc = AnalysisService(jobs=1, cache_dir=None, lru_capacity=0,
                          tenant_rps=0.01, tenant_burst=1)
    status, _, _ = svc.analyze_request(body(), tenant="alpha")
    assert status == 200
    # alpha's single-token bucket is empty for the next ~100 seconds
    status, payload, headers = svc.analyze_request(body(), tenant="alpha")
    assert status == 429
    assert b"rate limit" in payload
    assert int(headers["Retry-After"]) >= 1
    # a different tenant has its own full bucket
    status, _, _ = svc.analyze_request(body(), tenant="beta")
    assert status == 200
    assert svc.tenants["alpha"] == {"requests": 2, "rate_limited": 1}
    assert svc.tenants["beta"] == {"requests": 1, "rate_limited": 0}
    assert svc.admission["rate_limited"] == 1


def test_tenant_registry_is_bounded(monkeypatch):
    monkeypatch.setattr(app_module, "MAX_TENANTS", 3)
    svc = AnalysisService(jobs=1, cache_dir=None, lru_capacity=0)
    for i in range(5):
        status, _, _ = svc.analyze_request(body(), tenant=f"t{i}")
        assert status == 200
    # 3 tracked names plus the overflow bucket holding the rest
    assert len(svc.tenants) == 4
    assert svc.tenants[app_module.OVERFLOW_TENANT]["requests"] == 2


def test_internal_pipeline_error_is_a_500_not_a_400(monkeypatch):
    def explode(*args, **kwargs):
        raise ValueError("a ValueError from deep inside an analysis")

    monkeypatch.setattr(app_module, "run_pipeline", explode)
    svc = AnalysisService(jobs=1, cache_dir=None, lru_capacity=0)
    status, payload = svc.analyze_json(body())
    assert status == 500
    assert json.loads(payload) == {"error": "internal service error",
                                   "status": 500}
    assert svc.admission["aborted"] == 1
    # the gauges survived the failure path
    assert (svc.in_flight, svc.waiting) == (0, 0)


def test_internal_validation_error_is_a_500_not_a_dropped_request(monkeypatch):
    def explode(program):
        raise RuntimeError("a bug inside the validator")

    monkeypatch.setattr(app_module, "validate_program", explode)
    svc = AnalysisService(jobs=1, cache_dir=None, lru_capacity=0)
    status, payload = svc.analyze_json(
        body(program="var l : integer; l := 1", kind="program")
    )
    assert status == 500
    assert json.loads(payload) == {"error": "internal service error",
                                   "status": 500}
    assert svc.admission["aborted"] == 1
    assert svc.rejected == 0
    assert (svc.in_flight, svc.waiting) == (0, 0)


def test_unknown_names_are_400s_decided_before_the_pipeline(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("pipeline reached for an invalid request")

    monkeypatch.setattr(app_module, "run_pipeline", must_not_run)
    svc = AnalysisService(jobs=1, cache_dir=None, lru_capacity=0)

    status, payload = svc.analyze_json(body(analyses=["nope"]))
    assert status == 400
    assert b"unknown analysis" in payload

    status, payload = svc.analyze_json(body(config={"bogus": 1}))
    assert status == 400
    assert b"unknown config key" in payload

    assert svc.rejected == 2
    assert svc.admission["aborted"] == 0


def test_concurrent_identical_requests_each_run_the_pipeline(monkeypatch):
    gate = _GatedPipeline()
    both_inside = threading.Barrier(2)

    def pipeline(*args, **kwargs):
        # passes only once both requests are inside the pipeline at once
        both_inside.wait(timeout=30)
        return gate(*args, **kwargs)

    monkeypatch.setattr(app_module, "run_pipeline", pipeline)
    svc = AnalysisService(jobs=1, cache_dir=None, lru_capacity=0)

    results = []
    threads = [
        threading.Thread(target=lambda: results.append(svc.analyze_json(body())))
        for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    try:
        assert gate.entered.wait(timeout=30)
        status, health = svc.health_document()
        assert status == 200
        assert (health["in_flight"], health["waiting"]) == (2, 0)
    finally:
        gate.release.set()
        for thread in threads:
            thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [(200, b"{}\n"), (200, b"{}\n")]
    assert (svc.in_flight, svc.waiting) == (0, 0)


def test_bad_front_line_parameters_are_rejected():
    with pytest.raises(ValueError):
        AnalysisService(jobs=2, max_queue=0)
    with pytest.raises(ValueError):
        AnalysisService(jobs=2, tenant_rps=0.0)


@pytest.mark.parametrize("removed", ["shards", "chunk_size", "default_config"])
def test_removed_constructor_arguments_are_type_errors(removed):
    with pytest.raises(TypeError, match=removed):
        AnalysisService(jobs=1, cache_dir=None, **{removed: 2})

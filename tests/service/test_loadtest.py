"""The ``repro loadtest`` driver: one tiny real campaign plus wiring.

The driver spawns an actual ``repro serve`` subprocess, so one short
end-to-end run covers the whole chain: spawn, identity oracle, steady
closed loop, overload, metrics validation, SIGTERM drain.
"""

from repro.cli import build_parser
from repro.service.loadtest import (
    LoadtestOptions,
    _overload_body,
    _percentiles,
    run_loadtest,
)


def test_tiny_campaign_end_to_end():
    options = LoadtestOptions(
        duration=1.0,
        clients=2,
        jobs=2,
        max_queue=3,
        overload_clients=6,
        overload_seconds=1.0,
        smoke=True,
    )
    payload = run_loadtest(options)

    assert payload["identity"]["documents"] == 4
    assert payload["identity"]["invalid_documents"] == 0
    steady = payload["loadtest"]
    assert steady["requests"] > 0
    assert steady["network_errors"] == 0
    assert steady["statuses"].get("200", 0) > 0
    assert steady["latency_ms"]["p50"] is not None
    assert payload["metrics_valid"], payload["metrics_problems"]
    assert payload["clean_exit"]
    service = payload["service"]
    assert service["admission"]["admitted"] > 0
    # all four steady tenants plus the overload tenant were accounted
    assert set(service["tenants"]) >= {"alpha", "beta", "gamma",
                                       "default", "storm"}
    # 6 closed-loop clients against 3 admission slots of ~0.4s unique
    # work: admission control must have refused at least once
    assert payload["overload"]["rejected_busy_429"] > 0
    healthz = payload["overload"]["healthz"]
    assert healthz["probes"] > 0 and healthz["ok"] == healthz["probes"]


def test_overload_bodies_are_unique_and_deadline_bound():
    import json

    first = json.loads(_overload_body(1))
    second = json.loads(_overload_body(2))
    assert first["program"] != second["program"]
    assert first["config"]["deadline"] < 1.0
    # budgets are sized so the deadline is the binding limit
    assert first["config"]["max_states"] >= 10**6


def test_percentiles_are_ordered_and_empty_safe():
    empty = _percentiles([])
    assert empty == {"p50": None, "p95": None, "p99": None, "max": None,
                     "samples": 0}
    stats = _percentiles([i / 1000.0 for i in range(1, 101)])
    assert stats["samples"] == 100
    assert stats["p50"] <= stats["p95"] <= stats["p99"] <= stats["max"]
    assert stats["max"] == 100.0  # 0.1 s -> 100 ms


def test_cli_wires_loadtest_and_serve_front_line_flags():
    parser = build_parser()
    args = parser.parse_args([
        "serve", "--max-queue", "9",
        "--tenant-rps", "2.5", "--tenant-burst", "5",
    ])
    assert args.max_queue == 9
    assert (args.tenant_rps, args.tenant_burst) == (2.5, 5.0)

    args = parser.parse_args(["loadtest", "--smoke", "--out", "x.json"])
    assert args.command == "loadtest"
    assert args.smoke and args.out == "x.json"
    assert args.duration == 10.0 and args.overload_clients == 32


def test_full_mode_gates_set_the_exit_status(monkeypatch, capsys, tmp_path):
    """Without ``--smoke``, a campaign that drew no 429, lost a
    ``/healthz`` probe under overload or sustained under 10 requests
    per second fails; with ``--smoke`` only the correctness gates
    count."""
    from repro.cli import main
    from repro.service import loadtest

    def canned(rejected, probes_ok, rps):
        return {
            "identity": {"invalid_documents": 0},
            "loadtest": {"network_errors": 0, "rps_sustained": rps},
            "metrics_valid": True,
            "clean_exit": True,
            "overload": {
                "rejected_busy_429": rejected,
                "healthz": {"probes": 4, "ok": probes_ok},
            },
        }

    payload = canned(rejected=0, probes_ok=3, rps=3.5)
    monkeypatch.setattr(loadtest, "run_loadtest", lambda options: payload)
    assert main(["loadtest"]) == 1
    err = capsys.readouterr().err
    assert "FAIL: the overload phase drew no 429" in err
    assert "FAIL: 3 of 4 /healthz probes answered 200 under overload" in err
    assert "FAIL: the steady phase sustained 3.5 requests/s, below 10" in err
    assert main(["loadtest", "--smoke"]) == 0
    assert capsys.readouterr().err == ""

    payload = canned(rejected=7, probes_ok=4, rps=10.0)
    assert main(["loadtest"]) == 0
    assert capsys.readouterr().err == ""

    out = tmp_path / "no-such-dir" / "report.json"
    assert main(["loadtest", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

"""Closed-loop load driver for ``repro serve`` (``repro loadtest``).

The driver spawns a real ``repro serve`` subprocess, then exercises it
the way a fleet of clients would — stdlib only (threads +
:mod:`http.client`), so the harness runs anywhere the service does.
Four phases:

1. **identity** — every distinct corpus request is computed in-driver
   with :func:`repro.pipeline.run_pipeline` and the server's response
   must be byte-identical; any divergence is an ``invalid_documents``
   count (the service's core contract, now checked over a real socket).
2. **steady** — ``clients`` closed-loop threads drive the mixed corpus
   for ``duration`` seconds under round-robin tenants, recording
   per-request latency and status; sustained RPS and p50/p95/p99 come
   from here.
3. **overload** — ``overload_clients`` threads hammer *unique*
   divergent programs (defeating both cache tiers) so admission
   control must refuse; the loadtest counts the 429s and polls
   ``/healthz`` throughout to prove the health plane stays responsive.
4. **teardown** — ``/metrics`` is fetched and schema-validated, then
   SIGTERM; a clean drain-and-exit is part of the report.

``make bench-serve`` writes the full-mode report to
``BENCH_serve.json`` (``repro loadtest --out``); every number in it is
produced by this module against a live server — nothing is hand-written.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
from repro.lang.parser import parse_subject
from repro.observe import validate_metrics
from repro.pipeline import run_pipeline

#: How long (seconds) the driver waits for the spawned server's port
#: announcement before giving up.
STARTUP_TIMEOUT = 60.0

#: Per-request socket timeout (seconds).  Generous: an overloaded
#: closed-loop request legitimately waits for a worker slot.
REQUEST_TIMEOUT = 120.0

#: The announcement line printed by ``repro serve`` once it is bound
#: and warm.
_ANNOUNCE = re.compile(r"listening on http://([\d.]+):(\d+)")

#: The steady-phase corpus: a small mixed bag — the paper's Figure 3
#: program under two analysis sets plus two cheap statements — chosen
#: so both cache tiers and the pool see traffic.
STEADY_CORPUS: Tuple[Dict[str, object], ...] = (
    {
        "name": "figure3.rl",
        "kind": "program",
        "analyses": ["cert", "lint"],
        "config": {},
    },
    {
        "name": "figure3-explore.rl",
        "kind": "program",
        "analyses": ["cert", "explore"],
        "config": {"max_states": 2000, "max_depth": 200},
    },
    {
        "name": "straightline.rl",
        "kind": "statement",
        "program": "begin x := 1; y := x + 1 end",
        "analyses": ["cert", "lint"],
        "config": {},
    },
    {
        "name": "branching.rl",
        "kind": "statement",
        "program": "begin x := 0; if x = 0 then y := 1 else y := 2 end",
        "analyses": ["cert", "explore"],
        "config": {"max_states": 500, "max_depth": 100},
    },
)

#: Tenant names cycled through by the steady-phase clients.
STEADY_TENANTS: Tuple[str, ...] = ("alpha", "beta", "gamma", "default")


@dataclass
class LoadtestOptions:
    """Knobs for one :func:`run_loadtest` campaign (see ``repro
    loadtest --help`` for the CLI spellings)."""

    duration: float = 10.0
    clients: int = 8
    jobs: int = 2
    max_queue: int = 16
    tenant_rps: Optional[float] = None
    overload_clients: int = 32
    overload_seconds: float = 4.0
    smoke: bool = False
    host: str = "127.0.0.1"


def _steady_requests() -> List[Tuple[bytes, bytes]]:
    """The steady corpus as (request body, expected response) pairs.

    Expectations are computed in-driver by the very pipeline the
    service wraps — the byte-identity oracle the loadtest holds every
    200 response against.
    """
    from repro.workloads.paper import FIGURE3_SOURCE

    pairs = []
    for entry in STEADY_CORPUS:
        source = entry.get("program", FIGURE3_SOURCE)
        request = {
            "program": source,
            "name": entry["name"],
            "kind": entry["kind"],
            "analyses": entry["analyses"],
            "config": entry["config"],
        }
        subject = parse_subject(source, entry["kind"])
        expected = run_pipeline(
            [(entry["name"], subject)],
            analyses=tuple(entry["analyses"]),
            config=dict(entry["config"]),
            use_cache=False,
        )
        pairs.append(
            (
                json.dumps(request, sort_keys=True).encode("utf-8"),
                (expected.to_json() + "\n").encode("utf-8"),
            )
        )
    return pairs


def _overload_body(serial: int) -> bytes:
    """A unique, divergent, deadline-bound request.

    Unique variable names defeat both cache tiers, the
    unbounded loop with huge state/depth budgets makes the deadline
    the binding limit — every admitted request genuinely occupies a
    worker for ~``deadline`` seconds, which is what fills the
    admission gauge and forces 429s.
    """
    name = f"x{serial}"
    request = {
        "program": (
            f"begin {name} := 0; "
            f"while 0 = 0 do {name} := {name} + 1 end"
        ),
        "name": f"overload-{serial}.rl",
        "kind": "statement",
        "analyses": ["explore"],
        "config": {
            "deadline": 0.4,
            "max_states": 10**8,
            "max_depth": 10**8,
        },
    }
    return json.dumps(request, sort_keys=True).encode("utf-8")


def _request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    tenant: Optional[str] = None,
) -> Tuple[int, bytes]:
    """One HTTP round trip on a fresh connection; returns (status, body)."""
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"}
        if tenant is not None:
            headers["X-Repro-Tenant"] = tenant
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _percentiles(samples: List[float]) -> Dict[str, object]:
    """p50/p95/p99/max (milliseconds) of a latency sample list."""
    if not samples:
        return {"p50": None, "p95": None, "p99": None, "max": None,
                "samples": 0}
    ordered = sorted(samples)

    def at(q: float) -> float:
        index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return round(ordered[index] * 1000.0, 3)

    return {
        "p50": at(0.50),
        "p95": at(0.95),
        "p99": at(0.99),
        "max": round(ordered[-1] * 1000.0, 3),
        "samples": len(ordered),
    }


def _spawn_server(options: LoadtestOptions, cache_dir: str):
    """Start ``repro serve`` as a subprocess; returns (proc, port)."""
    command = [
        sys.executable, "-m", "repro", "serve",
        "--host", options.host,
        "--port", "0",
        "--jobs", str(options.jobs),
        "--max-queue", str(options.max_queue),
        "--cache-dir", cache_dir,
        "--quiet",
    ]
    if options.tenant_rps is not None:
        command += ["--tenant-rps", str(options.tenant_rps)]
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = package_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    deadline = time.monotonic() + STARTUP_TIMEOUT
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = _ANNOUNCE.search(line)
        if match:
            return proc, int(match.group(2))
    proc.kill()
    proc.wait()
    raise RuntimeError(
        f"server did not announce a port within {STARTUP_TIMEOUT}s "
        f"(last line: {line!r})"
    )


def run_loadtest(options: LoadtestOptions) -> Dict[str, object]:
    """Run the full campaign; returns the JSON-ready report.

    The report carries only measured values: identity counts, steady
    RPS + latency percentiles + status histogram, overload statuses and
    health-probe latencies, the server's own ``/metrics`` ``service``
    section, its schema-validation verdict, and whether SIGTERM
    produced a clean drain.
    """
    corpus = _steady_requests()
    cache_dir = tempfile.mkdtemp(prefix="repro-loadtest-")
    proc = None
    try:
        proc, port = _spawn_server(options, cache_dir)
        host = options.host

        # -- phase 1: identity -----------------------------------------
        identity_checked = 0
        invalid_documents = 0
        for body, expected in corpus:
            status, payload = _request(host, port, "POST", "/analyze", body)
            identity_checked += 1
            if status != 200 or payload != expected:
                invalid_documents += 1

        # -- phase 2: steady closed loop -------------------------------
        lock = threading.Lock()
        latencies: List[float] = []
        statuses: Dict[str, int] = {}
        network_errors = 0
        stop_at = time.monotonic() + options.duration

        def steady_client(offset: int) -> None:
            nonlocal invalid_documents, network_errors
            serial = offset
            while time.monotonic() < stop_at:
                body, expected = corpus[serial % len(corpus)]
                tenant = STEADY_TENANTS[serial % len(STEADY_TENANTS)]
                serial += 1
                started = time.monotonic()
                try:
                    status, payload = _request(
                        host, port, "POST", "/analyze", body, tenant=tenant
                    )
                except OSError:
                    with lock:
                        network_errors += 1
                    continue
                elapsed = time.monotonic() - started
                with lock:
                    latencies.append(elapsed)
                    statuses[str(status)] = statuses.get(str(status), 0) + 1
                    if status == 200 and payload != expected:
                        invalid_documents += 1

        steady_started = time.monotonic()
        threads = [
            threading.Thread(target=steady_client, args=(i,), daemon=True)
            for i in range(options.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        steady_elapsed = time.monotonic() - steady_started

        # -- phase 3: overload ------------------------------------------
        overload_statuses: Dict[str, int] = {}
        overload_errors = 0
        healthz_latencies: List[float] = []
        healthz_ok = 0
        healthz_probes = 0
        overload_stop = time.monotonic() + options.overload_seconds
        serial_lock = threading.Lock()
        serial_box = [0]

        def overload_client() -> None:
            nonlocal overload_errors
            while time.monotonic() < overload_stop:
                with serial_lock:
                    serial_box[0] += 1
                    serial = serial_box[0]
                try:
                    status, _payload = _request(
                        host, port, "POST", "/analyze",
                        _overload_body(serial), tenant="storm",
                    )
                except OSError:
                    with lock:
                        overload_errors += 1
                    continue
                with lock:
                    overload_statuses[str(status)] = (
                        overload_statuses.get(str(status), 0) + 1
                    )

        threads = [
            threading.Thread(target=overload_client, daemon=True)
            for _ in range(options.overload_clients)
        ]
        for thread in threads:
            thread.start()
        while time.monotonic() < overload_stop:
            started = time.monotonic()
            try:
                status, _payload = _request(host, port, "GET", "/healthz")
            except OSError:
                healthz_probes += 1
                time.sleep(0.1)
                continue
            healthz_latencies.append(time.monotonic() - started)
            healthz_probes += 1
            if status == 200:
                healthz_ok += 1
            time.sleep(0.1)
        for thread in threads:
            thread.join()

        # -- phase 4: metrics + drain -----------------------------------
        status, payload = _request(host, port, "GET", "/metrics")
        metrics = json.loads(payload.decode("utf-8")) if status == 200 else {}
        problems = validate_metrics(metrics) if metrics else ["no /metrics"]
        service_section = metrics.get("service", {})
        admission = service_section.get("admission", {})

        proc.send_signal(signal.SIGTERM)
        try:
            returncode = proc.wait(timeout=STARTUP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            returncode = proc.wait()
        clean_exit = returncode == 0

        return {
            "version": repro.__version__,
            "smoke": options.smoke,
            "jobs": options.jobs,
            "max_queue": options.max_queue,
            "identity": {
                "documents": identity_checked,
                "invalid_documents": invalid_documents,
            },
            "loadtest": {
                "clients": options.clients,
                "duration_seconds": round(steady_elapsed, 3),
                "requests": len(latencies),
                "rps_sustained": round(
                    len(latencies) / steady_elapsed, 2
                ) if steady_elapsed > 0 else 0.0,
                "latency_ms": _percentiles(latencies),
                "statuses": statuses,
                "network_errors": network_errors,
            },
            "overload": {
                "clients": options.overload_clients,
                "duration_seconds": options.overload_seconds,
                "statuses": overload_statuses,
                "rejected_busy_429": overload_statuses.get("429", 0),
                "errors": overload_errors,
                "healthz": {
                    "probes": healthz_probes,
                    "ok": healthz_ok,
                    "latency_ms": _percentiles(healthz_latencies),
                },
            },
            "service": service_section,
            "admission": admission,
            "metrics_valid": not problems,
            "metrics_problems": problems,
            "clean_exit": clean_exit,
        }
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(cache_dir, ignore_errors=True)

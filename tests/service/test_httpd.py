"""End-to-end HTTP tests: a real ``repro serve`` process, real sockets.

The drain test is the load-bearing one: SIGTERM must let an in-flight
request run to completion (its response arrives whole) and then exit 0.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.observe.metrics import validate_metrics

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Unbounded state space: explore only ever stops on a budget.
DIVERGENT = "begin x := 0; while 0 = 0 do x := x + 1 end"


def start_server(*extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--no-cache", "--quiet", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    announce = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", announce)
    assert match, f"no port announcement in {announce!r}"
    return proc, f"http://127.0.0.1:{match.group(1)}"


def get_json(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.load(response)


def post_analyze(base, payload):
    request = urllib.request.Request(
        f"{base}/analyze", data=json.dumps(payload).encode(), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def test_http_roundtrip_health_metrics_and_clean_exit():
    proc, base = start_server("--jobs", "1")
    try:
        status, health = get_json(f"{base}/healthz")
        assert (status, health["status"]) == (200, "ok")

        status, body = post_analyze(base, {
            "program": "l := 1", "kind": "statement", "name": "tiny",
            "analyses": ["cert"],
        })
        assert status == 200
        document = json.loads(body)
        assert document["programs"][0]["analyses"]["cert"]["certified"] is True

        status, bad = post_analyze(base, {"program": ""})
        assert status == 400

        status, metrics = get_json(f"{base}/metrics")
        assert status == 200
        assert validate_metrics(metrics) == []
        assert metrics["service"]["requests"] == 2
        assert metrics["service"]["rejected"] == 1

        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"{base}/nope", timeout=30)
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0


def test_non_decimal_digit_is_a_lex_error_400():
    """Regression: ``1²`` reached the parser's ``int()`` and the 400
    said ``invalid literal for int()``; it is an illegal character."""
    proc, base = start_server("--jobs", "1")
    try:
        status, body = post_analyze(base, {
            "program": "var x : integer;\nx := 1²", "name": "sup.rl",
            "analyses": ["cert"],
        })
        assert status == 400
        assert json.loads(body)["error"] == (
            "sup.rl: parse error: 2:7: illegal character '²'"
        )
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0


def test_content_length_abuse_is_rejected_before_reading():
    """Regression: the handler used to trust ``Content-Length`` and
    block on ``rfile.read(length)`` for an arbitrarily large declared
    body.  Garbage and negative lengths are clean 400s, oversized
    declarations a clean 413 — all decided from the header alone,
    before any body bytes exist."""
    import http.client

    from repro.service.app import MAX_REQUEST_BYTES

    proc, base = start_server("--jobs", "1")
    host_port = base.split("//", 1)[1]
    try:
        cases = [
            ("not-a-number", 400),
            ("-5", 400),
            (str(MAX_REQUEST_BYTES + 1), 413),
            (str(10**12), 413),
        ]
        for declared, expected in cases:
            conn = http.client.HTTPConnection(host_port, timeout=30)
            try:
                conn.putrequest("POST", "/analyze")
                conn.putheader("Content-Type", "application/json")
                conn.putheader("Content-Length", declared)
                conn.endheaders()
                # No body is ever sent: the response must come from the
                # header alone, not from a read that would block.
                response = conn.getresponse()
                assert response.status == expected, (declared, response.status)
                body = json.loads(response.read())
                assert body["status"] == expected and body["error"]
            finally:
                conn.close()
        # the server survived all of it
        status, health = get_json(f"{base}/healthz")
        assert (status, health["status"]) == (200, "ok")
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0


def test_sigterm_drains_the_inflight_request():
    proc, base = start_server("--jobs", "1")
    outcome = {}

    def inflight():
        outcome["response"] = post_analyze(base, {
            "program": DIVERGENT, "kind": "statement", "name": "spin",
            "analyses": ["explore"],
            "config": {"deadline": 2.0, "max_states": 10**8,
                       "max_depth": 10**8},
        })

    worker = threading.Thread(target=inflight)
    worker.start()
    try:
        # wait until the slow request is genuinely in flight
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            _, metrics = get_json(f"{base}/metrics")
            if metrics["service"]["in_flight"] >= 1:
                break
            time.sleep(0.05)
        assert metrics["service"]["in_flight"] >= 1

        proc.send_signal(signal.SIGTERM)
        worker.join(timeout=60)
        assert not worker.is_alive()
        # the in-flight request completed across the shutdown: a whole,
        # valid, degraded-flagged document — not a reset connection
        status, body = outcome["response"]
        assert status == 200
        data = json.loads(body)["programs"][0]["analyses"]["explore"]
        assert data["degraded"] is True and data["limit"] == "deadline"
        assert proc.wait(timeout=30) == 0
    finally:
        worker.join(timeout=1)
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


def test_413_arrives_without_the_body_being_read():
    """The pre-read guard, proven server-side: an oversized declaration
    is refused from the header alone — the service's bytes-read counter
    must not move, while a normal request's body is counted."""
    import http.client

    from repro.service.app import MAX_REQUEST_BYTES

    proc, base = start_server("--jobs", "1")
    host_port = base.split("//", 1)[1]
    try:
        conn = http.client.HTTPConnection(host_port, timeout=30)
        try:
            conn.putrequest("POST", "/analyze")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_REQUEST_BYTES + 1))
            conn.endheaders()
            # send a partial body: the 413 must come back while these
            # bytes sit unread in the socket buffer
            conn.send(b"x" * 1024)
            response = conn.getresponse()
            assert response.status == 413
            response.read()
        finally:
            conn.close()
        _, metrics = get_json(f"{base}/metrics")
        assert metrics["service"]["bytes_read"] == 0
        assert metrics["service"]["requests"] == 0

        # a well-formed request's body IS read and counted
        payload = {"program": "l := 1", "kind": "statement",
                   "name": "tiny", "analyses": ["cert"]}
        status, _ = post_analyze(base, payload)
        assert status == 200
        _, metrics = get_json(f"{base}/metrics")
        assert metrics["service"]["bytes_read"] == len(
            json.dumps(payload).encode()
        )
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0


def test_client_disconnect_is_counted_not_a_crash():
    """A client that gives up mid-request must become a
    ``client_disconnects`` tick, not an unhandled traceback — and the
    server must stay fully serviceable afterwards."""
    import socket
    import struct

    proc, base = start_server("--jobs", "1")
    host, port = base.split("//", 1)[1].split(":")
    try:
        request = json.dumps({
            "program": DIVERGENT, "kind": "statement", "name": "spin",
            "analyses": ["explore"],
            "config": {"deadline": 1.0, "max_states": 10**8,
                       "max_depth": 10**8},
        }).encode()
        sock = socket.create_connection((host, int(port)), timeout=30)
        sock.sendall(
            b"POST /analyze HTTP/1.1\r\n"
            b"Host: x\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(request)}\r\n\r\n".encode()
            + request
        )
        # abort with RST (SO_LINGER 0) while the analysis is running,
        # so the server's eventual write hits a dead connection
        time.sleep(0.3)
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()

        deadline = time.monotonic() + 30
        disconnects = 0
        while time.monotonic() < deadline:
            _, metrics = get_json(f"{base}/metrics")
            disconnects = metrics["service"]["client_disconnects"]
            if disconnects:
                break
            time.sleep(0.1)
        assert disconnects >= 1

        # still serviceable
        status, _ = post_analyze(base, {
            "program": "l := 1", "kind": "statement", "name": "tiny",
            "analyses": ["cert"],
        })
        assert status == 200
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0

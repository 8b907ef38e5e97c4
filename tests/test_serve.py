"""Tests for the service mode (:mod:`repro.serve`).

Covers the wire protocol (validation fail-fast with the registry's own
errors, JSONL framing, error codes), the hosted-run lifecycle (submit /
stream / status / cancel / check-ins / dedupe), server-vs-library parity
(a served run's ``rounds.jsonl`` is byte-identical to a direct
:mod:`repro.api` run), and the graceful-drain contract (checkpoint on
drain, bitwise-identical resume on restart) — in-process and through a
real ``repro serve`` subprocess killed with SIGTERM.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.api as api
from repro.fl.metrics import ExperimentResult, RoundRecord
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_DRAINING,
    ERR_INVALID_SPEC,
    ERR_NO_DYNAMICS,
    ERR_UNKNOWN_RUN,
    ProtocolError,
    parse_spec_payload,
)
from repro.serve.server import ExperimentServer
from repro.serve.session import SessionManager

#: A tiny spec that exercises scenario dynamics (check-ins need them).
CHURN_SPEC = {
    "algorithm": "fedavg",
    "dataset": "mnist",
    "scale": "smoke",
    "scenario": "churn",
    "seed": 7,
    "overrides": {"rounds": 3},
}


def _record(round_number: int) -> RoundRecord:
    return RoundRecord(
        round_number=round_number,
        start_time=0.0,
        end_time=1.0,
        selected_clients=[0],
        completed_clients=[0],
    )


class Client:
    """Minimal keep-alive test client against an in-process server."""

    def __init__(self, server: ExperimentServer) -> None:
        host, port = server.address
        self.conn = http.client.HTTPConnection(host, port, timeout=60)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(self, method: str, path: str, body: bytes = None):
        self.conn.request(method, path, body=body)
        response = self.conn.getresponse()
        return response.status, response.read()

    def json(self, method: str, path: str, payload: object = None):
        body = None if payload is None else json.dumps(payload).encode()
        status, data = self.request(method, path, body)
        return status, json.loads(data)

    def close(self) -> None:
        self.conn.close()


@pytest.fixture
def server(tmp_path):
    srv = ExperimentServer(tmp_path / "results", workers=2)
    srv.start_background()
    yield srv
    # Abort anything a failed test left running: worker threads are
    # non-daemon, and a forgotten 100000-round run would hang exit.
    for hosted in srv.manager.sessions():
        if hosted.active:
            hosted.handle.request_stop("abort")
            hosted.wait_terminal(timeout=60)
    srv.close()


@pytest.fixture
def client(server):
    c = Client(server)
    yield c
    c.close()


def _wait_state(client: Client, run_id: str, states, timeout: float = 60.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, doc = client.json("GET", f"/runs/{run_id}")
        if doc.get("state") in states:
            return doc["state"]
        time.sleep(0.05)
    raise AssertionError(f"run {run_id} never reached {states}; last: {doc}")


# ---------------------------------------------------------------------------
# Protocol: validation fail-fast, framing, error codes
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_spec_validation_uses_registry_errors(self):
        """The server-side error is the library's error, verbatim."""
        with pytest.raises(ValueError) as library_error:
            api.experiment("not-an-algorithm")
        with pytest.raises(ProtocolError) as wire_error:
            parse_spec_payload({"algorithm": "not-an-algorithm"})
        assert wire_error.value.code == ERR_INVALID_SPEC
        assert wire_error.value.message == str(library_error.value)

    def test_unknown_spec_field_is_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_spec_payload({"dataest": "mnist"})
        assert excinfo.value.code == ERR_INVALID_SPEC
        assert "dataest" in excinfo.value.message

    def test_non_object_payload_is_bad_request(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_spec_payload(["not", "an", "object"])
        assert excinfo.value.code == ERR_BAD_REQUEST

    def test_valid_payload_builds_the_library_config(self):
        config, label = parse_spec_payload(CHURN_SPEC)
        spec = (
            api.experiment("fedavg")
            .dataset("mnist")
            .scale("smoke")
            .scenario("churn")
            .seed(7)
            .rounds(3)
        )
        assert config == spec.build()
        assert label == "mnist/fedavg"


# ---------------------------------------------------------------------------
# Request-body framing (the _read_body short-read bugfix)
# ---------------------------------------------------------------------------
class TestRequestBodyFraming:
    """``_read_body`` must honour Content-Length exactly.

    A single ``rfile.read(length)`` can legally return fewer bytes than
    asked (segmented delivery, slow client); the old code then parsed a
    truncated body.  The fixed reader loops to the declared length, maps a
    genuinely short body to ``bad_request``, and rejects oversized or
    malformed Content-Length headers before reading anything.
    """

    @staticmethod
    def _raw_request(server, head: bytes, body: bytes, shut: bool = True) -> bytes:
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=30)
        try:
            sock.sendall(head + body)
            if shut:
                sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
                response = b"".join(chunks)
                if b"\r\n\r\n" in response and not shut:
                    break
            return b"".join(chunks)
        finally:
            sock.close()

    def test_truncated_body_is_bad_request(self, server):
        head = (
            b"POST /runs HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n"
            b"Connection: close\r\n\r\n"
        )
        response = self._raw_request(server, head, b"0123456789")
        status_line = response.split(b"\r\n", 1)[0]
        assert b" 400 " in status_line
        assert b"bad_request" in response
        assert b"truncated" in response
        assert b"10 of 100" in response

    def test_oversized_content_length_rejected_before_reading(self, server):
        from repro.serve.server import MAX_BODY_BYTES

        head = (
            b"POST /runs HTTP/1.1\r\nHost: t\r\n"
            + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n".encode()
            + b"Connection: close\r\n\r\n"
        )
        # No body bytes are ever sent: the server must answer regardless.
        response = self._raw_request(server, head, b"")
        assert b" 400 " in response.split(b"\r\n", 1)[0]
        assert b"too large" in response

    def test_negative_content_length_is_bad_request(self, server):
        head = (
            b"POST /runs HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n"
            b"Connection: close\r\n\r\n"
        )
        response = self._raw_request(server, head, b"")
        assert b" 400 " in response.split(b"\r\n", 1)[0]

    def test_client_gone_before_its_response_is_quiet(self, server, capfd):
        """A buffered response meets a client that has reset the connection
        at its flush: the server drops it without a traceback and serves on."""
        host, port = server.address
        body = b'{"run": "nope", "client": 0}\n' * 2000
        head = b"POST /checkin HTTP/1.1\r\nHost: t\r\n" + (
            f"Content-Length: {len(body)}\r\n\r\n".encode()
        )
        for _ in range(10):
            sock = socket.create_connection((host, port), timeout=30)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.sendall(head + body)
            sock.close()  # SO_LINGER 0: a reset, not a polite close
        time.sleep(1.0)  # let the handlers reach their flush
        response = self._raw_request(
            server, b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", b""
        )
        assert b" 200 " in response.split(b"\r\n", 1)[0]
        assert "Traceback" not in capfd.readouterr().err

    def test_segmented_body_is_reassembled(self, server):
        body = json.dumps({"spec": {"algorithm": "not-an-algorithm"}}).encode()
        head = (
            b"POST /runs HTTP/1.1\r\nHost: t\r\n"
            + f"Content-Length: {len(body)}\r\n".encode()
            + b"Connection: close\r\n\r\n"
        )
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=30)
        try:
            sock.sendall(head + body[:3])
            time.sleep(0.05)  # force a short first read server-side
            sock.sendall(body[3:])
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
            response = b"".join(chunks)
        finally:
            sock.close()
        # The whole body arrived: the spec validator saw the full algorithm
        # name (a short read would have surfaced as invalid JSON instead).
        assert b"truncated" not in response
        assert b"not-an-algorithm" in response


# ---------------------------------------------------------------------------
# Hosted-run lifecycle over HTTP
# ---------------------------------------------------------------------------
class TestServerLifecycle:
    def test_submit_stream_status(self, server, client):
        status, doc = client.json("POST", "/runs", {"spec": CHURN_SPEC})
        assert status == 202
        assert doc["created"] is True
        run_id = doc["run_id"]

        status, data = client.request("GET", f"/runs/{run_id}/rounds")
        assert status == 200
        lines = data.decode().strip().splitlines()
        trailer = json.loads(lines[-1])
        assert trailer == {"event": "end", "rounds": 3, "state": "complete"}
        records = [json.loads(line) for line in lines[:-1]]
        assert [r["round_number"] for r in records] == [1, 2, 3]
        assert all("event" not in r for r in records)

        _, doc = client.json("GET", f"/runs/{run_id}")
        assert doc["state"] == "complete"
        assert doc["rounds"] == 3

        _, listing = client.json("GET", "/runs")
        assert any(run["run_id"] == run_id for run in listing["active"])
        # The persisted side is visible through the ordinary store scan.
        assert any(
            run["run_id"] == run_id for run in listing["stored"]["complete"]
        )

    def test_live_stream_flushes_headers_and_each_round(self, server, client):
        """Responses leave in one write, but a live stream sends its headers
        at once and each round as it finalizes, not when the stream ends."""
        long_spec = dict(CHURN_SPEC, overrides={"rounds": 100000})
        _, doc = client.json("POST", "/runs", {"spec": long_spec})
        run_id = doc["run_id"]
        hosted = server.manager.get(run_id)
        assert hosted.wait_record(0, timeout=60) is not None
        frozen, thaw, release = threading.Event(), threading.Event(), threading.Event()
        published = []

        def hold_second_round(record):
            published.append(record.round_number)
            if len(published) == 2:
                release.wait(60)  # before the round reaches the stream

        def freeze():
            # Between two events: no round is half published.
            hosted.handle.add_round_listener(hold_second_round)
            frozen.set()
            thaw.wait(60)

        hosted.handle.inject(freeze)
        assert frozen.wait(60)
        start = len(hosted.records)
        reader = Client(server)
        try:
            reader.conn.sock.settimeout(30)
            reader.conn.request("GET", f"/runs/{run_id}/rounds?from={start}&max=2")
            response = reader.conn.getresponse()
            assert response.status == 200
            assert len(hosted.records) == start  # no round finalized meanwhile
            thaw.set()
            first = json.loads(response.readline())
            assert first["round_number"] == start + 1
            assert len(hosted.records) == start + 1  # the next one is held
            release.set()
            second = json.loads(response.readline())
            assert second["round_number"] == start + 2
            assert json.loads(response.read())["event"] == "end"
        finally:
            thaw.set()
            release.set()
            reader.close()
        client.json("POST", f"/runs/{run_id}/cancel")
        _wait_state(client, run_id, ("cancelled",))

    def test_invalid_spec_fails_fast_without_state(self, server, client):
        status, doc = client.json(
            "POST", "/runs", {"spec": {"algorithm": "not-an-algorithm"}}
        )
        assert status == 422
        assert doc["error"] == ERR_INVALID_SPEC
        assert "valid algorithms" in doc["message"]
        # Fail-fast: nothing was created, hosted or stored.
        _, listing = client.json("GET", "/runs")
        assert listing["active"] == []
        assert list(server.store.root.iterdir()) == []

    def test_unknown_run_is_404(self, server, client):
        status, doc = client.json("GET", "/runs/deadbeef")
        assert status == 404
        assert doc["error"] == ERR_UNKNOWN_RUN
        status, doc = client.json("GET", "/runs/deadbeef/rounds")
        assert status == 404

    def test_submit_is_idempotent_per_config(self, server, client):
        long_spec = dict(CHURN_SPEC, overrides={"rounds": 100000})
        _, first = client.json("POST", "/runs", {"spec": long_spec})
        _, second = client.json("POST", "/runs", {"spec": long_spec})
        assert second["run_id"] == first["run_id"]
        assert second["created"] is False
        client.json("POST", f"/runs/{first['run_id']}/cancel")
        _wait_state(client, first["run_id"], ("cancelled",))

    def test_cancel_drops_checkpoint(self, server, client):
        long_spec = dict(CHURN_SPEC, overrides={"rounds": 100000})
        _, doc = client.json("POST", "/runs", {"spec": long_spec})
        run_id = doc["run_id"]
        _wait_state(client, run_id, ("running",))
        status, doc = client.json("POST", f"/runs/{run_id}/cancel")
        assert status == 200
        assert _wait_state(client, run_id, ("cancelled",)) == "cancelled"
        run_dir = server.store.run_dir(run_id)
        assert not (run_dir / "checkpoint.pkl").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        # A cancelled run must not come back on restart.
        assert server.store.scan()["resumable"] == []

    def test_checkins_reach_the_running_scenario(self, server, client):
        long_spec = dict(CHURN_SPEC, overrides={"rounds": 100000})
        _, doc = client.json("POST", "/runs", {"spec": long_spec})
        run_id, num_clients = doc["run_id"], doc["num_clients"]
        _wait_state(client, run_id, ("running",))

        lines = "".join(
            json.dumps({"run": run_id, "client": i % num_clients, "online": i % 2 == 0})
            + "\n"
            for i in range(40)
        )
        status, data = client.request("POST", "/checkin", lines.encode())
        doc = json.loads(data)
        assert status == 200
        assert doc["accepted"] == 40
        assert doc["rejected"] == 0

        # The events were admitted into the live ScenarioDynamics.
        deadline = time.monotonic() + 30
        hosted = server.manager.get(run_id)
        while time.monotonic() < deadline:
            experiment = hosted.handle.experiment  # None until the build ran
            if experiment is not None and experiment.dynamics is not None:
                if experiment.dynamics.checkin_events == 40:
                    break
            time.sleep(0.05)
        assert hosted.handle.experiment.dynamics.checkin_events == 40
        _, stats = client.json("GET", "/stats")
        assert stats["checkins"] == 40

        client.json("POST", f"/runs/{run_id}/cancel")
        _wait_state(client, run_id, ("cancelled",))

    def test_checkin_rejections(self, server, client):
        # Unknown run.
        status, data = client.request(
            "POST", "/checkin", json.dumps({"run": "nope", "client": 0}).encode()
        )
        doc = json.loads(data)
        assert doc["rejected"] == 1
        assert doc["errors"][0]["error"] == ERR_UNKNOWN_RUN

        # A stable-scenario run has no dynamics to check into.
        stable = dict(CHURN_SPEC, scenario="stable", overrides={"rounds": 100000})
        _, submitted = client.json("POST", "/runs", {"spec": stable})
        run_id = submitted["run_id"]
        status, data = client.request(
            "POST", "/checkin", json.dumps({"run": run_id, "client": 0}).encode()
        )
        doc = json.loads(data)
        assert doc["errors"][0]["error"] == ERR_NO_DYNAMICS

        # Out-of-range client ids are rejected at the protocol layer.
        churn = dict(CHURN_SPEC, overrides={"rounds": 100000})
        _, submitted2 = client.json("POST", "/runs", {"spec": churn})
        status, data = client.request(
            "POST",
            "/checkin",
            json.dumps({"run": submitted2["run_id"], "client": 10_000}).encode(),
        )
        doc = json.loads(data)
        assert doc["errors"][0]["error"] == ERR_BAD_REQUEST

        for rid in (run_id, submitted2["run_id"]):
            client.json("POST", f"/runs/{rid}/cancel")
            _wait_state(client, rid, ("cancelled",))

    def test_malformed_checkin_lines_are_rejected(self, server, client, monkeypatch):
        """A line the simulation could not apply is a ``bad_request`` here:
        it never reaches the run, and ``/stats`` does not count it."""
        long_spec = dict(CHURN_SPEC, overrides={"rounds": 100000})
        _, doc = client.json("POST", "/runs", {"spec": long_spec})
        run_id = doc["run_id"]
        _wait_state(client, run_id, ("running",))
        injected = []
        checkin = server.manager.checkin
        monkeypatch.setattr(
            server.manager,
            "checkin",
            lambda hosted, lines: injected.append(list(lines)) or checkin(hosted, lines),
        )

        bad = [
            '{"run": "%s", "client": 1, "delay": -1}',
            '{"run": "%s", "client": 1, "delay": NaN}',
            '{"run": "%s", "client": 1, "online": "false"}',
            '{"run": "%s", "client": 1, "delay": Infinity}',
            '{"run": "%s", "client": 1, "delay": "2"}',
            '{"run": "%s", "client": true}',
            '{"run": "%s", "client": 1.5}',
            '{"run": "%s", "client": "1"}',
        ]
        body = "".join(line % run_id + "\n" for line in bad).encode()
        status, data = client.request("POST", "/checkin", body)
        doc = json.loads(data)
        assert status == 200
        assert (doc["accepted"], doc["rejected"]) == (0, len(bad))
        assert [error["error"] for error in doc["errors"]] == [ERR_BAD_REQUEST] * len(bad)
        assert injected == []  # nothing was handed to the run
        _, stats = client.json("GET", "/stats")
        assert stats["checkins"] == 0

        # Mixed with valid lines, only the valid ones reach the run: as one
        # injected batch, in line order, with the defaults filled in.
        good = [
            '{"run": "%s", "client": 2, "online": false, "delay": 0.5}',
            '{"run": "%s", "client": 3.0}',
        ]
        body = "".join(line % run_id + "\n" for line in bad[:3] + good).encode()
        doc = json.loads(client.request("POST", "/checkin", body)[1])
        assert (doc["accepted"], doc["rejected"]) == (2, 3)
        assert injected == [[(2, False, 0.5), (3, True, 0.0)]]
        _, stats = client.json("GET", "/stats")
        assert stats["checkins"] == 2

        client.json("POST", f"/runs/{run_id}/cancel")
        _wait_state(client, run_id, ("cancelled",))

    def test_draining_rejects_submissions(self, tmp_path):
        manager = SessionManager(api.RunStore(tmp_path / "r"), workers=1)
        manager._draining = True
        config, label = parse_spec_payload(CHURN_SPEC)
        with pytest.raises(ProtocolError) as excinfo:
            manager.submit(config, label=label)
        assert excinfo.value.code == ERR_DRAINING


# ---------------------------------------------------------------------------
# Parity: a served run is the library run, byte for byte
# ---------------------------------------------------------------------------
class TestServerLibraryParity:
    def test_served_rounds_jsonl_matches_direct_api_run(self, server, client, tmp_path):
        _, doc = client.json("POST", "/runs", {"spec": CHURN_SPEC})
        run_id = doc["run_id"]
        status, streamed = client.request("GET", f"/runs/{run_id}/rounds")
        lines = streamed.decode().splitlines(keepends=True)
        streamed_records = "".join(lines[:-1])

        direct_store = tmp_path / "direct"
        config, label = parse_spec_payload(CHURN_SPEC)
        handle = api.run(config, store=direct_store, label=label)
        handle.result()

        assert run_id == handle.config_hash
        served_bytes = (server.store.run_dir(run_id) / "rounds.jsonl").read_bytes()
        direct_bytes = (
            api.RunStore(direct_store).run_dir(run_id) / "rounds.jsonl"
        ).read_bytes()
        assert served_bytes == direct_bytes  # bitwise, no approx
        # And the live stream's framing IS the storage framing.
        assert streamed_records.encode() == direct_bytes

        served_manifest = json.loads(
            (server.store.run_dir(run_id) / "manifest.json").read_text()
        )
        direct_manifest = json.loads(
            (api.RunStore(direct_store).run_dir(run_id) / "manifest.json").read_text()
        )
        assert served_manifest["summary"] == direct_manifest["summary"]


    # Now pins: a float64 spec is refused with ``invalid_spec`` naming
    # ``dtype`` and leaves nothing behind, while a float32 spec runs and is
    # the library run of its spec, byte for byte.
    def test_a_float32_and_a_float64_run_are_hosted_side_by_side(self, server, client, tmp_path):
        """Every run computes in float32: a float64 spec fails fast."""
        float64 = dict(CHURN_SPEC, overrides={"rounds": 3, "dtype": "float64"})
        status, doc = client.json("POST", "/runs", {"spec": float64})
        assert status == 422
        assert doc["error"] == ERR_INVALID_SPEC and "dtype" in doc["message"]
        assert list(server.store.root.iterdir()) == []

        spec = dict(CHURN_SPEC, overrides={"rounds": 3, "dtype": "float32"})
        status, doc = client.json("POST", "/runs", {"spec": spec})
        assert status == 202, doc
        run_id = doc["run_id"]
        assert _wait_state(client, run_id, ("complete", "failed")) == "complete"
        config, label = parse_spec_payload(spec)
        handle = api.run(config, store=tmp_path / "direct", label=label)
        handle.result()
        assert run_id == handle.config_hash
        served = (server.store.run_dir(run_id) / "rounds.jsonl").read_bytes()
        direct = api.RunStore(tmp_path / "direct").run_dir(run_id) / "rounds.jsonl"
        assert served == direct.read_bytes()


# ---------------------------------------------------------------------------
# Graceful drain + restart resume
# ---------------------------------------------------------------------------
class TestDrainResume:
    def test_drain_checkpoints_and_restart_resumes_bitwise(self, tmp_path):
        spec = dict(CHURN_SPEC, overrides={"rounds": 40})
        config, label = parse_spec_payload(spec)

        results_dir = tmp_path / "served"
        server = ExperimentServer(results_dir, workers=1)
        server.start_background()
        client = Client(server)
        _, doc = client.json("POST", "/runs", {"spec": spec})
        run_id = doc["run_id"]
        # Let it make some progress, then drain mid-run.
        status, data = client.request("GET", f"/runs/{run_id}/rounds?from=0&max=3")
        assert len(data.decode().strip().splitlines()) == 4  # 3 records + trailer
        client.close()
        summary = server.drain(timeout=120)
        assert summary[run_id] == "checkpointed"

        scan = api.RunStore(results_dir).scan()
        assert [run.config_hash for run in scan["resumable"]] == [run_id]

        # Restart: a fresh server resumes the run and completes it.
        server2 = ExperimentServer(results_dir, workers=1)
        resumed = server2.manager.resume_all()
        assert [hosted.run_id for hosted in resumed] == [run_id]
        hosted = resumed[0]
        assert hosted.wait_terminal(timeout=300)
        assert hosted.state == "complete"
        assert hosted.handle.resumed_from_round is not None
        server2.close()

        # Bitwise: the drained-and-resumed run equals an uninterrupted one.
        direct_store = tmp_path / "direct"
        api.run(config, store=direct_store, label=label).result()
        assert (
            (api.RunStore(results_dir).run_dir(run_id) / "rounds.jsonl").read_bytes()
            == (api.RunStore(direct_store).run_dir(run_id) / "rounds.jsonl").read_bytes()
        )


# ---------------------------------------------------------------------------
# The real thing: a repro serve subprocess, SIGTERM and all
# ---------------------------------------------------------------------------
class TestServeSubprocess:
    def _start(self, results_dir: Path):
        package_parent = str(Path(api.__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = package_parent + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--results-dir",
                str(results_dir),
                "--workers",
                "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if "listening on" in line:
                url = line.split("listening on", 1)[1].split()[0]
                host, _, port = url.rpartition("//")[2].partition(":")
                return proc, host, int(port)
            if proc.poll() is not None:
                raise AssertionError(f"serve exited early: {proc.stderr.read()}")
        proc.kill()
        raise AssertionError("serve subprocess never reported its address")

    def _json(self, host, port, method, path, payload=None):
        conn = http.client.HTTPConnection(host, port, timeout=60)
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body)
        response = conn.getresponse()
        data = json.loads(response.read())
        conn.close()
        return response.status, data

    def test_sigterm_drains_and_restart_completes_bitwise(self, tmp_path):
        results_dir = tmp_path / "served"
        spec = dict(CHURN_SPEC, overrides={"rounds": 40})

        proc, host, port = self._start(results_dir)
        try:
            _, doc = self._json(host, port, "POST", "/runs", {"spec": spec})
            run_id = doc["run_id"]
            # Wait for visible progress, then SIGTERM mid-run.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                _, status_doc = self._json(host, port, "GET", f"/runs/{run_id}")
                if status_doc.get("rounds", 0) >= 3:
                    break
                time.sleep(0.1)
            assert status_doc["rounds"] >= 3
        finally:
            proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=180) == 0

        scan = api.RunStore(results_dir).scan()
        assert [run.config_hash for run in scan["resumable"]] == [run_id]

        # The restarted server auto-resumes and completes the run.
        proc2, host2, port2 = self._start(results_dir)
        try:
            deadline = time.monotonic() + 300
            state = None
            while time.monotonic() < deadline:
                _, status_doc = self._json(host2, port2, "GET", f"/runs/{run_id}")
                state = status_doc.get("state")
                if state == "complete":
                    break
                time.sleep(0.2)
            assert state == "complete"
        finally:
            proc2.send_signal(signal.SIGTERM)
        assert proc2.wait(timeout=180) == 0

        config, label = parse_spec_payload(spec)
        direct_store = tmp_path / "direct"
        api.run(config, store=direct_store, label=label).result()
        assert (
            (api.RunStore(results_dir).run_dir(run_id) / "rounds.jsonl").read_bytes()
            == (api.RunStore(direct_store).run_dir(run_id) / "rounds.jsonl").read_bytes()
        )


# ---------------------------------------------------------------------------
# Round-listener isolation (the streaming seam must survive bad listeners)
# ---------------------------------------------------------------------------
class TestListenerIsolation:
    def test_failing_listener_is_detached_not_fatal(self, caplog):
        result = ExperimentResult(algorithm="fedavg", dataset="mnist", config={})
        seen = []
        calls = {"bad": 0}

        def bad_listener(record):
            calls["bad"] += 1
            raise RuntimeError("client went away")

        result.add_round_listener(bad_listener)
        result.add_round_listener(seen.append)
        with caplog.at_level("ERROR", logger="repro.fl.metrics"):
            result.add_round(_record(1))
            result.add_round(_record(2))
        # The bad listener fired once, was detached, and never starved the
        # listener registered after it.
        assert calls["bad"] == 1
        assert [record.round_number for record in seen] == [1, 2]
        assert any("detaching" in message for message in caplog.messages)

    def test_handle_level_listener_errors_surface_to_caller(self, tmp_path):
        # Contrast: a RunHandle's own on_round callback is the caller's
        # code in the caller's thread — its failure is the caller's to see.
        config, label = parse_spec_payload(CHURN_SPEC)

        def exploding(record):
            raise RuntimeError("boom")

        handle = api.run(config, store=tmp_path, label=label, on_round=exploding)
        with pytest.raises(RuntimeError):
            handle.result()

    def test_federator_side_listener_failure_does_not_kill_run(self, tmp_path):
        config, label = parse_spec_payload(CHURN_SPEC)
        handle = api.run(config, store=tmp_path, label=label)
        stream = handle.stream()
        first = next(stream)
        assert first.round_number == 1

        def exploding(record):
            raise RuntimeError("boom")

        # Attach directly to the engine's result: the seam the server's
        # record collector uses.
        handle.experiment.federator.result.add_round_listener(exploding)
        rest = list(stream)
        assert [record.round_number for record in rest] == [2, 3]
        assert handle.result().num_rounds == 3


# ---------------------------------------------------------------------------
# repro report --json (the service clients' query path)
# ---------------------------------------------------------------------------
class TestReportJson:
    def test_report_json_round_trips_the_store(self, tmp_path, capsys):
        from repro.cli import main

        config, label = parse_spec_payload(CHURN_SPEC)
        api.run(config, store=tmp_path, label=label).result()
        assert main(["report", str(tmp_path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["count"] == 1
        (run,) = document["runs"]
        assert run["label"] == label
        assert run["status"] == "complete"
        assert run["num_rounds"] == 3
        assert run["summary"]["rounds"] == 3.0

"""``repro serve`` — the long-lived experiment service.

A thin HTTP/1.1 front over :class:`repro.serve.session.SessionManager`:
clients submit validated experiment specs, stream their rounds live as
JSON-lines, feed device check-ins into running scenarios, and query or
cancel anything the server hosts — while every run persists through the
ordinary :class:`repro.api.RunStore`, so ``repro report`` (and every other
store consumer) works on a served results directory unchanged.

Endpoints::

    GET  /healthz                 liveness + drain state
    GET  /stats                   server counters (sessions, checkins, ...)
    GET  /runs                    active sessions + stored-run classification
    GET  /runs/<id>               one run's status (active first, then disk)
    POST /runs                    submit a spec: {"spec": {...}, "resume": bool}
    POST /runs/<id>/cancel        stop a hosted run, drop its checkpoint
    GET  /runs/<id>/rounds        stream rounds as JSONL (chunked); query
                                  params: from=<round index>, max=<count>
    POST /checkin                 JSONL batch of device availability events:
                                  {"run": id, "client": n, "online": bool,
                                   "delay": seconds?} per line

Graceful shutdown: SIGTERM (or SIGINT) drains — submissions start failing
with ``draining``, every in-flight run checkpoints at its next safe
boundary and stops, and the stored runs are left ``incomplete`` with a
checkpoint on disk.  A restarted server finds them via
:meth:`RunStore.scan` and resumes each one bitwise-identically.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.api.store import ROUNDS_NAME, RunStore
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_UNKNOWN_RUN,
    ProtocolError,
    parse_json_body,
    parse_jsonl_body,
    parse_spec_payload,
    record_line,
    trailer_line,
)
from repro.serve.session import HostedRun, SessionManager

#: Default wall-clock allowance for checkpointing everything on SIGTERM.
DRAIN_TIMEOUT_S = 120.0

#: Hard cap on request bodies; a Content-Length beyond this is rejected
#: before any bytes are read (the largest legitimate payload — a bulk
#: check-in batch — is a few hundred KB).
MAX_BODY_BYTES = 8 * 1024 * 1024


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: Set by ExperimentServer after construction.
    app: "ExperimentServer" = None

    def handle_error(self, request, client_address) -> None:
        # A buffered response meets a client that has gone at its flush,
        # after the handler's own error handling: nothing to report.
        if not isinstance(sys.exc_info()[1], (BrokenPipeError, ConnectionResetError)):
            super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Without this, small keep-alive request/response pairs serialize on
    # the kernel's Nagle + delayed-ACK handshake (~40ms per round trip).
    disable_nagle_algorithm = True
    # Buffer the response so its status line, headers and body leave in one
    # write; chunked streams flush each piece themselves.
    wbufsize = -1
    server: _ServeHTTPServer

    # ------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging at 100k+ req scale would dominate the server

    def _send_json(self, payload: object, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ProtocolError(ERR_BAD_REQUEST, "bad Content-Length header")
        if length < 0:
            raise ProtocolError(ERR_BAD_REQUEST, "bad Content-Length header")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                ERR_BAD_REQUEST,
                f"request body too large: {length} bytes (max {MAX_BODY_BYTES})",
            )
        if length == 0:
            return b""
        # A socket read may return fewer bytes than asked (segmented
        # delivery, slow client): keep reading until the declared length
        # or EOF.  A short body is a truncated request, not a valid one.
        chunks = []
        remaining = length
        while remaining > 0:
            chunk = self.rfile.read(remaining)
            if not chunk:
                break
            chunks.append(chunk)
            remaining -= len(chunk)
        if remaining > 0:
            raise ProtocolError(
                ERR_BAD_REQUEST,
                f"request body truncated: got {length - remaining} of {length} bytes",
            )
        return b"".join(chunks)

    def _chunk(self, text: str) -> None:
        data = text.encode("utf-8")
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")
        self.wfile.flush()

    def _end_chunks(self) -> None:
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()

    # -------------------------------------------------------------- routing
    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        app = self.server.app
        url = urlsplit(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            if method == "GET":
                if parts == ["healthz"]:
                    return self._send_json(
                        {"ok": True, "draining": app.manager.draining}
                    )
                if parts == ["stats"]:
                    return self._send_json(app.stats())
                if parts == ["runs"]:
                    return self._send_json(app.list_runs())
                if len(parts) == 2 and parts[0] == "runs":
                    return self._send_json(app.run_status(parts[1]))
                if len(parts) == 3 and parts[0] == "runs" and parts[2] == "rounds":
                    query = parse_qs(url.query)
                    return self._stream_rounds(
                        parts[1],
                        start=int(query.get("from", ["0"])[0]),
                        max_records=(
                            int(query["max"][0]) if "max" in query else None
                        ),
                    )
            elif method == "POST":
                if parts == ["runs"]:
                    return self._send_json(app.submit(self._read_body()), status=202)
                if len(parts) == 3 and parts[0] == "runs" and parts[2] == "cancel":
                    return self._send_json(app.manager.cancel(parts[1]))
                if parts == ["checkin"]:
                    return self._send_json(app.checkin(self._read_body()))
            raise ProtocolError(
                ERR_UNKNOWN_RUN if parts and parts[0] == "runs" else ERR_BAD_REQUEST,
                f"no route {method} {url.path}",
            )
        except ProtocolError as exc:
            self._send_json(exc.body(), status=exc.status)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        except Exception as exc:  # the server must outlive any one request
            self._send_json({"error": "internal", "message": str(exc)}, status=500)

    # ------------------------------------------------------------ streaming
    def _stream_rounds(self, run_id: str, start: int, max_records: Optional[int]) -> None:
        app = self.server.app
        hosted = app.manager._sessions.get(run_id)
        stored = None
        if hosted is None:
            stored = app.store.get(run_id)
            if stored is None:
                raise ProtocolError(ERR_UNKNOWN_RUN, f"no run {run_id!r}")

        self.send_response(200)
        self.send_header("Content-Type", "application/jsonl")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        sent = 0
        try:
            self.wfile.flush()  # a live run may not finalize a round for a while
            if hosted is not None:
                index = max(0, start)
                while max_records is None or sent < max_records:
                    record = hosted.wait_record(index)
                    if record is None:
                        break
                    self._chunk(record_line(record) + "\n")
                    index += 1
                    sent += 1
                with hosted.cond:
                    state, total, error = hosted.state, len(hosted.records), hosted.error
                self._chunk(trailer_line(state, total, error) + "\n")
            else:
                # Stored run: relay the rounds.jsonl lines byte-for-byte.
                total = 0
                with open(stored.path / ROUNDS_NAME) as rounds:
                    for lineno, line in enumerate(rounds):
                        if lineno < start:
                            total += 1
                            continue
                        if max_records is not None and sent >= max_records:
                            total += 1
                            continue
                        self._chunk(line if line.endswith("\n") else line + "\n")
                        sent += 1
                        total += 1
                self._chunk(trailer_line(stored.status, total) + "\n")
            self._end_chunks()
        except (BrokenPipeError, ConnectionResetError, OSError):
            self.close_connection = True


def _checkin_line(item: object) -> Tuple[str, Tuple[int, bool, float]]:
    """One ``/checkin`` line as ``(run, (client, online, delay))``, checked."""
    if not isinstance(item, dict):
        raise ProtocolError(ERR_BAD_REQUEST, "checkin line must be an object")
    client = item.get("client")
    if isinstance(client, float) and client.is_integer():
        client = int(client)
    if type(client) is not int:  # bool is an int subclass; JSON true is not
        raise ProtocolError(
            ERR_BAD_REQUEST, f"checkin client must be an integer, got {client!r}"
        )
    online = item.get("online", True)
    if type(online) is not bool:
        raise ProtocolError(
            ERR_BAD_REQUEST, f"checkin online must be true or false, got {online!r}"
        )
    delay = item.get("delay", 0.0)
    if type(delay) not in (int, float) or not 0 <= delay <= sys.float_info.max:
        raise ProtocolError(
            ERR_BAD_REQUEST, f"checkin delay must be a finite number >= 0, got {delay!r}"
        )
    return str(item.get("run", "")), (client, online, float(delay))


class ExperimentServer:
    """The assembled service: store + session manager + HTTP front."""

    def __init__(
        self,
        results_dir: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        checkpoint_interval: Optional[int] = 1,
    ) -> None:
        self.store = RunStore(results_dir)
        self.manager = SessionManager(
            self.store, workers=workers, checkpoint_interval=checkpoint_interval
        )
        self._httpd = _ServeHTTPServer((host, port), _Handler)
        self._httpd.app = self
        self._serving = threading.Event()

    # ------------------------------------------------------------ lifecycle
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` to the real port."""
        return self._httpd.server_address[0], self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        self._serving.set()
        self._httpd.serve_forever(poll_interval=0.1)

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread (tests and embedded use)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def drain(self, timeout: float = DRAIN_TIMEOUT_S) -> Dict[str, object]:
        """Checkpoint everything in flight, then stop the HTTP loop."""
        summary = self.manager.drain(timeout)
        self._stop_http()
        return summary

    def close(self) -> None:
        self._stop_http()
        self.manager._pool.shutdown(wait=False)

    def _stop_http(self) -> None:
        # shutdown() blocks on an event only serve_forever sets; calling it
        # on a server that never served would hang forever.
        if self._serving.is_set():
            self._httpd.shutdown()
        self._httpd.server_close()

    # ------------------------------------------------------------- handlers
    def submit(self, raw: bytes) -> Dict[str, object]:
        payload = parse_json_body(raw)
        if not isinstance(payload, dict):
            raise ProtocolError(ERR_BAD_REQUEST, "submit body must be a JSON object")
        config, label = parse_spec_payload(payload.get("spec", {}))
        hosted, created = self.manager.submit(
            config, label=label, resume=bool(payload.get("resume", False))
        )
        doc = hosted.snapshot()
        doc["created"] = created
        return doc

    def checkin(self, raw: bytes) -> Dict[str, object]:
        """Apply a JSONL batch of device availability events.

        Every line is checked here, where its sender can still see the
        error; the accepted lines of each run then enter that run's
        simulation as one injected action.  Per-event errors don't fail the
        batch: the response counts what was admitted and reports the first
        few rejections, so a fleet of devices checking in at high rate is
        never gated on its slowest (or most confused) member.
        """
        accepted = 0
        rejected = 0
        errors = []
        targets: Dict[str, HostedRun] = {}
        batches: Dict[str, List[Tuple[int, bool, float]]] = {}
        for item in parse_jsonl_body(raw):
            try:
                run_id, line = _checkin_line(item)
                hosted = targets.get(run_id)
                if hosted is None:
                    hosted = targets[run_id] = self.manager.checkin_target(run_id)
                num_clients = hosted.handle.config.num_clients
                if not 0 <= line[0] < num_clients:
                    raise ProtocolError(
                        ERR_BAD_REQUEST,
                        f"client {line[0]} out of range for run {run_id!r} "
                        f"({num_clients} clients)",
                    )
                batches.setdefault(run_id, []).append(line)
                accepted += 1
            except ProtocolError as exc:
                rejected += 1
                if len(errors) < 8:
                    errors.append(exc.body())
        for run_id, lines in batches.items():
            self.manager.checkin(targets[run_id], lines)
        return {"accepted": accepted, "rejected": rejected, "errors": errors}

    def run_status(self, run_id: str) -> Dict[str, object]:
        hosted = self.manager._sessions.get(run_id)
        if hosted is not None:
            return hosted.snapshot()
        stored = None
        try:
            from repro.api.store import StoredRun

            path = self.store.run_dir(run_id)
            if (path / "manifest.json").exists():
                stored = StoredRun(path)
        except (OSError, ValueError):
            stored = None
        if stored is None:
            raise ProtocolError(ERR_UNKNOWN_RUN, f"no run {run_id!r}")
        return {
            "run_id": stored.config_hash,
            "label": stored.label,
            "state": stored.status,
            "rounds": stored.manifest.get("num_rounds"),
            "has_checkpoint": stored.has_checkpoint,
            "summary": stored.summary,
        }

    def list_runs(self) -> Dict[str, object]:
        classified = self.store.scan()
        return {
            "active": [hosted.snapshot() for hosted in self.manager.sessions()],
            "stored": {
                bucket: [
                    {
                        "run_id": run.config_hash,
                        "label": run.label,
                        "state": run.status,
                        "rounds": run.manifest.get("num_rounds"),
                    }
                    for run in runs
                ]
                for bucket, runs in classified.items()
            },
        }

    def stats(self) -> Dict[str, object]:
        stats = self.manager.stats()
        stats["url"] = self.url
        stats["results_dir"] = str(self.store.root)
        return stats


def run_server(
    results_dir: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 4,
    checkpoint_interval: Optional[int] = 1,
    resume: bool = True,
    drain_timeout: float = DRAIN_TIMEOUT_S,
) -> int:
    """The ``repro serve`` loop: serve until SIGTERM/SIGINT, then drain."""
    server = ExperimentServer(
        results_dir,
        host=host,
        port=port,
        workers=workers,
        checkpoint_interval=checkpoint_interval,
    )
    resumed = server.manager.resume_all() if resume else []
    for hosted in resumed:
        print(f"repro serve: resuming {hosted.label} ({hosted.run_id[:12]})", file=sys.stderr)
    # The machine-readable line loadgen and the CI smoke step parse; stdout
    # and flushed so a pipe reader sees it before the first request.
    print(f"repro serve: listening on {server.url} (results: {server.store.root})", flush=True)

    drained = threading.Event()

    def _on_signal(signum, frame) -> None:
        if drained.is_set():
            return
        drained.set()
        threading.Thread(
            target=lambda: server.drain(drain_timeout), daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        if not drained.is_set():
            drained.set()
            server.drain(drain_timeout)
    summary = {hosted.run_id: hosted.state for hosted in server.manager.sessions()}
    if summary:
        counts: Dict[str, int] = {}
        for state in summary.values():
            counts[state] = counts.get(state, 0) + 1
        rendered = ", ".join(f"{state}={count}" for state, count in sorted(counts.items()))
        print(f"repro serve: drained ({rendered})", file=sys.stderr)
    return 0

"""Service mode: the ``repro serve`` experiment server.

* :mod:`repro.serve.protocol` — wire format: spec payloads, JSONL round
  framing, machine-readable error codes.
* :mod:`repro.serve.session` — hosted runs multiplexed over a worker pool,
  with graceful checkpoint-drain and restart-resume.
* :mod:`repro.serve.server` — the HTTP front (``repro serve``).

Its load generator is ``benchmarks/loadgen.py`` (writes ``BENCH_serve.json``).
"""

from repro.serve.protocol import ProtocolError, parse_spec_payload
from repro.serve.server import ExperimentServer, run_server
from repro.serve.session import HostedRun, SessionManager

__all__ = [
    "ExperimentServer",
    "HostedRun",
    "ProtocolError",
    "SessionManager",
    "parse_spec_payload",
    "run_server",
]

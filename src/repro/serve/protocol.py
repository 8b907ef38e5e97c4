"""Wire protocol of ``repro serve``: payload parsing, framing, error codes.

The service speaks plain HTTP/1.1 with JSON bodies; round streams are
JSON-lines over chunked transfer encoding.  Three invariants keep clients
simple and the server honest:

* **Validation is the library's validation.**  A submitted spec payload is
  routed through :func:`repro.api.experiment` — the same fluent builder
  every other entry point uses — so an unknown algorithm/dataset/
  scenario/scale fails fast with *exactly* the registry's error message,
  before any experiment state exists.
* **Stream framing is storage framing.**  Each streamed round is the same
  ``json.dumps(..., sort_keys=True)`` line the :class:`repro.api.RunStore`
  appends to ``rounds.jsonl``, so a client that saves the stream to a file
  reproduces the store's records byte for byte.  The stream's final line
  is a trailer object carrying an ``"event"`` key — round records never
  have one — so clients can split data from control without heuristics.
* **Errors are machine-readable.**  Every failure body is
  ``{"error": <code>, "message": <human text>}`` with a stable code from
  the table below; HTTP status classes mirror the codes.

Error codes:

=====================  ======  ===========================================
code                   status  meaning
=====================  ======  ===========================================
``invalid_json``       400     request body is not parseable JSON / JSONL
``bad_request``        400     structurally valid but malformed request
``invalid_spec``       422     spec rejected by registry validation
``unknown_run``        404     no such run (active or stored)
``run_not_active``     409     run exists but is not live (checkins/cancel)
``no_dynamics``        409     run has no scenario dynamics to check into
``store_conflict``     409     another writer holds the run's store lock
``draining``           503     server is shutting down; resubmit elsewhere
=====================  ======  ===========================================
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, Optional, Tuple

from repro.api.store import _jsonable
from repro.fl.config import ExperimentConfig, drop_retired_keys
from repro.fl.metrics import RoundRecord

ERR_INVALID_JSON = "invalid_json"
ERR_BAD_REQUEST = "bad_request"
ERR_INVALID_SPEC = "invalid_spec"
ERR_UNKNOWN_RUN = "unknown_run"
ERR_RUN_NOT_ACTIVE = "run_not_active"
ERR_NO_DYNAMICS = "no_dynamics"
ERR_STORE_CONFLICT = "store_conflict"
ERR_DRAINING = "draining"

#: Error code -> HTTP status.
ERROR_STATUS: Dict[str, int] = {
    ERR_INVALID_JSON: 400,
    ERR_BAD_REQUEST: 400,
    ERR_INVALID_SPEC: 422,
    ERR_UNKNOWN_RUN: 404,
    ERR_RUN_NOT_ACTIVE: 409,
    ERR_NO_DYNAMICS: 409,
    ERR_STORE_CONFLICT: 409,
    ERR_DRAINING: 503,
}


class ProtocolError(Exception):
    """A client-visible failure with a stable code and HTTP status."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.status = ERROR_STATUS.get(code, 500)

    def body(self) -> Dict[str, str]:
        return {"error": self.code, "message": self.message}


# ----------------------------------------------------------------- payloads
#: Fields a spec payload may carry; anything else is rejected loudly so a
#: typo ("dataest") cannot silently run the default experiment.
SPEC_FIELDS = ("algorithm", "dataset", "partition", "scale", "scenario",
               "seed", "label", "overrides")


def parse_spec_payload(payload: object) -> Tuple[ExperimentConfig, str]:
    """Build a validated ``(config, label)`` from a submit payload.

    The payload mirrors the fluent builder::

        {"algorithm": "aergia", "dataset": "fmnist", "partition": "noniid",
         "scale": "smoke", "scenario": "churn", "seed": 3,
         "overrides": {"rounds": 5}, "label": "my-run"}

    Every field is optional (the builder's defaults apply) and every value
    passes through the corresponding :class:`repro.api.ExperimentSpec`
    method, so validation failures carry the registry's own messages.
    """
    import repro.api as api

    if not isinstance(payload, dict):
        raise ProtocolError(ERR_BAD_REQUEST, "spec payload must be a JSON object")
    unknown = sorted(set(payload) - set(SPEC_FIELDS))
    if unknown:
        raise ProtocolError(
            ERR_INVALID_SPEC,
            f"unknown spec field(s): {', '.join(unknown)}; "
            f"valid fields: {', '.join(SPEC_FIELDS)}",
        )
    try:
        spec = api.experiment(str(payload.get("algorithm", "fedavg")))
        if "dataset" in payload:
            spec = spec.dataset(str(payload["dataset"]))
        if "partition" in payload:
            spec = spec.partition(str(payload["partition"]))
        if "scale" in payload:
            spec = spec.scale(str(payload["scale"]))
        if "scenario" in payload:
            spec = spec.scenario(str(payload["scenario"]))
        if "seed" in payload:
            spec = spec.seed(int(payload["seed"]))
        if "label" in payload:
            spec = spec.label(str(payload["label"]))
        overrides = payload.get("overrides") or {}
        if not isinstance(overrides, dict):
            raise ProtocolError(ERR_BAD_REQUEST, "overrides must be a JSON object")
        # A submitter written against an earlier release may still set a
        # retired field: same run when it named no change, refused otherwise.
        overrides = drop_retired_keys(overrides)
        if overrides:
            spec = spec.override(**overrides)
        return spec.build(), spec.run_label
    except ProtocolError:
        raise
    except (TypeError, ValueError) as exc:
        # The registry/builder error, verbatim: same message the library
        # raises, so server and library clients debug identically.
        raise ProtocolError(ERR_INVALID_SPEC, str(exc))


# ------------------------------------------------------------------ framing
def record_line(record: RoundRecord) -> str:
    """One streamed round, framed exactly like a ``rounds.jsonl`` line."""
    return json.dumps(_jsonable(dataclasses.asdict(record)), sort_keys=True)


def trailer_line(state: str, rounds: int, error: Optional[str] = None) -> str:
    """The stream's final control line (the only line with an ``event`` key)."""
    trailer: Dict[str, object] = {"event": "end", "state": state, "rounds": rounds}
    if error:
        trailer["error"] = error
    return json.dumps(trailer, sort_keys=True)


def parse_json_body(raw: bytes) -> object:
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise ProtocolError(ERR_INVALID_JSON, "request body is not valid JSON")


def parse_jsonl_body(raw: bytes) -> list:
    """Parse a JSON-lines body (the ``/checkin`` batch format)."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolError(ERR_INVALID_JSON, "request body is not valid UTF-8")
    items = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            items.append(json.loads(line))
        except ValueError:
            raise ProtocolError(ERR_INVALID_JSON, f"line {lineno} is not valid JSON")
    return items

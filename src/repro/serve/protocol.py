"""The serving protocol: request/response shapes and error codes.

One schema (``repro-serve/1``) is spoken over both transports:

* **JSON-over-HTTP** (:mod:`repro.serve.http`): REST-ish endpoints
  (``POST /compile``, ``GET /metrics``, ...) where protocol errors map
  onto HTTP status codes (429 for queue overflow with a ``Retry-After``
  header, 504 for a missed deadline, 413 for an oversized body);
* **stdio JSON-RPC** (:mod:`repro.serve.stdio`): one JSON envelope per
  line -- ``{"id": ..., "method": ..., "params": {...}}`` in,
  ``{"id": ..., "result": ...}`` or ``{"id": ..., "error": {...}}``
  out.

A ``compile`` result carries the manifest ``entry`` -- byte-for-byte
the entry a ``repro batch`` worker would have produced for the same
(source, config, workload) -- plus serving sideband (``tier``,
``attempts``, ``wall_ms``, ``queue_ms``) that never leaks into the
entry itself, so served manifests stay diffable against CLI manifests.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import CONFIG_FACTORIES

__all__ = [
    "DEFAULT_MAX_BODY_BYTES",
    "ERR_BAD_REQUEST",
    "ERR_CRASHED",
    "ERR_DEADLINE",
    "ERR_INTERNAL",
    "ERR_OVERSIZED",
    "ERR_QUEUE_FULL",
    "ERR_SHUTTING_DOWN",
    "ERR_UNKNOWN_METHOD",
    "PROTOCOL_SCHEMA",
    "BadRequest",
    "ServeRejection",
    "error_body",
    "http_status_for",
    "normalize_compile_params",
]

PROTOCOL_SCHEMA = "repro-serve/1"

#: Default request-body ceiling (HTTP body or stdio line).  Oversized
#: requests are rejected before parsing -- a malformed gigabyte must
#: cost the daemon nothing.
DEFAULT_MAX_BODY_BYTES = 4 * 1024 * 1024

ERR_BAD_REQUEST = "bad_request"
ERR_OVERSIZED = "oversized"
ERR_QUEUE_FULL = "queue_full"
ERR_DEADLINE = "deadline"
ERR_CRASHED = "crashed"
ERR_SHUTTING_DOWN = "shutting_down"
ERR_UNKNOWN_METHOD = "unknown_method"
ERR_INTERNAL = "internal"

#: Protocol error code -> HTTP status.  429 + Retry-After is the
#: backpressure signal admission control emits when the queue is full.
_HTTP_STATUS = {
    ERR_BAD_REQUEST: 400,
    ERR_UNKNOWN_METHOD: 404,
    ERR_OVERSIZED: 413,
    ERR_QUEUE_FULL: 429,
    ERR_INTERNAL: 500,
    ERR_SHUTTING_DOWN: 503,
    ERR_DEADLINE: 504,
}

#: Fuel ceiling accepted from the wire (matches the CLI default's
#: order of magnitude; a request cannot buy an unbounded interpreter
#: run just by sending a big number).
MAX_FUEL = 1_000_000_000


def http_status_for(code: str) -> int:
    return _HTTP_STATUS.get(code, 500)


class BadRequest(ValueError):
    """A request that fails validation (code ``bad_request``)."""


class ServeRejection(RuntimeError):
    """A structured protocol-level rejection (not a compile failure).

    ``code`` is one of the ``ERR_*`` constants; ``retry_after`` (seconds)
    accompanies ``queue_full`` so clients can back off intelligently.
    """

    def __init__(
        self, code: str, message: str, retry_after: Optional[float] = None
    ):
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after

    @property
    def http_status(self) -> int:
        return http_status_for(self.code)

    def body(self) -> Dict:
        return error_body(self.code, str(self), retry_after=self.retry_after)


def error_body(
    code: str, message: str, retry_after: Optional[float] = None
) -> Dict:
    """The canonical error payload both transports emit."""
    error: Dict = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = round(retry_after, 3)
    return {"schema": PROTOCOL_SCHEMA, "error": error}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BadRequest(message)


def normalize_compile_params(params) -> Dict:
    """Validate and normalize ``compile`` params into a worker task.

    Returns the picklable task dict :func:`repro.batch.worker.
    compile_program_task` consumes (``rid``/``timeout_s`` are stamped
    on later by the service).  Raises :class:`BadRequest` on anything
    malformed; validation must be total -- a garbage request can never
    reach the worker pool."""
    _require(isinstance(params, dict), "params must be a JSON object")
    source = params.get("source")
    _require(isinstance(source, str) and source.strip() != "",
             "params.source must be a non-empty string")
    path = params.get("path", "<request>")
    _require(isinstance(path, str) and path != "",
             "params.path must be a non-empty string")
    config = params.get("config", "best")
    _require(config in CONFIG_FACTORIES,
             f"params.config must be one of {tuple(CONFIG_FACTORIES)}")
    overrides = params.get("config_overrides") or {}
    _require(
        isinstance(overrides, dict)
        and all(isinstance(k, str) for k in overrides),
        "params.config_overrides must be an object with string keys",
    )
    entry = params.get("entry", "main")
    _require(isinstance(entry, str) and entry.isidentifier(),
             "params.entry must be an identifier")
    args = params.get("args", [])
    _require(
        isinstance(args, list)
        and all(isinstance(a, int) and not isinstance(a, bool) for a in args),
        "params.args must be a list of integers",
    )
    fuel = params.get("fuel", 50_000_000)
    _require(
        isinstance(fuel, int) and not isinstance(fuel, bool)
        and 0 < fuel <= MAX_FUEL,
        f"params.fuel must be an integer in (0, {MAX_FUEL}]",
    )
    deadline_ms = params.get("deadline_ms")
    if deadline_ms is not None:
        _require(
            isinstance(deadline_ms, (int, float))
            and not isinstance(deadline_ms, bool) and deadline_ms > 0,
            "params.deadline_ms must be a positive number",
        )
    unknown = set(params) - {
        "source", "path", "config", "config_overrides", "entry", "args",
        "fuel", "deadline_ms",
    }
    _require(not unknown,
             f"unknown params: {', '.join(sorted(unknown))}")
    return {
        "path": path,
        "name": path.rsplit("/", 1)[-1].split(".")[0] or "m",
        "source": source,
        "config": config,
        "config_overrides": dict(overrides),
        "entry": entry,
        "args": [int(a) for a in args],
        "fuel": fuel,
        "deadline_ms": deadline_ms,
    }


def corpus_requests(paths: List[str], **common) -> List[Dict]:
    """Build one compile-params dict per source file (client helper:
    the smoke script and benchmarks map a corpus directory onto
    requests the same way ``repro batch`` expands its inputs)."""
    requests = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        import os

        params = {"source": source, "path": os.path.basename(path)}
        params.update(common)
        requests.append(params)
    return requests

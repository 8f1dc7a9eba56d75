"""Compilation-as-a-service: the ``repro serve`` warm-worker daemon.
See ``docs/serving.md``.

The package splits along the request path:

* :mod:`repro.serve.protocol` -- the wire schema (``repro-serve/1``),
  error codes and their HTTP mapping, request validation;
* :mod:`repro.serve.memcache` -- the in-memory LRU tier sharing the
  disk cache's content-addressed keys;
* :mod:`repro.serve.service` -- admission control, cache tiers,
  deadlines, metrics, request log: the transport-agnostic core;
* :mod:`repro.serve.http` / :mod:`repro.serve.stdio` -- the two
  transports (JSON-over-HTTP on localhost, JSON-RPC over stdio);
* :mod:`repro.serve.daemon` -- warm-up, assembly and lifecycle
  (``repro serve``'s body) around the compile-worker pool ``repro
  batch`` uses (:class:`repro.batch.lifecycle.WorkerPool`);
* :mod:`repro.serve.client` -- the client and daemon-spawning helpers
  the tests, benchmark, and CI smoke script share.

The central invariant, enforced by the differential test battery: a
served ``compile`` returns the *byte-identical* manifest entry the
``repro compile`` / ``repro batch`` CLI produces for the same (source,
config, workload) -- the daemon only moves work between cache tiers
and warm processes, never changes its meaning.
"""

from repro.serve.client import (
    DaemonHandle,
    ServeClient,
    ServeError,
    start_daemon,
)
from repro.serve.daemon import prime_process, run_daemon
from repro.serve.memcache import MemoryCache
from repro.serve.protocol import (
    DEFAULT_MAX_BODY_BYTES,
    PROTOCOL_SCHEMA,
    BadRequest,
    ServeRejection,
    corpus_requests,
    error_body,
    http_status_for,
    normalize_compile_params,
)
from repro.serve.service import CompileService, RequestLog

__all__ = [
    "BadRequest",
    "CompileService",
    "DEFAULT_MAX_BODY_BYTES",
    "DaemonHandle",
    "MemoryCache",
    "PROTOCOL_SCHEMA",
    "RequestLog",
    "ServeClient",
    "ServeError",
    "ServeRejection",
    "corpus_requests",
    "error_body",
    "http_status_for",
    "normalize_compile_params",
    "prime_process",
    "run_daemon",
    "start_daemon",
]

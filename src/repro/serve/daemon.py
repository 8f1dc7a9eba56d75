"""Daemon assembly and lifecycle: what ``repro serve`` actually runs.

Order of operations matters here:

1. :func:`prime_process` first -- the parent imports the whole
   pipeline and compiles a warm-up program *before* forking, so every
   worker is born warm (Linux ``fork`` start method);
2. fork the compile-worker pool ``repro batch`` also uses
   (:class:`~repro.batch.lifecycle.WorkerPool`, two attempts per
   request) and wait for every worker's ``ready`` message;
3. assemble the :class:`~repro.serve.service.CompileService` (memory
   LRU, admission limits, metrics registry, optional request log),
   whose dispatcher thread drives the pool from then on;
4. bind the transport, then atomically write the ``--ready-file``
   (carrying the actual port -- tests bind port 0) so a supervising
   process knows exactly when requests will be accepted;
5. serve until ``POST /shutdown`` / stdio ``shutdown`` / SIGTERM /
   SIGINT, then drain: stop admissions, stop the listener, close the
   pool.  A clean shutdown exits 0.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from typing import Dict, Optional

from repro.batch.cache import default_cache_dir
from repro.batch.lifecycle import WorkerPool
from repro.obs.telemetry import MetricsRegistry
from repro.serve.http import serve_http
from repro.serve.memcache import MemoryCache
from repro.serve.protocol import DEFAULT_MAX_BODY_BYTES, PROTOCOL_SCHEMA
from repro.serve.service import CompileService, RequestLog
from repro.serve.stdio import serve_stdio
from repro.util.atomicio import atomic_write_json

__all__ = ["WARMUP_SOURCE", "prime_process", "run_daemon"]

#: The tiny MiniC program the daemon compiles before forking workers:
#: touches the frontend, SSA construction, profiling, the cost model
#: and the partition search, so forked children inherit every lazily
#: imported module already hot.
WARMUP_SOURCE = """\
int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        s += (s ^ i) & 7;
    }
    return s;
}
"""


def prime_process() -> None:
    """Import the pipeline and compile the warm-up program once.

    Serve-only: ``repro batch`` forks its workers without it, so a
    batch compiles nothing but its own programs.  Harmless to call
    again (a few milliseconds once everything is hot)."""
    from repro.core.config import (
        anticipated_config,
        basic_config,
        best_config,
    )
    from repro.core.pipeline import Workload, compile_spt
    from repro.frontend import compile_minic

    for factory in (basic_config, best_config, anticipated_config):
        factory()
    module = compile_minic(WARMUP_SOURCE, name="warmup")
    compile_spt(
        module,
        best_config(),
        Workload(entry="main", args=(8,), fuel=100_000),
    )


def _write_ready_file(path: str, payload: Dict) -> None:
    """Atomic write: pollers never observe a torn ready file."""
    atomic_write_json(path, payload, fsync=False)


def run_daemon(
    workers: int = 4,
    host: str = "127.0.0.1",
    port: int = 8750,
    stdio: bool = False,
    queue_limit: int = 64,
    request_timeout_s: float = 60.0,
    program_timeout_s: Optional[float] = None,
    mem_cache_entries: int = 256,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    ready_file: Optional[str] = None,
    request_log_path: Optional[str] = None,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    heartbeat_s: Optional[float] = None,
    log_stream=None,
) -> int:
    """Run the daemon to completion; the process exit code."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    log_stream = log_stream if log_stream is not None else sys.stderr

    def log(message: str) -> None:
        print(f"repro serve: {message}", file=log_stream, flush=True)

    log(f"priming pipeline in pid {os.getpid()} ...")
    prime_process()

    disk_cache_dir = None if no_cache else (cache_dir or default_cache_dir())
    pool = WorkerPool(
        workers, disk_cache_dir, heartbeat_s=heartbeat_s, max_attempts=2,
        unit="request",
    )
    deadline = time.monotonic() + 60.0
    while pool.ready < workers and time.monotonic() < deadline:
        pool.poll()
    if pool.ready < workers:
        log("worker pool failed to become ready within 60s")
        pool.close()
        return 1
    log(f"{workers} warm worker(s) ready")

    memory_cache = (
        MemoryCache(mem_cache_entries) if mem_cache_entries > 0 else None
    )
    service = CompileService(
        pool,
        queue_limit=queue_limit,
        request_timeout_s=request_timeout_s,
        program_timeout_s=program_timeout_s,
        memory_cache=memory_cache,
        metrics=MetricsRegistry(),
        request_log=(
            RequestLog(request_log_path) if request_log_path else None
        ),
    )

    ready_payload: Dict = {
        "schema": PROTOCOL_SCHEMA,
        "pid": os.getpid(),
        "workers": workers,
        "cache_dir": disk_cache_dir,
        "queue_limit": queue_limit,
    }

    try:
        if stdio:
            ready_payload["transport"] = "stdio"
            if ready_file:
                _write_ready_file(ready_file, ready_payload)
            log("serving JSON-RPC on stdio (EOF or `shutdown` to stop)")
            serve_stdio(service, max_body_bytes=max_body_bytes)
            return 0

        server = serve_http(
            service, host=host, port=port, max_body_bytes=max_body_bytes
        )

        def _on_signal(signum, frame):
            service.begin_shutdown()
            # shutdown() joins serve_forever; it must not run on the
            # thread executing the serve_forever loop itself.
            threading.Thread(target=server.shutdown, daemon=True).start()

        previous_handlers = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[signum] = signal.signal(signum, _on_signal)

        ready_payload["transport"] = "http"
        ready_payload["host"] = host
        ready_payload["port"] = server.port
        if ready_file:
            _write_ready_file(ready_file, ready_payload)
        log(f"listening on http://{host}:{server.port}")
        try:
            server.serve_forever(poll_interval=0.05)
        finally:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
            server.server_close()
        log("listener stopped, draining workers")
        return 0
    finally:
        service.close()
        log("shutdown complete")

"""The transport-agnostic serving core behind both daemon transports.

:class:`CompileService` owns the request path a compile takes once it
clears transport framing, in tier order:

1. **Admission.**  At most ``queue_limit`` requests may be in flight;
   the next one is rejected with ``queue_full`` plus a ``retry_after``
   hint (HTTP 429 + ``Retry-After``) -- backpressure, never unbounded
   queueing.  A fault-injection site (``serve.request``, driven by
   ``$REPRO_FAULT``) sits here for the chaos battery.
2. **Memory tier.**  A thread-safe LRU (:class:`repro.serve.memcache.
   MemoryCache`) keyed by the *same* content digest as the disk cache:
   canonical module IR x ``SptConfig.fingerprint()`` x workload.  A
   hit answers in microseconds without touching the pool.
3. **Worker pool.**  Misses are submitted to the compile-worker pool
   ``repro batch`` uses (:class:`repro.batch.lifecycle.WorkerPool`,
   two attempts per request); a dispatcher thread routes each result
   to the handler thread waiting for it.  The worker consults the
   shared content-addressed disk tier and compiles cold if needed,
   under the same SIGALRM watchdog + degraded-ladder retry a ``repro
   batch`` worker uses -- which is exactly why served entries are
   byte-identical to CLI entries.
4. **Deadline.**  The handler thread waits on the pending event at
   most ``min(request deadline, request_timeout_s)``; a miss abandons
   the request (``deadline``, HTTP 504) while the worker's eventual
   result is discarded, and the client never hangs.

Every response is also an observation: counters/histograms go into a
:class:`repro.obs.telemetry.MetricsRegistry` (exported by
``GET /metrics`` through the Prometheus sink) and, when a request log
is configured, one line per request in a :class:`repro.util.JsonlLog`
(the same whole-line append discipline as the run ledger).
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from typing import Dict, Optional

from repro.batch.lifecycle import WorkerPool
from repro.batch.worker import config_from_task, program_key, workload_from_task
from repro.obs.telemetry import MetricsRegistry
from repro.resilience.faults import maybe_inject
from repro.serve.memcache import MemoryCache
from repro.serve.protocol import (
    ERR_DEADLINE,
    ERR_QUEUE_FULL,
    ERR_SHUTTING_DOWN,
    PROTOCOL_SCHEMA,
    ServeRejection,
    normalize_compile_params,
)
from repro.util.store import JsonlLog

__all__ = ["REQUEST_LOG_SCHEMA", "CompileService", "RequestLog"]

REQUEST_LOG_SCHEMA = "repro-serve-log/1"


class RequestLog(JsonlLog):
    """Append-only JSONL record of every served request: handler
    threads (and multiple daemons sharing a log) interleave whole
    lines, never fragments."""

    def __init__(self, path: str):
        super().__init__(path, REQUEST_LOG_SCHEMA)


class CompileService:
    """Admission control + cache tiers + pool dispatch + observation.

    Starts the thread that drives ``pool``; :meth:`close` stops it and
    closes the pool."""

    def __init__(
        self,
        pool: WorkerPool,
        queue_limit: int = 64,
        request_timeout_s: float = 60.0,
        program_timeout_s: Optional[float] = None,
        memory_cache: Optional[MemoryCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        request_log: Optional[RequestLog] = None,
    ):
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.pool = pool
        self.queue_limit = queue_limit
        self.request_timeout_s = request_timeout_s
        self.program_timeout_s = program_timeout_s
        self.memory_cache = memory_cache
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.request_log = request_log
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._inflight = 0
        self._stopping = False
        #: request id -> [completion event, the pool's done/crashed event]
        self._waiting: Dict[int, list] = {}
        self._rids = itertools.count()
        self._closed = False
        self.completed = 0
        self.discarded = 0
        self._dispatcher = threading.Thread(
            target=self._dispatch, daemon=True, name="repro-serve-dispatcher"
        )
        self._dispatcher.start()

    # -- the request path -------------------------------------------------

    def compile(self, params) -> Dict:
        """Serve one ``compile`` request; the protocol-level response.

        Raises :class:`~repro.serve.protocol.BadRequest` on malformed
        params and :class:`~repro.serve.protocol.ServeRejection` for
        queue overflow, missed deadlines, and shutdown."""
        started = time.monotonic()
        maybe_inject("serve.request")
        task = normalize_compile_params(params)
        self.metrics.count("serve.requests")
        with self._lock:
            if self._stopping:
                self.metrics.count("serve.rejected.shutting_down")
                raise ServeRejection(
                    ERR_SHUTTING_DOWN, "daemon is shutting down"
                )
            if self._inflight >= self.queue_limit:
                self.metrics.count("serve.rejected.queue_full")
                raise ServeRejection(
                    ERR_QUEUE_FULL,
                    f"admission queue full "
                    f"({self._inflight}/{self.queue_limit} in flight)",
                    retry_after=self._retry_after_hint(),
                )
            self._inflight += 1
        try:
            return self._serve(task, started)
        finally:
            with self._lock:
                self._inflight -= 1

    def _serve(self, task: Dict, started: float) -> Dict:
        key = self._program_key(task)

        if key is not None and self.memory_cache is not None:
            payload = self.memory_cache.get(key)
            if payload is not None:
                entry = {
                    "path": task["path"],
                    "sha256": hashlib.sha256(
                        task["source"].encode("utf-8")
                    ).hexdigest(),
                }
                entry.update(payload)
                entry["cached"] = True
                return self._respond(entry, tier="memory", attempts=0,
                                     started=started)

        deadline_s = self.request_timeout_s
        if task.get("deadline_ms"):
            deadline_s = min(deadline_s, task["deadline_ms"] / 1000.0)
        worker_task = {
            name: value
            for name, value in task.items()
            if name != "deadline_ms"
        }
        if self.program_timeout_s:
            worker_task["timeout_s"] = self.program_timeout_s

        rid = next(self._rids)
        waiter = [threading.Event(), None]
        with self._lock:
            self._waiting[rid] = waiter
        try:
            self.pool.submit(rid, worker_task)
        except RuntimeError:
            with self._lock:
                self._waiting.pop(rid, None)
            self.metrics.count("serve.rejected.shutting_down")
            raise ServeRejection(
                ERR_SHUTTING_DOWN, "worker pool is shutting down"
            )
        queue_wait_started = time.monotonic()
        if not waiter[0].wait(deadline_s):
            # Abandon: the worker's eventual result is discarded.
            with self._lock:
                self._waiting.pop(rid, None)
            self.metrics.count("serve.rejected.deadline")
            raise ServeRejection(
                ERR_DEADLINE,
                f"request missed its {deadline_s:g}s deadline",
            )
        result = waiter[1]
        if result is None:
            self.metrics.count("serve.rejected.shutting_down")
            raise ServeRejection(
                ERR_SHUTTING_DOWN,
                "daemon shut down before the request completed",
            )
        self.metrics.observe(
            "serve.pool.wait_ms",
            (time.monotonic() - queue_wait_started) * 1e3,
        )

        entry = result["entry"]
        if entry.get("status") == "crashed":
            tier = "crashed"
        elif entry.get("cached"):
            tier = "disk"
        else:
            tier = "compute"
        if (
            key is not None
            and self.memory_cache is not None
            and entry.get("status") == "ok"
        ):
            payload = {
                name: value
                for name, value in entry.items()
                if name not in ("path", "sha256")
            }
            self.memory_cache.put(key, payload)
        return self._respond(entry, tier=tier, attempts=result["attempts"],
                             started=started)

    def _dispatch(self) -> None:
        """Route each finished request to the handler thread waiting
        for it, until :meth:`close`."""
        while not self._closed:
            for event in self.pool.poll():
                if event["kind"] not in ("done", "crashed"):
                    continue
                with self._lock:
                    waiter = self._waiting.pop(event["id"], None)
                if waiter is None:
                    # The client already gave up (deadline): drop it.
                    self.discarded += 1
                    continue
                if event["kind"] == "done":
                    self.completed += 1
                waiter[1] = event
                waiter[0].set()

    # -- helpers ----------------------------------------------------------

    def _program_key(self, task: Dict) -> Optional[str]:
        """The shared content digest, or None when the program will not
        canonicalize (parse errors go to a worker so the error entry is
        produced by the same code path the CLI uses)."""
        try:
            return program_key(
                task, config_from_task(task), workload_from_task(task)
            )
        except Exception:  # noqa: BLE001 - any failure means "no key"
            return None

    def _retry_after_hint(self) -> float:
        """Seconds a rejected client should back off: the observed warm
        p50 request latency scaled by queue depth per worker, clamped
        to a sane band."""
        snapshot = self.metrics.histograms.get("serve.request.wall_ms")
        p50_ms = 5.0
        if snapshot is not None and snapshot.count:
            p50_ms = snapshot.quantile(0.5)
        depth_per_worker = self.queue_limit / max(self.pool.size, 1)
        hint = (p50_ms / 1000.0) * depth_per_worker
        return min(max(hint, 0.05), 5.0)

    def _respond(
        self, entry: Dict, tier: str, attempts: int, started: float
    ) -> Dict:
        wall_ms = (time.monotonic() - started) * 1e3
        status = entry.get("status", "error")
        self.metrics.count("serve.responses")
        self.metrics.count(f"serve.tier.{tier}")
        self.metrics.count(f"serve.status.{status}")
        self.metrics.observe("serve.request.wall_ms", wall_ms)
        self.metrics.observe(f"serve.tier.{tier}.wall_ms", wall_ms)
        if entry.get("degraded"):
            self.metrics.count("serve.degraded")
        serve_info = {
            "tier": tier,
            "attempts": attempts,
            "wall_ms": round(wall_ms, 3),
        }
        if self.request_log is not None:
            self.request_log.append(
                {
                    "ts": round(time.time(), 3),
                    "path": entry.get("path"),
                    "sha256": entry.get("sha256"),
                    "status": status,
                    "tier": tier,
                    "attempts": attempts,
                    "wall_ms": round(wall_ms, 3),
                }
            )
        return {
            "schema": PROTOCOL_SCHEMA,
            "entry": entry,
            "serve": serve_info,
        }

    # -- introspection / lifecycle -----------------------------------------

    def stats(self) -> Dict:
        """The ``GET /healthz`` payload."""
        with self._lock:
            inflight = self._inflight
        stats: Dict = {
            "schema": PROTOCOL_SCHEMA,
            "status": "stopping" if self._stopping else "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "inflight": inflight,
            "queue_limit": self.queue_limit,
            "pool": self._pool_stats(),
        }
        if self.memory_cache is not None:
            stats["memory_cache"] = self.memory_cache.snapshot()
        return stats

    def metrics_snapshot(self) -> Dict:
        snapshot = self.metrics.snapshot()
        if self.memory_cache is not None:
            memory = self.memory_cache.snapshot()
            counters = snapshot["counters"]
            counters["serve.memcache.hits"] = memory["hits"]
            counters["serve.memcache.misses"] = memory["misses"]
            counters["serve.memcache.evictions"] = memory["evictions"]
            gauges = snapshot["gauges"]
            gauges["serve.memcache.entries"] = memory["entries"]
            gauges["serve.memcache.bytes"] = memory["bytes"]
        pool = self._pool_stats()
        snapshot["gauges"]["serve.pool.alive"] = pool["alive"]
        for name in ("crashes", "respawns", "retries", "discarded"):
            snapshot["counters"][f"serve.pool.{name}"] = pool[name]
        return snapshot

    def _pool_stats(self) -> Dict:
        with self._lock:
            inflight = len(self._waiting)
        return dict(
            self.pool.stats(),
            inflight=inflight,
            completed=self.completed,
            discarded=self.discarded,
        )

    def begin_shutdown(self) -> None:
        """Start rejecting new work (``shutting_down``); in-flight
        requests drain normally."""
        with self._lock:
            self._stopping = True

    def close(self) -> None:
        """Stop the dispatcher and the pool; a request still waiting is
        answered ``shutting_down``."""
        self.begin_shutdown()
        self._closed = True
        self._dispatcher.join(timeout=2.0)
        self.pool.close()
        with self._lock:
            leftovers = list(self._waiting.values())
            self._waiting.clear()
        for waiter in leftovers:
            waiter[0].set()

"""The compile-worker pool behind ``repro batch``.

``run_batch`` runs the paper's two-pass compilation (§3.2) once per
program in forked worker processes, and :class:`WorkerPool` is the only
code that forks those workers and watches them:

* every worker runs :func:`worker_main`: per work item a ``start``
  message, heartbeats from a daemon thread while the item is in flight,
  and a ``done`` message carrying the manifest entry -- plus the
  worker-side telemetry totals when the pool was built with
  ``observe=True``;
* each worker stores the id of the item it claimed in a shared-memory
  claim slot.  Queue messages travel through a pipe a dying process may
  never finish writing to; a shared-memory store is visible at once, so
  a hard death (segfault, ``os._exit``) is always charged to the right
  item;
* when a worker dies, :meth:`WorkerPool.poll` first drains the result
  queue (the claimed item may in fact have finished), then respawns the
  worker and resolves the claimed item as a structured
  ``status: "crashed"`` entry.

Fault injection: ``$REPRO_BATCH_CRASH_ON=<substr>`` makes a worker
hard-exit with code 13 right after claiming any item whose path contains
``substr``.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import queue
import threading
from typing import Dict, List, Optional

from repro.batch.cache import ResultCache
from repro.batch.worker import compile_program_task

__all__ = [
    "CRASH_ENV_VAR",
    "CRASH_EXIT_CODE",
    "WorkerPool",
    "crashed_entry",
    "worker_main",
]

CRASH_ENV_VAR = "REPRO_BATCH_CRASH_ON"
CRASH_EXIT_CODE = 13

#: The claim-slot value meaning "no work item in flight".
NO_CLAIM = -1


def crashed_entry(task: Dict, exitcode: Optional[int], message: str) -> Dict:
    """The manifest entry of an item no worker finished."""
    return {
        "path": task["path"],
        "sha256": hashlib.sha256(task["source"].encode("utf-8")).hexdigest(),
        "status": "crashed",
        "error": {
            "exitcode": exitcode if exitcode is not None else -1,
            "message": message,
        },
    }


def _should_crash(path: str) -> bool:
    """Whether ``$REPRO_BATCH_CRASH_ON`` fires for the item at ``path``."""
    substring = os.environ.get(CRASH_ENV_VAR)
    return bool(substring) and substring in path


def _start_heartbeat_thread(
    result_queue, worker_id: int, claim, heartbeat_s: float
) -> threading.Event:
    """Start the worker-side liveness thread; returns its stop event.

    The thread reports the claimed id every ``heartbeat_s`` seconds
    while one is in flight.  SimpleQueue.put writes the pipe
    synchronously under a lock, so the heartbeat thread and the worker
    main loop can share the result queue.  The thread reads the shared
    claim slot rather than any in-process state, so a main thread
    wedged inside a compilation still heartbeats -- that is the point:
    heartbeats mean "process alive"; hung *programs* remain the
    per-program timeout's job."""
    stop = threading.Event()

    def beat():
        while not stop.wait(heartbeat_s):
            item_id = claim.value
            if item_id == NO_CLAIM:
                continue
            try:
                result_queue.put(
                    {"kind": "heartbeat", "worker": worker_id, "id": item_id}
                )
            except Exception:  # noqa: BLE001 - queue torn down at exit
                return

    thread = threading.Thread(
        target=beat, daemon=True, name=f"repro-heartbeat-{worker_id}"
    )
    thread.start()
    return stop


def worker_main(
    task_queue,
    result_queue,
    worker_id: int,
    cache_dir: Optional[str],
    claim,
    heartbeat_s: float,
    observe: bool = False,
) -> None:
    """Body of one worker process: compile ``(id, task)`` items until
    the ``None`` sentinel, then return.  A worker whose parent was
    killed (it has been reparented) returns too, within a second of
    going idle, instead of waiting for a sentinel nobody will send.

    Each item runs under a fresh :class:`~repro.core.config.SptConfig`
    rebuilt from the task, so no configuration state leaks between the
    items a process compiles.  ``heartbeat_s`` paces the liveness
    thread; ``observe=True`` runs each compilation under a fresh
    observing telemetry and ships its counter/gauge totals and its
    self seconds per span name back in the ``done`` message."""
    parent = os.getppid()
    cache = ResultCache(cache_dir) if cache_dir else None
    stop_heartbeat = _start_heartbeat_thread(
        result_queue, worker_id, claim, heartbeat_s
    )
    try:
        while os.getppid() == parent:
            try:
                item = task_queue.get(timeout=1.0)
            except queue.Empty:
                continue
            if item is None:
                break
            item_id, task = item
            claim.value = item_id
            result_queue.put(
                {"kind": "start", "worker": worker_id, "id": item_id}
            )
            if _should_crash(task["path"]):
                # Simulated hard death: no cleanup, no queue flush.
                os._exit(CRASH_EXIT_CODE)
            telemetry = None
            if observe:
                from repro.obs.telemetry import Telemetry

                telemetry = Telemetry()
            entry, stats = compile_program_task(task, cache, telemetry)
            message = {
                "kind": "done",
                "worker": worker_id,
                "id": item_id,
                "entry": entry,
                "stats": stats,
            }
            if telemetry is not None:
                telemetry.close()
                message["counters"] = dict(telemetry.counters)
                message["gauges"] = dict(telemetry.gauges)
                message["phases"] = telemetry.phase_self_durations()
            result_queue.put(message)
            claim.value = NO_CLAIM
    finally:
        stop_heartbeat.set()


class WorkerPool:
    """``size`` forked workers sharing one task queue and one result
    queue.

    :meth:`submit` queues a task under a caller-chosen integer id;
    :meth:`poll` reports what happened since the last call.
    """

    def __init__(
        self,
        size: int,
        cache_dir: Optional[str],
        heartbeat_s: float,
        observe: bool = False,
    ):
        self._worker_args = (heartbeat_s, observe)
        self._cache_dir = cache_dir
        self._ctx = multiprocessing.get_context()
        self._tasks = self._ctx.Queue()
        # Results travel over a SimpleQueue on purpose: its put() writes
        # to the pipe synchronously in the calling thread, so a worker
        # that hard-dies right after put() cannot strand finished results
        # in an unflushed feeder-thread buffer (mp.Queue would).
        self._results = self._ctx.SimpleQueue()
        #: worker id -> (process, claim slot)
        self._workers: Dict[int, tuple] = {}
        #: item id -> task, until its ``done`` arrives
        self._inflight: Dict[int, Dict] = {}
        self._next_worker = 0
        for _ in range(size):
            self._spawn()

    def _spawn(self) -> None:
        worker_id = self._next_worker
        self._next_worker += 1
        claim = self._ctx.Value("l", NO_CLAIM, lock=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(self._tasks, self._results, worker_id, self._cache_dir,
                  claim) + self._worker_args,
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )
        process.start()
        self._workers[worker_id] = (process, claim)

    def submit(self, item_id: int, task: Dict) -> None:
        self._inflight[item_id] = task
        self._tasks.put((item_id, task))

    def poll(self, timeout: float = 0.05) -> List[Dict]:
        """Block until a message arrives or a worker dies (at most
        ``timeout`` seconds), then return the events in order: worker
        messages, an ``exit`` event per dead worker, and a ``crashed``
        event (with its manifest ``entry``) per item a dead worker
        had claimed."""
        # Imported here: a fresh `import repro.batch` stays free of the
        # subprocess machinery this pulls in, and the pool's queues have
        # already loaded it by the time anything polls.
        from multiprocessing.connection import wait

        # SimpleQueue has no public waitable handle; its read end makes
        # the wait wake on results as well as on worker deaths.
        wait([self._results._reader]
             + [process.sentinel for process, _ in self._workers.values()],
             timeout)
        events = self._drain()
        for worker_id, (process, claim) in list(self._workers.items()):
            if process.is_alive():
                continue
            # Absorb what the dead worker sent before charging its
            # claim: the claimed item may in fact have finished.
            events += self._drain()
            del self._workers[worker_id]
            events += self._on_death(worker_id, process.exitcode, claim.value)
        return events

    def _drain(self) -> List[Dict]:
        events = []
        while not self._results.empty():
            message = self._results.get()
            if message["kind"] == "done":
                self._inflight.pop(message["id"], None)
            events.append(message)
        return events

    def _on_death(
        self, worker_id: int, exitcode: int, claimed: int
    ) -> List[Dict]:
        events = [{"kind": "exit", "worker": worker_id, "exitcode": exitcode}]
        if exitcode == 0:
            return events  # returned after its sentinel
        self._spawn()
        task = self._inflight.pop(claimed, None)
        if task is None:
            return events
        message = (f"worker process died (exit code {exitcode}) while "
                   f"compiling this program")
        events.append({
            "kind": "crashed", "worker": worker_id, "id": claimed,
            "entry": crashed_entry(task, exitcode, message),
        })
        return events

    def close(self, grace_s: float = 2.0) -> None:
        """Send every worker its sentinel and join it, terminating a
        straggler after ``grace_s``; then release the queues."""
        for _ in self._workers:
            self._tasks.put(None)
        for process, _claim in self._workers.values():
            process.join(grace_s)
            if process.is_alive():
                process.terminate()
                process.join(grace_s)
        self._workers.clear()
        self._tasks.cancel_join_thread()
        self._results.close()

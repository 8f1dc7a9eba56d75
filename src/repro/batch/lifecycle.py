"""The compile-worker pool behind ``repro batch``.

``run_batch`` runs the paper's two-pass compilation (§3.2) once per
program in forked worker processes, and :class:`WorkerPool` is the only
code that forks those workers and watches them:

* each worker has its own pipe and holds at most one program: the pool
  sends it one ``(id, task)`` item, the worker runs
  :func:`worker_main`'s loop on it and answers with a ``done`` message
  carrying the manifest entry -- plus the worker-side telemetry totals
  when the pool was built with ``observe=True`` -- and only then gets
  the next item;
* so the pool always knows which program each worker holds.  When a
  worker exits, :meth:`WorkerPool.poll` first drains its pipe (the
  program may in fact have finished), then charges the program it
  still holds, if any, to that worker as a structured
  ``status: "crashed"`` entry and respawns the worker.  A clean exit
  while holding a program is charged too.

Fault injection: ``$REPRO_BATCH_CRASH_ON=<substr>`` makes a worker
hard-exit with code 13 right after it receives any item whose path
contains ``substr``.
"""

from __future__ import annotations

import collections
import hashlib
import multiprocessing
import os
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


def crashed_entry(task: Dict, exitcode: int, message: str) -> Dict:
    """The manifest entry of an item no worker finished."""
    return {
        "path": task["path"],
        "sha256": hashlib.sha256(task["source"].encode("utf-8")).hexdigest(),
        "status": "crashed",
        "error": {"exitcode": exitcode, "message": message},
    }


def _should_crash(path: str) -> bool:
    """Whether ``$REPRO_BATCH_CRASH_ON`` fires for the item at ``path``."""
    substring = os.environ.get(CRASH_ENV_VAR)
    return bool(substring) and substring in path


def worker_main(
    conn, worker_id: int, cache_dir: Optional[str], observe: bool = False
) -> None:
    """Body of one worker process: receive ``(id, task)`` items over
    ``conn`` one at a time and answer each with its ``done`` message,
    until the ``None`` sentinel or the end of the pipe, then return.  A
    worker whose parent was killed (it has been reparented) returns
    too, within a second of going idle, instead of waiting for a
    sentinel nobody will send.

    Each item runs under a fresh :class:`~repro.core.config.SptConfig`
    rebuilt from the task, so no configuration state leaks between the
    items a process compiles.  ``observe=True`` runs each compilation
    under a fresh observing telemetry and ships its counter/gauge
    totals and its self seconds per span name back in the ``done``
    message."""
    parent = os.getppid()
    cache = ResultCache(cache_dir) if cache_dir else None
    while os.getppid() == parent:
        if not conn.poll(1.0):
            continue
        try:
            item = conn.recv()
        except EOFError:
            return
        if item is None:
            return
        item_id, task = item
        if _should_crash(task["path"]):
            # Simulated hard death: no cleanup, no reply.
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
        conn.send(message)


class _Worker:
    """One forked worker: its process, the driver's end of its pipe and
    the ``(id, task)`` item it holds (None while idle)."""

    __slots__ = ("id", "process", "conn", "item")

    def __init__(self, worker_id: int, process, conn):
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.item = None


class WorkerPool:
    """``size`` forked workers, each fed one item at a time over its own
    pipe.

    :meth:`submit` queues a task under a caller-chosen integer id;
    :meth:`poll` hands queued tasks to idle workers and reports what
    happened since the last call.
    """

    def __init__(self, size: int, cache_dir: Optional[str],
                 observe: bool = False):
        self._worker_args = (cache_dir, observe)
        self._ctx = multiprocessing.get_context()
        #: ``(id, task)`` items no worker holds yet, in submission order
        self._queue = collections.deque()
        self._workers: Dict[int, _Worker] = {}
        self._next_worker = 0
        for _ in range(size):
            self._spawn()

    def _spawn(self) -> None:
        worker_id = self._next_worker
        self._next_worker += 1
        conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, worker_id) + self._worker_args,
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )
        process.start()
        # The worker now holds the pipe's only other end, so its death
        # reads as EOF at once.
        child_conn.close()
        self._workers[worker_id] = _Worker(worker_id, process, conn)

    def submit(self, item_id: int, task: Dict) -> None:
        self._queue.append((item_id, task))

    def poll(self, timeout: float = 0.05) -> List[Dict]:
        """Hand queued items to idle workers, block until a worker
        answers or dies (at most ``timeout`` seconds), then return the
        events in order: a ``start`` per item handed out, the workers'
        ``done`` messages, and per dead worker an ``exit`` event and,
        when it held an item, a ``crashed`` event with its manifest
        ``entry``.  A worker that answers ``done`` gets its next item at
        once, before the caller sees the event."""
        # Imported here: a fresh `import repro.batch` stays free of the
        # subprocess machinery this pulls in, and the pool's pipes have
        # already loaded it by the time anything polls.
        from multiprocessing.connection import wait

        events = []
        for worker in self._workers.values():
            events += self._hand_out(worker)
        workers = list(self._workers.values())
        wait([w.conn for w in workers] + [w.process.sentinel for w in workers],
             timeout)
        for worker in workers:
            # Checked before the drain, so a dead worker's pipe is read
            # to its end before what it holds is charged.
            alive = worker.process.is_alive()
            events += self._drain(worker, alive)
            if not alive:
                del self._workers[worker.id]
                events += self._on_death(worker)
        return events

    def _hand_out(self, worker: _Worker) -> List[Dict]:
        if worker.item is not None or not self._queue:
            return []
        item = self._queue.popleft()
        try:
            worker.conn.send(item)
        except OSError:
            # Already dead: the item goes to whoever is idle next.
            self._queue.appendleft(item)
            return []
        worker.item = item
        return [{"kind": "start", "worker": worker.id, "id": item[0]}]

    def _drain(self, worker: _Worker, alive: bool) -> List[Dict]:
        events = []
        try:
            while worker.conn.poll():
                events.append(worker.conn.recv())
                worker.item = None
                if alive:
                    events += self._hand_out(worker)
        except (EOFError, OSError):
            pass  # the worker is gone: reaped once its process is
        return events

    def _on_death(self, worker: _Worker) -> List[Dict]:
        worker.conn.close()
        exitcode = worker.process.exitcode
        events = [{"kind": "exit", "worker": worker.id, "exitcode": exitcode}]
        if exitcode == 0 and worker.item is None:
            return events  # returned while idle: nothing to charge
        self._spawn()
        if worker.item is None:
            return events
        item_id, task = worker.item
        message = (f"worker process died (exit code {exitcode}) while "
                   f"compiling this program")
        events.append({
            "kind": "crashed", "worker": worker.id, "id": item_id,
            "entry": crashed_entry(task, exitcode, message),
        })
        return events

    def close(self, grace_s: float = 2.0) -> None:
        """Send every worker its sentinel and join it, terminating a
        straggler after ``grace_s``; then close the pipes."""
        for worker in self._workers.values():
            try:
                worker.conn.send(None)
            except OSError:
                pass  # already dead
        for worker in self._workers.values():
            worker.process.join(grace_s)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(grace_s)
            worker.conn.close()
        self._workers.clear()

"""The multi-process batch-compilation driver (``repro batch``).

Programs are expanded from directories/globs, sorted, and pushed
through a shared task queue to a pool of worker processes
(:mod:`repro.batch.worker`).  Results arrive in completion order and
are merged back into task order, so the manifest is deterministic
regardless of ``--jobs`` or scheduling.

Crash isolation: each worker advertises the task it claimed through a
shared-memory slot.  When the driver notices a dead worker it first
drains the result queue (the task may in fact have completed), then
charges the still-unaccounted claimed task with a structured
``status: "crashed"`` entry and respawns a replacement worker, so one
bad program can never take down the batch.
"""

from __future__ import annotations

import glob as _glob
import multiprocessing
import os
import time
from typing import Dict, List, Optional

from repro.batch.cache import ResultCache, default_cache_dir
from repro.batch.lifecycle import ClaimedWorker, drain_queue
from repro.batch.manifest import build_manifest
from repro.batch.progress import ProgressTracker
from repro.batch.worker import worker_main
from repro.obs.telemetry import NULL_TELEMETRY
from repro.util.store import StoreStats

__all__ = ["BatchResult", "expand_inputs", "run_batch"]

#: Default seconds of total silence (no results, no live claimed work)
#: before the driver declares the remaining tasks lost.  A backstop for
#: the tiny window where a worker dies between dequeue and claim;
#: normal batches never get near it.  Configurable per run via
#: ``run_batch(stall_timeout=...)`` / ``repro batch --stall-timeout``
#: or :attr:`repro.core.config.SptConfig.batch_stall_timeout_s`.
STALL_TIMEOUT = 60.0

#: Default seconds between worker heartbeats (clamped to a quarter of
#: the stall window so a healthy pool beats several times per window).
HEARTBEAT_S = 0.5

_SOURCE_SUFFIXES = (".c", ".minic", ".ir")


class BatchResult:
    """Everything one batch run produced."""

    def __init__(
        self,
        manifest: Dict,
        entries: List[Dict],
        stats: Dict,
        cache_stats: StoreStats,
    ):
        #: The canonical, run-shape-independent manifest document.
        self.manifest = manifest
        #: Raw per-program entries in input (sorted-path) order,
        #: including volatile fields (``cached``, ``program_key``).
        self.entries = entries
        #: Run-dependent measurements (wall time, jobs, cache rates).
        self.stats = stats
        self.cache_stats = cache_stats

    @property
    def ok(self) -> bool:
        return all(e.get("status") == "ok" for e in self.entries)

    def __repr__(self) -> str:
        return (
            f"BatchResult({self.stats['ok']}/{self.stats['programs']} ok, "
            f"hit_rate={self.cache_stats.hit_rate:.0%})"
        )


def expand_inputs(inputs: List[str]) -> List[str]:
    """Expand directories and glob patterns into a sorted program list.

    Directories contribute every ``*.c``/``*.minic``/``*.ir`` file
    directly inside them; other arguments go through :mod:`glob` and
    then must name files.  Duplicates are dropped; the result is
    sorted for deterministic task numbering."""
    paths: List[str] = []
    for item in inputs:
        if os.path.isdir(item):
            for name in sorted(os.listdir(item)):
                if name.endswith(_SOURCE_SUFFIXES):
                    paths.append(os.path.join(item, name))
            continue
        matches = sorted(_glob.glob(item))
        if not matches:
            raise FileNotFoundError(f"no programs match {item!r}")
        for match in matches:
            if os.path.isfile(match):
                paths.append(match)
    seen = set()
    unique = []
    for path in paths:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    unique.sort(key=_display_path)
    return unique


def _display_path(path: str) -> str:
    """The stable name a program gets in the manifest: its basename
    when unambiguous (the common corpus-directory case would otherwise
    leak absolute temp/workspace paths into goldens)."""
    return os.path.basename(path)


def _build_tasks(
    paths: List[str],
    config_name: str,
    config_overrides: Dict,
    entry: str,
    args,
    fuel: int,
    timeout_s: Optional[float] = None,
) -> List[Dict]:
    display = [_display_path(p) for p in paths]
    if len(set(display)) != len(display):
        # Ambiguous basenames: fall back to the full given paths.
        display = [p.replace(os.sep, "/") for p in paths]
    tasks = []
    for index, (path, name) in enumerate(zip(paths, display)):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        tasks.append(
            {
                "index": index,
                "path": name,
                "name": os.path.basename(path).split(".")[0],
                "source": source,
                "config": config_name,
                "config_overrides": dict(config_overrides or {}),
                "entry": entry,
                "args": list(args),
                "fuel": fuel,
                "timeout_s": timeout_s,
            }
        )
    return tasks


def _crashed_entry(task: Dict, exitcode: Optional[int], message: str) -> Dict:
    import hashlib

    return {
        "path": task["path"],
        "sha256": hashlib.sha256(task["source"].encode("utf-8")).hexdigest(),
        "status": "crashed",
        "error": {
            "exitcode": exitcode if exitcode is not None else -1,
            "message": message,
        },
    }


def run_batch(
    inputs: List[str],
    config_name: str = "best",
    config_overrides: Optional[Dict] = None,
    entry: str = "main",
    args=(),
    fuel: int = 50_000_000,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    cache_max_entries: Optional[int] = None,
    telemetry=None,
    progress=None,
    stall_timeout: Optional[float] = None,
    program_timeout: Optional[float] = None,
    progress_path: Optional[str] = None,
    heartbeat_s: Optional[float] = None,
    status=None,
    resume: bool = False,
    journal_dir: Optional[str] = None,
) -> BatchResult:
    """Compile every program named by ``inputs`` and merge one manifest.

    ``progress`` is an optional callable receiving one finished entry
    at a time (completion order), for CLI streaming output.

    ``stall_timeout`` overrides the driver's liveness backstop (default:
    the config's ``batch_stall_timeout_s``); the backstop fires only
    after that long without any worker heartbeat, start, or result.
    ``program_timeout`` arms a per-program SIGALRM in each worker -- an
    overrunning program is retried once on the degraded ladder
    configuration and only then reported with ``status: "timeout"``.

    Live progress: workers heartbeat every ``heartbeat_s`` seconds
    (default 0.5); ``status`` is an optional callable receiving the
    refreshed one-line status string, and ``progress_path`` names a
    ``progress.json`` document (schema ``repro-batch-progress/1``)
    rewritten atomically as the batch advances.

    ``resume=True`` makes the run crash-resumable: every finished entry
    is durably journaled (:mod:`repro.batch.journal`, under
    ``journal_dir``), and entries a previous -- possibly SIGKILLed --
    run of the *same* batch already journaled are replayed instead of
    recompiled.  The final manifest is byte-identical to an
    uninterrupted run's."""
    telemetry = telemetry or NULL_TELEMETRY
    if stall_timeout is not None and stall_timeout <= 0:
        raise ValueError("stall_timeout must be positive when set")
    if program_timeout is not None and program_timeout <= 0:
        raise ValueError("program_timeout must be positive when set")
    if heartbeat_s is not None and heartbeat_s <= 0:
        raise ValueError("heartbeat_s must be positive when set")
    paths = expand_inputs(list(inputs))
    if not paths:
        raise FileNotFoundError("no input programs found")
    jobs = jobs or os.cpu_count() or 1
    jobs = max(1, min(jobs, len(paths)))
    effective_cache_dir = (
        (cache_dir or default_cache_dir()) if use_cache else None
    )

    tasks = _build_tasks(
        paths, config_name, config_overrides or {}, entry, args, fuel,
        timeout_s=program_timeout,
    )
    from repro.batch.worker import config_from_task

    config = config_from_task(tasks[0])
    if stall_timeout is None:
        stall_timeout = config.batch_stall_timeout_s

    journal = None
    resumed_entries: Dict[int, Dict] = {}
    if resume:
        from repro.batch.journal import BatchJournal, batch_key

        journal = BatchJournal(
            journal_dir,
            batch_key(config.fingerprint(), entry, list(args), fuel, tasks),
        )
        resumed_entries = journal.load(tasks)
        if telemetry.enabled:
            telemetry.count("batch.resumed_entries", len(resumed_entries))
            if journal.skipped:
                telemetry.count("batch.journal_skipped", journal.skipped)

    started = time.perf_counter()
    with telemetry.span("batch", jobs=jobs, programs=len(tasks)):
        entries, cache_stats, tracker = _execute(
            tasks, jobs, effective_cache_dir, telemetry, progress,
            stall_timeout,
            progress_path=progress_path,
            heartbeat_s=heartbeat_s,
            status=status,
            journal=journal,
            resumed_entries=resumed_entries,
        )

    evicted = 0
    if effective_cache_dir and cache_max_entries is not None:
        cache = ResultCache(effective_cache_dir)
        evicted = cache.prune(cache_max_entries)
        cache_stats.evictions += evicted
    wall = time.perf_counter() - started

    if telemetry.enabled:
        telemetry.merge_counters(cache_stats.as_counters("batch.cache"))
        telemetry.count("batch.programs", len(entries))
        telemetry.count(
            "batch.programs_failed",
            sum(1 for e in entries if e.get("status") != "ok"),
        )

    manifest = build_manifest(
        entries, config_name, config.fingerprint(), entry, list(args), fuel
    )
    statuses = [e.get("status") for e in entries]
    stats = {
        "jobs": jobs,
        "programs": len(entries),
        "ok": statuses.count("ok"),
        "errors": statuses.count("error"),
        "crashed": statuses.count("crashed") + statuses.count("lost"),
        "timeouts": statuses.count("timeout"),
        "degraded_programs": sum(1 for e in entries if e.get("degraded")),
        # Total contained-fault records across the batch (the summaries'
        # top-level "degradations" lists) -- what chaos CI asserts on.
        "degradations": sum(
            len((e.get("summary") or {}).get("degradations", ()))
            for e in entries
        ),
        "cached_programs": sum(1 for e in entries if e.get("cached")),
        "resumed_programs": len(resumed_entries),
        "wall_seconds": round(wall, 4),
        "cache_dir": effective_cache_dir,
        "cache": cache_stats.to_dict(),
        "heartbeats": tracker.heartbeats,
    }
    return BatchResult(manifest, entries, stats, cache_stats)


def _execute(tasks, jobs, cache_dir, telemetry, progress,
             stall_timeout=STALL_TIMEOUT, progress_path=None,
             heartbeat_s=None, status=None, journal=None,
             resumed_entries=None):
    """Run the worker pool; returns (entries in task order, StoreStats,
    ProgressTracker)."""
    entries: List[Optional[Dict]] = [None] * len(tasks)
    pending = set(range(len(tasks)))

    # Seed journal-replayed entries first: they are finished work, and
    # the corresponding tasks are never queued.
    for index, entry in sorted((resumed_entries or {}).items()):
        entries[index] = entry
        pending.discard(index)

    jobs = max(1, min(jobs, len(pending))) if pending else 0
    ctx = multiprocessing.get_context()
    task_queue = ctx.Queue()
    # Results travel over a SimpleQueue on purpose: its put() writes to
    # the pipe synchronously in the calling thread, so a worker that
    # hard-dies right after put() cannot strand finished results in an
    # unflushed feeder-thread buffer (mp.Queue would).
    result_queue = ctx.SimpleQueue()
    for index in sorted(pending):
        task_queue.put(tasks[index])
    for _ in range(jobs):
        task_queue.put(None)

    if heartbeat_s is None:
        # Several beats per backstop window, without busy-beating.
        heartbeat_s = max(0.05, min(HEARTBEAT_S, stall_timeout / 4.0))
    observe = bool(telemetry.enabled)

    cache_stats = StoreStats()
    tracker = ProgressTracker(len(tasks), jobs)
    for index in sorted((resumed_entries or {})):
        tracker.on_done(None, entries[index])
        if progress is not None:
            progress(entries[index])
    workers: Dict[int, ClaimedWorker] = {}
    next_worker_id = 0

    def spawn() -> None:
        nonlocal next_worker_id
        workers[next_worker_id] = ClaimedWorker(
            ctx, next_worker_id, worker_main, task_queue, result_queue,
            cache_dir, extra_args=(heartbeat_s, observe),
            name_prefix="repro-batch-worker",
        )
        next_worker_id += 1

    for _ in range(jobs):
        spawn()

    last_publish = 0.0

    def publish(force: bool = False) -> None:
        # Throttled external rendering: the status line and the
        # progress.json document, at most a few times per second.
        nonlocal last_publish
        now = time.monotonic()
        if not force and now - last_publish < 0.2:
            return
        last_publish = now
        if status is not None:
            status(tracker.status_line())
        if progress_path is not None:
            tracker.write(progress_path)

    def finish(index: int, entry: Dict, worker: Optional[int] = None) -> None:
        entries[index] = entry
        pending.discard(index)
        if journal is not None:
            # Durable before visible: the journal line lands before the
            # entry counts as done, so a SIGKILL can lose at most work
            # that was never reported finished.
            journal.record(index, tasks[index], entry)
        tracker.on_done(worker, entry)
        if progress is not None:
            progress(entry)

    def absorb_done(message: Dict) -> None:
        finish(message["index"], message["entry"], message.get("worker"))
        cache_stats.merge(message["stats"])
        if telemetry.enabled and message.get("counters"):
            telemetry.merge_counters(message["counters"])
        if telemetry.enabled:
            for name, value in (message.get("gauges") or {}).items():
                telemetry.gauge(name, value)

    try:
        publish(force=True)
        while pending:
            drained = False
            if result_queue.empty():
                time.sleep(0.02)
                message = None
            else:
                message = result_queue.get()
                drained = True
            if message is not None:
                kind = message["kind"]
                if kind == "done":
                    if message["index"] in pending:
                        absorb_done(message)
                elif kind == "start":
                    tracker.on_start(
                        message["worker"], message["index"],
                        tasks[message["index"]]["path"],
                    )
                elif kind == "heartbeat":
                    tracker.on_heartbeat(message["worker"], message["index"])
                publish()
                continue

            # No result just now: check worker liveness.
            for worker_id, handle in list(workers.items()):
                if handle.is_alive():
                    continue
                if handle.exitcode == 0:
                    # Clean exit: the worker drained its sentinel after
                    # the queue emptied.  Don't replace it.
                    del workers[worker_id]
                    tracker.on_worker_dead(worker_id)
                    continue
                # Drain anything the dead worker managed to send
                # before attributing a crash.
                for late in drain_queue(result_queue):
                    if late["kind"] == "done" and late["index"] in pending:
                        absorb_done(late)
                claimed = handle.claimed
                del workers[worker_id]
                tracker.on_worker_dead(worker_id)
                if claimed >= 0 and claimed in pending:
                    exitcode = handle.exitcode
                    finish(
                        claimed,
                        _crashed_entry(
                            tasks[claimed],
                            exitcode,
                            f"worker process died (exit code {exitcode}) "
                            f"while compiling this program",
                        ),
                    )
                    if telemetry.enabled:
                        telemetry.event(
                            "batch.worker_crashed",
                            worker=worker_id,
                            program=tasks[claimed]["path"],
                            exitcode=exitcode,
                        )
                if pending:
                    # Replace lost capacity; its queue sentinel was
                    # never consumed, so no extra sentinel is needed.
                    spawn()
                tracker.note_activity()
                publish()

            if drained or not pending:
                continue
            if tracker.seconds_since_heartbeat() > stall_timeout:
                # Backstop: the pool shows no sign of life -- no
                # heartbeat, start, or result for a whole window.  A
                # slow-but-alive worker keeps heartbeating and never
                # trips this; a hung *program* is the per-program
                # timeout's job, not the backstop's.
                for index in sorted(pending):
                    finish(
                        index,
                        _crashed_entry(
                            tasks[index], None,
                            "task lost: no worker claimed or finished it "
                            f"within {stall_timeout:g}s",
                        ),
                    )
    finally:
        for handle in workers.values():
            handle.stop(grace_s=2.0)
        task_queue.cancel_join_thread()
        result_queue.close()
        publish(force=True)

    return ([entry for entry in entries if entry is not None], cache_stats,
            tracker)

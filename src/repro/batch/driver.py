"""The multi-process batch-compilation driver (``repro batch``).

Programs are expanded from directories/globs, sorted, and submitted
to the compile-worker pool (:class:`repro.batch.lifecycle.WorkerPool`).
Results arrive in completion order and are merged back into task
order, so the manifest is deterministic regardless of ``--jobs`` or
scheduling.  The pool hands each worker one program at a time, so it
charges a worker's death to exactly the program that worker held (a
structured ``status: "crashed"`` entry) and respawns the worker: one
bad program can never take down the batch.  The driver adds live
progress and the resume journal.
"""

from __future__ import annotations

import glob as _glob
import os
import time
from typing import Dict, List, Optional

from repro.batch.cache import ResultCache, default_cache_dir
from repro.batch.lifecycle import WorkerPool
from repro.batch.manifest import build_manifest
from repro.batch.progress import ProgressTracker
from repro.obs.telemetry import NULL_TELEMETRY
from repro.util.store import StoreStats

__all__ = ["BatchResult", "expand_inputs", "run_batch"]

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
        #: Program-entry traffic; ``stats["source_index"]`` holds the
        #: source index's.
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
    program_timeout: Optional[float] = None,
    progress_path: Optional[str] = None,
    status=None,
    resume: bool = False,
    journal_dir: Optional[str] = None,
) -> BatchResult:
    """Compile every program named by ``inputs`` and merge one manifest.

    ``progress`` is an optional callable receiving one finished entry
    at a time (completion order), for CLI streaming output.

    ``program_timeout`` arms a per-program SIGALRM in each worker -- an
    overrunning program is retried once on the degraded ladder
    configuration and only then reported with ``status: "timeout"``.

    Live progress: ``status`` is an optional callable receiving the
    refreshed one-line status string, and ``progress_path`` names a
    ``progress.json`` document (schema ``repro-batch-progress/2``)
    rewritten atomically as the batch advances.

    ``resume=True`` makes the run crash-resumable: every finished entry
    is durably journaled (:mod:`repro.batch.journal`, under
    ``journal_dir``), and entries a previous -- possibly SIGKILLed --
    run of the *same* batch already journaled are replayed instead of
    recompiled.  The final manifest is byte-identical to an
    uninterrupted run's."""
    telemetry = telemetry or NULL_TELEMETRY
    if program_timeout is not None and program_timeout <= 0:
        raise ValueError("program_timeout must be positive when set")
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
        entries, cache_stats, source_stats = _execute(
            tasks, jobs, effective_cache_dir, telemetry, progress,
            progress_path=progress_path,
            status=status,
            journal=journal,
            resumed_entries=resumed_entries,
        )

    if effective_cache_dir and cache_max_entries is not None:
        # Both stores keep their N newest entries, so the source index
        # stays bounded too.
        cache = ResultCache(effective_cache_dir)
        cache_stats.evictions += cache.prune(cache_max_entries)
        source_stats.evictions += cache.sources.prune(cache_max_entries)
    wall = time.perf_counter() - started

    if telemetry.enabled:
        telemetry.merge_counters(cache_stats.as_counters("batch.cache"))
        telemetry.merge_counters(
            source_stats.as_counters("batch.source_index"))
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
        "crashed": statuses.count("crashed"),
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
        "source_index": source_stats.to_dict(),
    }
    return BatchResult(manifest, entries, stats, cache_stats)


def _execute(tasks, jobs, cache_dir, telemetry, progress,
             progress_path=None, status=None,
             journal=None, resumed_entries=None):
    """Drive the worker pool; returns (entries in task order,
    program-entry StoreStats, source-index StoreStats)."""
    entries: List[Optional[Dict]] = [None] * len(tasks)
    pending = set(range(len(tasks)))

    # Seed journal-replayed entries first: they are finished work, and
    # the corresponding tasks are never queued.
    for index, entry in sorted((resumed_entries or {}).items()):
        entries[index] = entry
        pending.discard(index)

    jobs = max(1, min(jobs, len(pending))) if pending else 0

    cache_stats = StoreStats()
    source_stats = StoreStats()
    tracker = ProgressTracker(len(tasks), jobs)
    for index in sorted((resumed_entries or {})):
        tracker.on_done(None, entries[index])
        if progress is not None:
            progress(entries[index])
    pool = WorkerPool(jobs, cache_dir, observe=bool(telemetry.enabled))
    for index in sorted(pending):
        pool.submit(index, tasks[index])

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

    def absorb(event: Dict) -> None:
        index, entry = event["id"], event["entry"]
        entries[index] = entry
        pending.discard(index)
        if journal is not None:
            # Durable before visible: the journal line lands before the
            # entry counts as done, so a SIGKILL can lose at most work
            # that was never reported finished.
            journal.record(index, tasks[index], entry)
        tracker.on_done(event["worker"], entry)
        if progress is not None:
            progress(entry)
        if event["kind"] == "crashed":
            if telemetry.enabled:
                telemetry.event(
                    "batch.worker_crashed",
                    worker=event["worker"],
                    program=tasks[event["id"]]["path"],
                    exitcode=event["entry"]["error"]["exitcode"],
                )
            return
        cache_stats.merge(event["stats"])
        source_stats.merge(event["stats"]["source_index"])
        if telemetry.enabled:
            telemetry.merge_counters(event.get("counters") or {})
            for name, value in (event.get("gauges") or {}).items():
                telemetry.gauge(name, value)
            # Each program's compile phases, summed as metrics_snapshot
            # exports the driver's own spans.
            for name, seconds in (event.get("phases") or {}).items():
                gauge = f"span.self_ms.{name}"
                telemetry.gauge(
                    gauge, telemetry.gauges.get(gauge, 0.0) + seconds * 1e3
                )

    try:
        publish(force=True)
        while pending:
            for event in pool.poll():
                if event["kind"] == "start":
                    tracker.on_start(event["worker"], event["id"],
                                     tasks[event["id"]]["path"])
                elif event["kind"] in ("done", "crashed"):
                    absorb(event)
            publish()
    finally:
        pool.close()
        publish(force=True)

    return ([entry for entry in entries if entry is not None], cache_stats,
            source_stats)

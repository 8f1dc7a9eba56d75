"""What a compile worker does with one task.

A task is a plain picklable dict (``index``, ``path``, ``name``,
``source`` plus the shared config/workload description).
:func:`compile_program_task` turns it into one manifest entry: it
consults the content-addressed result cache, compiles cold on a miss,
and never lets a per-program exception escape -- failures become
``status: "error"`` entries, and an overrunning program gets one retry
on the degraded ladder before it becomes ``status: "timeout"``.

A warm program is found through the cache's source index without
lowering it; only a source the index does not know is lowered -- once,
under its own name -- keyed by its canonical IR and, on a program-entry
miss, compiled from that same module.

The worker processes themselves -- their main loop, the pipe that
feeds each one program at a time, crash charging and respawn -- are
:mod:`repro.batch.lifecycle`'s.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import signal
import traceback
from contextlib import contextmanager
from typing import Dict, Optional, Tuple

from repro.batch.cache import ResultCache
from repro.core.config import CONFIG_FACTORIES, SptConfig
from repro.core.pipeline import Workload, compile_spt
from repro.frontend import compile_minic
from repro.ir import format_module, parse_module
from repro.resilience.ladder import degraded_retry_overrides
from repro.resilience.watchdog import ProgramTimeout
from repro.util.store import StoreStats, content_key

__all__ = [
    "canonical_module_text",
    "compile_program_task",
    "config_from_task",
    "frontend_digest",
    "program_key",
    "workload_from_task",
]


def canonical_module_text(source: str) -> str:
    """Canonicalize a program to deterministic textual IR.

    MiniC source is lowered (under a fixed module name, so the file
    name cannot influence the digest) and printed; textual IR is
    parsed and re-printed.  Comments, whitespace and declaration
    formatting all wash out, so cosmetically different files hit the
    same cache entries."""
    return _canonical_text(_load_module(source, "m"))


def _canonical_text(module) -> str:
    # The module name is the only trace the file name leaves in the IR.
    return format_module(module, name="m")


@functools.lru_cache(maxsize=None)
def frontend_digest() -> str:
    """A digest of the code that decides a source's canonical IR: the
    text of every module of :mod:`repro.frontend` and :mod:`repro.ir`.

    Part of every source key, so an edited frontend never serves the
    program key an older one derived.  Computed once per process."""
    import repro.frontend
    import repro.ir

    parts = []
    for package in (repro.frontend, repro.ir):
        root = os.path.dirname(package.__file__)
        for directory, dirs, files in os.walk(root):
            dirs.sort()
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                with open(path, "rb") as handle:
                    digest = hashlib.sha256(handle.read()).hexdigest()
                relative = os.path.relpath(path, root).replace(os.sep, "/")
                parts.append(f"{package.__name__}/{relative}={digest}")
    return content_key(*parts)


def config_from_task(task: Dict) -> SptConfig:
    """Rebuild the SptConfig a task describes (preset + overrides)."""
    config = CONFIG_FACTORIES[task["config"]]()
    overrides = task.get("config_overrides") or {}
    return config.with_overrides(**overrides) if overrides else config


def workload_from_task(task: Dict) -> Workload:
    """The workload a task describes."""
    return Workload(
        entry=task["entry"], args=tuple(task["args"]), fuel=task["fuel"]
    )


def _load_module(source: str, name: str):
    stripped = source.lstrip()
    if stripped.startswith("module ") or stripped.startswith("func "):
        return parse_module(source)
    return compile_minic(source, name=name)


@contextmanager
def _program_alarm(timeout_s: Optional[float]):
    """Arm SIGALRM to raise :class:`ProgramTimeout` after ``timeout_s``.

    A no-op when no timeout is requested or the platform has no SIGALRM
    (Windows).  Only valid in a process main thread -- which is where
    :func:`repro.batch.lifecycle.worker_main` runs.  The signal breaks
    even uncooperative hangs (C extensions excepted) that no in-process
    watchdog can."""
    if not timeout_s or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_alarm(signum, frame):
        raise ProgramTimeout(
            f"program compilation exceeded {timeout_s:g}s"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _degraded_retry(
    task: Dict,
    cache: Optional[ResultCache],
    cause: str,
    telemetry=None,
) -> Dict:
    """The one post-timeout retry, on the degraded ladder configuration.

    Feedback passes off, search budgets tiny, phase deadline armed --
    and a different config fingerprint, so the degraded result can
    never be served from (or poison) the full configuration's cache
    entries.  A second timeout becomes ``status: "timeout"``."""
    config = config_from_task(task)
    overrides = dict(task.get("config_overrides") or {})
    overrides.update(degraded_retry_overrides(config))
    degraded_task = dict(task, config_overrides=overrides)
    try:
        with _program_alarm(task.get("timeout_s")):
            out = _compile_with_cache(degraded_task, cache, telemetry)
    except ProgramTimeout as exc:
        return {
            "status": "timeout",
            "error": {
                "type": "ProgramTimeout",
                "message": f"{cause}; degraded retry: {exc}",
            },
        }
    except Exception as exc:  # noqa: BLE001 - worker must survive anything
        return {
            "status": "error",
            "error": {
                "type": exc.__class__.__name__,
                "message": f"degraded retry after timeout failed: {exc}",
            },
            "traceback": traceback.format_exc(limit=8),
        }
    out["degraded"] = True
    out["degraded_reason"] = cause
    return out


def _stats_delta(before: Dict, after: Dict) -> Dict:
    return {
        name: after.get(name, 0) - before.get(name, 0)
        for name in StoreStats.__slots__
    }


def compile_program_task(
    task: Dict, cache: Optional[ResultCache], telemetry=None
) -> Tuple[Dict, Dict]:
    """Compile one program (consulting ``cache``), returning
    ``(manifest_entry, cache_stats_dict)``.

    The stats dict counts program-entry traffic, plus the source
    index's own under ``"source_index"``.  ``telemetry`` is an optional
    worker-side observing Telemetry whose counters the caller ships
    back to the driver.  The manifest entry is byte-for-byte identical
    whether it was recomputed or served warm: the cache stores the
    exact summary the cold path produced."""
    stats_before = cache.stats.to_dict() if cache else {}
    sources_before = cache.sources.stats.to_dict() if cache else {}
    source = task["source"]
    entry: Dict = {
        "path": task["path"],
        "sha256": hashlib.sha256(source.encode("utf-8")).hexdigest(),
    }
    try:
        with _program_alarm(task.get("timeout_s")):
            entry.update(_compile_with_cache(task, cache, telemetry))
    except ProgramTimeout as exc:
        # Passed through every inner firewall by design: the worker --
        # not a per-loop containment scope -- owns the whole-program
        # budget and the one degraded retry it buys.
        entry.update(_degraded_retry(task, cache, str(exc), telemetry))
    except Exception as exc:  # noqa: BLE001 - worker must survive anything
        entry["status"] = "error"
        entry["error"] = {
            "type": exc.__class__.__name__,
            "message": str(exc),
        }
        entry["traceback"] = traceback.format_exc(limit=8)
    delta = _stats_delta(
        stats_before, cache.stats.to_dict() if cache else {})
    delta["source_index"] = _stats_delta(
        sources_before, cache.sources.stats.to_dict() if cache else {})
    return entry, delta


def _workload_token(workload: Workload) -> str:
    return ResultCache.workload_token(
        workload.entry, workload.args, workload.fuel
    )


def program_key(task: Dict, config: SptConfig, workload: Workload) -> str:
    """The cache key of a task's program: canonical module IR x config
    fingerprint x workload token -- what ``explain --cache-dir`` probes.
    A batch worker derives the same key from the module it lowers for
    compilation anyway (:func:`_compile_with_cache`)."""
    return ResultCache.program_key(
        canonical_module_text(task["source"]),
        config.fingerprint(),
        _workload_token(workload),
    )


def _compile_with_cache(
    task: Dict, cache: Optional[ResultCache], telemetry=None
) -> Dict:
    config = config_from_task(task)
    workload = workload_from_task(task)
    if cache is None:
        module = _load_module(task["source"], task["name"])
        summary = _compile(module, config, workload, telemetry)
        return {"status": "ok", "summary": summary, "cached": False}

    fingerprint = config.fingerprint()
    token = _workload_token(workload)
    source_key = cache.sources.source_key(
        frontend_digest(), fingerprint, token, task["source"])
    indexed = cache.sources.get_program_key(source_key)
    if indexed is not None:
        cached = cache.get_program(indexed)
        if cached is not None:
            return _served(indexed, cached)

    # The canonical path: a source the index does not know (or whose
    # program entry is gone).  Lower it once and key the module before
    # compile_spt mutates it.
    module = _load_module(task["source"], task["name"])
    key = ResultCache.program_key(_canonical_text(module), fingerprint, token)
    # A dangling index entry already missed this very program entry.
    cached = cache.get_program(key) if key != indexed else None
    if cached is not None:
        out = _served(key, cached)
    else:
        summary = _compile(module, config, workload, telemetry)
        cache.put_program(key, {"summary": summary})
        out = {"status": "ok", "summary": summary, "cached": False,
               "program_key": key}
    cache.sources.put_program_key(source_key, key)
    return out


def _served(key: str, cached: Dict) -> Dict:
    return {"status": "ok", "summary": cached["summary"], "cached": True,
            "program_key": key}


def _compile(module, config: SptConfig, workload: Workload,
             telemetry) -> Dict:
    result = compile_spt(module, config, workload, telemetry=telemetry)
    # Normalize through JSON immediately so cold results are the same
    # Python objects a cache round-trip yields (tuples become lists,
    # keys become strings) -- warm and cold entries must compare equal,
    # not just serialize equal.
    return json.loads(json.dumps(result.to_dict()))


def probe_cache(
    source: str, config: SptConfig, workload: Workload, cache: ResultCache
) -> Dict:
    """Read-only cache inspection for ``repro explain --cache-dir``:
    the program key, and whether this (program, config, workload)
    combination has a loadable program entry."""
    key = program_key({"source": source}, config, workload)
    return {
        "cache_dir": cache.cache_dir,
        "program_key": key,
        "program_hit": cache.get_program(key) is not None,
    }


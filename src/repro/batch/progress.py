"""Live batch progress: heartbeat bookkeeping, the one-line status
display, and the machine-readable ``progress.json`` document.

Workers send ``{"kind": "heartbeat", "worker": w, "id": i}``
messages over the result queue while a program is in flight (the
``start`` claim message counts as the first heartbeat).  The driver
feeds every pool event into one :class:`ProgressTracker`, renders
:meth:`ProgressTracker.status_line` for humans, and serializes
:meth:`ProgressTracker.snapshot` -- schema ``repro-batch-progress/1``
-- for external watchers (CI tails, dashboards).

The tracker is also the liveness authority: the driver's stall
backstop asks :meth:`ProgressTracker.seconds_since_heartbeat` instead
of inferring stalls from result-queue silence, so a slow-but-alive
worker (still heartbeating) never trips the backstop, while a pool
that lost its workers (no heartbeats, no results) still does.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.util.atomicio import atomic_write_json

__all__ = ["PROGRESS_SCHEMA", "ProgressTracker", "validate_progress"]

PROGRESS_SCHEMA = "repro-batch-progress/1"


class ProgressTracker:
    """Aggregates worker start/heartbeat/done messages into batch state."""

    def __init__(self, total: int, jobs: int, clock=time.monotonic):
        self.total = total
        self.jobs = jobs
        self._clock = clock
        self._started = clock()
        self.done = 0
        self.ok = 0
        self.failed = 0
        self.cached = 0
        self.heartbeats = 0
        #: worker id -> {"index", "path", "since", "last_beat"}
        self.in_flight: Dict[int, Dict] = {}
        #: per-worker heartbeat counts (includes the start message).
        self.worker_beats: Dict[int, int] = {}
        self._last_beat = clock()

    # -- message intake -------------------------------------------------

    def on_start(self, worker: int, index: int, path: str) -> None:
        now = self._clock()
        self.in_flight[worker] = {
            "index": index,
            "path": path,
            "since": now,
            "last_beat": now,
        }
        self.worker_beats[worker] = self.worker_beats.get(worker, 0) + 1
        self.heartbeats += 1
        self._last_beat = now

    def on_heartbeat(self, worker: int, index: int) -> None:
        now = self._clock()
        state = self.in_flight.get(worker)
        if state is not None and state["index"] == index:
            state["last_beat"] = now
        self.worker_beats[worker] = self.worker_beats.get(worker, 0) + 1
        self.heartbeats += 1
        self._last_beat = now

    def on_done(self, worker: Optional[int], entry: Dict) -> None:
        self.done += 1
        if entry.get("status") == "ok":
            self.ok += 1
        else:
            self.failed += 1
        if entry.get("cached"):
            self.cached += 1
        if worker is not None:
            self.in_flight.pop(worker, None)
        self._last_beat = self._clock()

    def on_worker_dead(self, worker: int) -> None:
        self.in_flight.pop(worker, None)

    def note_activity(self) -> None:
        """Reset the liveness clock for driver-side progress (e.g. a
        crashed worker was attributed and respawned)."""
        self._last_beat = self._clock()

    # -- liveness -------------------------------------------------------

    def seconds_since_heartbeat(self) -> float:
        """Seconds since the pool last showed any sign of life (a
        start, heartbeat, or finished result)."""
        return self._clock() - self._last_beat

    # -- rendering ------------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        return self._clock() - self._started

    def eta_s(self) -> Optional[float]:
        """Naive remaining-time estimate from the mean completion rate."""
        if not self.done or self.done >= self.total:
            return None
        return self.elapsed_s / self.done * (self.total - self.done)

    def status_line(self) -> str:
        parts = [
            f"batch {self.done}/{self.total}",
            f"ok {self.ok}",
        ]
        if self.failed:
            parts.append(f"failed {self.failed}")
        if self.cached:
            parts.append(f"cached {self.cached}")
        parts.append(f"in-flight {len(self.in_flight)}")
        eta = self.eta_s()
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        parts.append(f"[{self.elapsed_s:.1f}s]")
        return " | ".join(parts)

    def snapshot(self) -> Dict:
        """The ``progress.json`` document (schema
        :data:`PROGRESS_SCHEMA`)."""
        now = self._clock()
        return {
            "schema": PROGRESS_SCHEMA,
            "total": self.total,
            "jobs": self.jobs,
            "done": self.done,
            "ok": self.ok,
            "failed": self.failed,
            "cached": self.cached,
            "heartbeats": self.heartbeats,
            "elapsed_s": round(self.elapsed_s, 3),
            "eta_s": (
                None if self.eta_s() is None else round(self.eta_s(), 3)
            ),
            "in_flight": [
                {
                    "worker": worker,
                    "index": state["index"],
                    "path": state["path"],
                    "running_s": round(now - state["since"], 3),
                    "heartbeat_age_s": round(now - state["last_beat"], 3),
                }
                for worker, state in sorted(self.in_flight.items())
            ],
        }

    def write(self, path: str) -> None:
        """Atomically (re)write the ``progress.json`` document."""
        # fsync=False: progress is advisory and rewritten every tick.
        atomic_write_json(path, self.snapshot(), indent=2, fsync=False)


def validate_progress(document: Dict) -> List[str]:
    """Schema problems in a ``progress.json`` document ([] when valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["progress document is not an object"]
    if document.get("schema") != PROGRESS_SCHEMA:
        problems.append(
            f"schema {document.get('schema')!r} != {PROGRESS_SCHEMA!r}"
        )
    for field in ("total", "jobs", "done", "ok", "failed", "cached",
                  "heartbeats"):
        value = document.get(field)
        if not isinstance(value, int) or value < 0:
            problems.append(f"{field} must be a non-negative int, got"
                            f" {value!r}")
    for field in ("elapsed_s",):
        value = document.get(field)
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(f"{field} must be a non-negative number, got"
                            f" {value!r}")
    eta = document.get("eta_s")
    if eta is not None and (not isinstance(eta, (int, float)) or eta < 0):
        problems.append(f"eta_s must be null or a non-negative number, got"
                        f" {eta!r}")
    in_flight = document.get("in_flight")
    if not isinstance(in_flight, list):
        problems.append("in_flight must be a list")
        in_flight = []
    for slot in in_flight:
        if not isinstance(slot, dict):
            problems.append(f"in_flight entry is not an object: {slot!r}")
            continue
        for field in ("worker", "index"):
            if not isinstance(slot.get(field), int):
                problems.append(
                    f"in_flight.{field} must be an int, got"
                    f" {slot.get(field)!r}"
                )
        if not isinstance(slot.get("path"), str):
            problems.append(
                f"in_flight.path must be a string, got {slot.get('path')!r}"
            )
    if isinstance(document.get("done"), int) and isinstance(
        document.get("total"), int
    ):
        if document["done"] > document["total"]:
            problems.append("done exceeds total")
        if isinstance(document.get("ok"), int) and isinstance(
            document.get("failed"), int
        ):
            if document["ok"] + document["failed"] != document["done"]:
                problems.append("ok + failed != done")
    return problems

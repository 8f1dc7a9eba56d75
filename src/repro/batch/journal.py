"""Crash-resume journal for batch runs (``repro batch --resume``).

The manifest is written once, at the end -- a driver SIGKILLed mid-run
leaves nothing but ``progress.json`` counts behind.  The journal fixes
that: as each program finishes, the driver appends its raw entry as
one JSON line (``repro-batch-journal/1``), so the journal is an
incrementally-materialized partial manifest.  Appends are not
``fsync``ed: a line survives a SIGKILL of the driver, and a host crash
can drop the tail, which resume simply re-runs.  A re-run with
``--resume`` replays it, seeds the finished entries, and queues only
the unfinished programs; the final manifest is byte-identical to an
uninterrupted run's because entries carry everything the manifest
keeps.

The journal file is content-addressed by the *batch identity* -- config
fingerprint, workload, and the exact (path, source sha256) list -- so a
changed source file, config, or program set silently starts a fresh
journal instead of resuming stale results.  Within the file, each line
re-checks path + sha256 against the current task before it is trusted.
The file is a :class:`repro.util.JsonlLog`: a crash can only ever
truncate the *last* line, and unparsable lines are skipped on replay.

Only deterministic outcomes resume (``status: "ok"`` and the
compile-error statuses); run-shape-dependent failures (``crashed``,
``timeout``) are re-queued for another attempt.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, List, Optional

from repro.batch.cache import default_cache_dir
from repro.util.store import JsonlLog, content_key

__all__ = ["JOURNAL_SCHEMA", "BatchJournal", "batch_key", "default_journal_dir"]

JOURNAL_SCHEMA = "repro-batch-journal/1"

#: Statuses that are deterministic functions of (source, config) and
#: may therefore be replayed from the journal.  Crash/timeout entries
#: depend on the run that produced them; resume retries those.
RESUMABLE_STATUSES = ("ok", "error")


def default_journal_dir() -> str:
    """``<default_cache_dir()>/journals``."""
    return os.path.join(default_cache_dir(), "journals")


def _source_digest(task: Dict) -> str:
    return hashlib.sha256(task["source"].encode("utf-8")).hexdigest()


def batch_key(
    config_fingerprint: str, entry: str, args, fuel: int, tasks: List[Dict]
) -> str:
    """Content-addressed identity of one batch run."""
    parts = [JOURNAL_SCHEMA, config_fingerprint, entry, repr(tuple(args)),
             str(fuel)]
    for task in tasks:
        parts += [task["path"], _source_digest(task)]
    return content_key(*parts)


class BatchJournal:
    """Append-only per-batch journal of finished program entries."""

    def __init__(self, directory: Optional[str], key: str):
        self.directory = directory or default_journal_dir()
        self.key = key
        self.path = os.path.join(self.directory, "v1", f"{key}.journal")
        self._log = JsonlLog(self.path, JOURNAL_SCHEMA)
        #: Lines skipped on the last :meth:`load` because they were
        #: unparsable (torn trailing append) or failed validation.
        self.skipped = 0

    def record(self, index: int, task: Dict, entry: Dict) -> None:
        """Append one finished entry; failures are swallowed (losing a
        journal line only costs recompute on resume)."""
        try:
            self._log.append({
                "index": index,
                "path": task["path"],
                "sha256": _source_digest(task),
                "entry": entry,
            })
        except Exception:  # noqa: BLE001 - journaling must not fail the batch
            pass

    def load(self, tasks: List[Dict]) -> Dict[int, Dict]:
        """Replay the journal against the current task list.

        Returns ``index -> entry`` for every journal line that names an
        existing task (validated by index, path, and source sha256) and
        carries a resumable status.  Later lines win; anything
        unparsable or mismatched is counted in :attr:`skipped`."""
        records = self._log.load()
        self.skipped = self._log.skipped
        digests = [_source_digest(task) for task in tasks]
        resumed: Dict[int, Dict] = {}
        for record in records:
            index = record.get("index")
            entry = record.get("entry")
            if (
                isinstance(index, int)
                and 0 <= index < len(tasks)
                and isinstance(entry, dict)
                and record.get("path") == tasks[index]["path"]
                and record.get("sha256") == digests[index]
                and entry.get("status") in RESUMABLE_STATUSES
            ):
                resumed[index] = entry
            else:
                self.skipped += 1
        return resumed

    def discard(self) -> None:
        """Remove the journal (called after the manifest is built: the
        durable artifact now exists, the journal is scaffolding)."""
        self._log.discard()

    def __repr__(self) -> str:
        return f"BatchJournal({self.path!r})"

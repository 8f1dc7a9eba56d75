"""The one persistence primitive: a content-addressed JSON store and an
append-only JSONL log.

Every on-disk store in the system is a :class:`ContentStore` -- the
batch result cache's program entries and the source index in front of
them -- and the one log, the batch resume journal, is a
:class:`JsonlLog`.  Each owns its idiom once:

* :func:`content_key` -- SHA-256 over ``\\x1f``-joined string parts;
  every key in the system (program, source, batch journal) is one of
  these.
* :class:`ContentStore` -- entries live at
  ``<root>/v<N>/<k[:2]>/<k>.json``, each file the envelope
  ``{"format", "kind", "key", "payload"}``.  Writes are atomic
  (:func:`~repro.util.atomicio.atomic_write_json`) without ``fsync``:
  an entry a host crash loses is recomputed on the next miss.  Reads
  validate the envelope, and any unreadable or mismatched file is a
  counted corrupt miss that is removed best-effort -- the caller
  recomputes, never crashes.
* :class:`JsonlLog` -- schema-stamped whole-line appends through
  :func:`~repro.util.atomicio.append_line`, and a tolerant load that
  skips (and counts) blank, torn and foreign-schema lines.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, List, Optional

from repro.util.atomicio import append_line, atomic_write_json

__all__ = ["ContentStore", "JsonlLog", "StoreStats", "content_key"]

#: What a damaged or foreign document can raise while it is parsed,
#: validated or decoded.  Deliberately not ``Exception``: a batch
#: worker's ``ProgramTimeout`` alarm must pass through a store read.
_UNREADABLE = (OSError, ValueError, TypeError, KeyError, IndexError,
               AttributeError)

#: The exact key set of an entry file's envelope.
_ENVELOPE = {"format", "kind", "key", "payload"}


def content_key(*parts: str) -> str:
    """SHA-256 hex digest of ``parts`` joined by the unit separator."""
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


class StoreStats:
    """Hit/miss/write/eviction/corruption counters for one store handle."""

    __slots__ = ("hits", "misses", "writes", "evictions", "corrupt",
                 "write_failures")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        #: Entries that existed but failed to load (subset of misses).
        self.corrupt = 0
        #: Writes a fault or IO error suppressed (never fatal).
        self.write_failures = 0

    @property
    def hit_rate(self) -> float:
        requests = self.hits + self.misses
        return self.hits / requests if requests else 0.0

    def to_dict(self) -> Dict:
        counts = {name: getattr(self, name) for name in self.__slots__}
        counts["hit_rate"] = round(self.hit_rate, 4)
        return counts

    def as_counters(self, prefix: str) -> Dict[str, int]:
        """Telemetry counters ``<prefix>.<field>`` (docs/observability.md)."""
        return {f"{prefix}.{name}": getattr(self, name)
                for name in self.__slots__}

    def merge(self, other: Dict) -> None:
        """Fold in a ``to_dict()``-shaped stats dict (from a worker)."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + other.get(name, 0))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)}" for n in self.__slots__)
        return f"StoreStats({fields})"


class ContentStore:
    """A versioned directory of content-addressed JSON entries."""

    #: Entry format; bumping it namespaces a fresh ``v<N>`` directory,
    #: so old and new formats never see each other's files.
    version = 1

    def __init__(self, root: str):
        self.root = root
        self.stats = StoreStats()

    @property
    def version_dir(self) -> str:
        return os.path.join(self.root, f"v{self.version}")

    def path(self, key: str) -> str:
        return os.path.join(self.version_dir, key[:2], f"{key}.json")

    def put(self, key: str, kind: str, payload) -> None:
        """Atomically publish ``payload``.  An IO error suppresses the
        write and is counted in ``write_failures``: a lost entry is
        recomputed, never fatal.

        Concurrent writers of one key are harmless: the key digests
        every input, so they write identical content, and the publish
        rename is atomic."""
        document = {"format": self.version, "kind": kind, "key": key,
                    "payload": payload}
        try:
            atomic_write_json(self.path(key), document, fsync=False)
        except (OSError, TypeError, ValueError):
            self.stats.write_failures += 1
            return
        self.stats.writes += 1

    def get(self, key: str, kind: str, decode: Optional[Callable] = None):
        """The payload stored under ``key`` (passed through ``decode``
        when given), or None on a miss.

        A missing file is a plain miss.  A file that is unreadable, has
        the wrong envelope, or whose payload ``decode`` rejects is a
        corrupt miss, and is removed so the rewrite is clean."""
        path = self.path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            if (
                not isinstance(document, dict)
                or document.keys() != _ENVELOPE
                or document["format"] != self.version
                or document["kind"] != kind
                or document["key"] != key
            ):
                raise ValueError("malformed store entry")
            payload = document["payload"]
            value = payload if decode is None else decode(payload)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except _UNREADABLE:
            self.stats.misses += 1
            self.stats.corrupt += 1
            _remove(path)
            return None
        self.stats.hits += 1
        return value

    def entry_paths(self) -> List[str]:
        """Every entry file in the current-format namespace."""
        paths = []
        for directory, _dirs, files in os.walk(self.version_dir):
            paths.extend(
                os.path.join(directory, f) for f in files
                if f.endswith(".json") and not f.startswith(".tmp-")
            )
        return sorted(paths)

    def prune(self, max_entries: int) -> int:
        """Evict the oldest entries (by mtime) down to ``max_entries``;
        returns how many went (also counted in ``stats.evictions``)."""
        paths = self.entry_paths()
        if max_entries < 0 or len(paths) <= max_entries:
            return 0

        def mtime(path: str) -> float:
            try:
                return os.path.getmtime(path)
            except OSError:
                return 0.0

        paths.sort(key=lambda p: (mtime(p), p))
        evicted = 0
        for path in paths[: len(paths) - max_entries]:
            try:
                os.remove(path)
                evicted += 1
            except OSError:
                pass
        self.stats.evictions += evicted
        return evicted

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.root!r}, {self.stats!r})"


def _schema_major(schema) -> Optional[str]:
    if not isinstance(schema, str) or "/" not in schema:
        return None
    name, _, version = schema.rpartition("/")
    return f"{name}/{version.split('.', 1)[0]}"


class JsonlLog:
    """An append-only JSONL file of records stamped with ``schema``.

    Each append is one whole line under an exclusive lock
    (:func:`~repro.util.atomicio.append_line`), so concurrent writers
    interleave whole records and a crash can only tear the last line.
    :meth:`load` accepts records of the same schema *major* version (a
    newer minor writer never bricks an older reader) and skips the
    rest, counting them in :attr:`skipped`."""

    def __init__(self, path, schema: str):
        self.path = path
        self.schema = schema
        #: Lines the last :meth:`load` skipped: blank, torn, or foreign.
        self.skipped = 0

    def append(self, record: Dict) -> None:
        append_line(
            str(self.path),
            json.dumps(dict(record, schema=self.schema), sort_keys=True),
        )

    def load(self) -> List[Dict]:
        """Every readable record of this schema, oldest first."""
        self.skipped = 0
        wanted = _schema_major(self.schema)
        records: List[Dict] = []
        try:
            handle = open(self.path, encoding="utf-8", errors="replace")
        except OSError:
            return records
        with handle:
            for line in handle:
                try:
                    record = json.loads(line)
                except ValueError:
                    record = None
                if (isinstance(record, dict)
                        and _schema_major(record.get("schema")) == wanted):
                    records.append(record)
                else:
                    self.skipped += 1
        return records

    def discard(self) -> None:
        """Remove the log file (best-effort)."""
        _remove(str(self.path))

"""The persistent run ledger: an append-only JSONL store of performance
records, one line per compile/simulate/batch/bench run.

The ledger is the system's quantitative memory.  Every record is keyed
by ``SptConfig.fingerprint()`` x workload x host, and carries the
phase self-times (aggregated from the span tree), the deterministic
search/cache/trace counters, any degradation records, and -- for
simulate runs -- the simulated cycle count.  ``repro perf diff`` and
``repro perf check`` (see :mod:`repro.perf`) align records on that key
and turn the ledger into a machine-checked regression baseline.

Design notes:

* **Append-only.**  The ledger is a :class:`repro.util.JsonlLog`:
  records are never rewritten, and each append is one whole line under
  an exclusive lock, so concurrent writers (parallel CI shards, batch
  workers) interleave whole lines and never corrupt each other.
* **Schema-versioned.**  Every line embeds ``"schema":
  "repro-ledger/1"``; loaders skip lines they cannot parse or whose
  major version they do not understand, so a newer writer never bricks
  an older reader.
* **Relocatable.**  The default store lives under ``.repro/ledger/``
  next to the working directory; ``REPRO_LEDGER_DIR`` overrides it
  (used by CI to point at a committed golden baseline).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.util.store import JsonlLog

__all__ = [
    "LEDGER_FILENAME",
    "LEDGER_SCHEMA",
    "Ledger",
    "host_token",
    "make_record",
]

LEDGER_SCHEMA = "repro-ledger/1"
LEDGER_FILENAME = "runs.jsonl"
DEFAULT_LEDGER_DIR = os.path.join(".repro", "ledger")

def host_token() -> str:
    """A stable identity for "the machine these wall-times came from".

    Wall-clock comparisons between records are only meaningful when
    their host tokens match; deterministic metrics (simulated cycles,
    search-node counters) compare across hosts.
    """
    return "{}/{}/py{}".format(
        socket.gethostname(),
        platform.machine() or "unknown",
        platform.python_version(),
    )


def make_record(
    kind: str,
    workload: Dict,
    fingerprint: str,
    *,
    wall_s: Optional[float] = None,
    telemetry=None,
    cycles: Optional[int] = None,
    degradations: Optional[List[Dict]] = None,
    extra: Optional[Dict] = None,
) -> Dict:
    """Build one schema-valid ledger record.

    ``workload`` identifies what ran (at minimum a ``name``; compile
    records add ``sha256``/``args``/``entry``).  When ``telemetry`` is
    an observing :class:`~repro.obs.telemetry.Telemetry`, its span tree
    is aggregated into per-phase self-times and its counters/gauges are
    embedded verbatim.
    """
    record: Dict = {
        "schema": LEDGER_SCHEMA,
        "kind": kind,
        "ts": time.time(),
        "host": host_token(),
        "workload": dict(workload),
        "fingerprint": fingerprint,
        "wall_s": wall_s,
        "phase_self_ms": {},
        "counters": {},
        "gauges": {},
        "cycles": cycles,
        "degradations": list(degradations or []),
        "extra": dict(extra or {}),
    }
    if telemetry is not None and getattr(telemetry, "enabled", False):
        from repro.obs.telemetry import self_durations

        record["phase_self_ms"] = {
            name: seconds * 1e3
            for name, seconds in sorted(
                self_durations(telemetry.spans).items()
            )
        }
        record["counters"] = dict(sorted(telemetry.counters.items()))
        record["gauges"] = dict(sorted(telemetry.gauges.items()))
    digest = hashlib.sha256(
        json.dumps(record, sort_keys=True, default=str).encode()
    ).hexdigest()
    record["run_id"] = digest[:12]
    return record


class Ledger(JsonlLog):
    """One append-only JSONL run store rooted at ``directory``.

    ``directory`` defaults to ``$REPRO_LEDGER_DIR`` or
    ``.repro/ledger``; it is created on first append.
    """

    def __init__(self, directory: Union[str, Path, None] = None):
        if directory is None:
            directory = os.environ.get("REPRO_LEDGER_DIR", DEFAULT_LEDGER_DIR)
        path = Path(directory)
        if path.suffix == ".jsonl" or path.is_file():
            # A direct ledger file (e.g. a committed baseline).
            self.directory = path.parent
        else:
            self.directory = path
            path = path / LEDGER_FILENAME
        super().__init__(path, LEDGER_SCHEMA)

    # -- writing -------------------------------------------------------

    def append(self, record: Dict) -> str:
        """Atomically append one record (built by :func:`make_record`);
        returns its ``run_id``."""
        if "run_id" not in record:
            raise ValueError("ledger records need a run_id (use make_record)")
        if record.get("schema") != LEDGER_SCHEMA:
            raise ValueError(
                f"record schema {record.get('schema')!r} != {LEDGER_SCHEMA!r}"
            )
        super().append(record)
        return record["run_id"]

    # -- reading (``load`` skips corrupt and foreign lines) ------------

    def runs(
        self,
        kind: Optional[str] = None,
        workload: Optional[str] = None,
        fingerprint: Optional[str] = None,
        host: Optional[str] = None,
    ) -> List[Dict]:
        """Records filtered by kind / workload name / config
        fingerprint / host, oldest first."""
        out = []
        for record in self.load():
            if kind is not None and record.get("kind") != kind:
                continue
            if (
                workload is not None
                and record.get("workload", {}).get("name") != workload
            ):
                continue
            if (
                fingerprint is not None
                and record.get("fingerprint") != fingerprint
            ):
                continue
            if host is not None and record.get("host") != host:
                continue
            out.append(record)
        return out

    def resolve(self, ref: str) -> Dict:
        """A record by reference: ``@-1`` / ``@0``-style position, or a
        (unique) ``run_id`` prefix."""
        records = self.load()
        if not records:
            raise LookupError(f"ledger {self.path} is empty")
        if ref.startswith("@"):
            try:
                index = int(ref[1:])
            except ValueError:
                raise LookupError(f"bad ledger position {ref!r}") from None
            try:
                return records[index]
            except IndexError:
                raise LookupError(
                    f"ledger position {ref} out of range "
                    f"({len(records)} records)"
                ) from None
        matches = [
            r for r in records if str(r.get("run_id", "")).startswith(ref)
        ]
        if not matches:
            raise LookupError(f"no ledger run matches {ref!r}")
        distinct = {r["run_id"] for r in matches}
        if len(distinct) > 1:
            raise LookupError(
                f"ambiguous run reference {ref!r}: matches "
                + ", ".join(sorted(distinct))
            )
        return matches[-1]

    def __len__(self) -> int:
        return len(self.load())

    def __repr__(self) -> str:
        return f"Ledger({str(self.path)!r})"

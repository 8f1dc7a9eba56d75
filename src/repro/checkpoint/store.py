"""The on-disk snapshot store (schema ``repro-checkpoint/3``).

A :class:`~repro.util.store.ContentStore` with one named entry per
snapshot::

    <dir>/v3/<k[:2]>/<k>/<executed:020>.json

where ``k`` is a SHA-256 digest over the checkpoint schema, the
:meth:`~repro.core.config.SptConfig.fingerprint`, the workload token,
and the canonical textual IR of the simulated module -- the same
content-addressing discipline as :mod:`repro.batch.cache`, so a
snapshot can never be restored into a different program, configuration
or workload.  Within one run key, snapshots are ordered by the fuel
odometer (``executed``), which names the entry.

Writes ``fsync`` (a checkpoint that does not survive the crash it
exists for is worthless).  A torn, truncated, version-mismatched or
otherwise unreadable snapshot -- or one that reads but does not apply
to the simulation -- is a counted corrupt miss, removed best-effort and
skipped: the caller falls back to the next older snapshot or a cold
start, never crashes.  Both IO paths are chaos
injection sites (``checkpoint.save`` / ``checkpoint.restore`` in the
``REPRO_FAULT`` grammar).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

from repro.batch.cache import default_cache_dir
from repro.util.store import ContentStore, content_key

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "default_checkpoint_dir",
]

#: 2: an SPT collector's snapshot holds its private branch predictor and
#: no cache (collectors read the run's own cache).
#: 3: a collector's iterations are ``pre``/``post`` lists of rows (a
#: template key, header flag and phi predecessor, then the row's
#: dynamic values) instead of one 15-field record per op.
CHECKPOINT_FORMAT_VERSION = 3
CHECKPOINT_SCHEMA = f"repro-checkpoint/{CHECKPOINT_FORMAT_VERSION}"

#: Environment override for the snapshot root.
CHECKPOINT_DIR_ENV_VAR = "REPRO_CHECKPOINT_DIR"


def default_checkpoint_dir() -> str:
    """``$REPRO_CHECKPOINT_DIR``, else ``<cache_dir>/checkpoints``."""
    env = os.environ.get(CHECKPOINT_DIR_ENV_VAR)
    if env:
        return env
    return os.path.join(default_cache_dir(), "checkpoints")


def _snapshot_state(payload) -> Dict:
    if not isinstance(payload, dict):
        raise TypeError("snapshot state is not a JSON object")
    return payload


class CheckpointStore(ContentStore):
    """A content-addressed directory of simulation snapshots."""

    version = CHECKPOINT_FORMAT_VERSION

    def __init__(self, directory: Optional[str] = None):
        super().__init__(directory or default_checkpoint_dir(),
                         fault_site="checkpoint")

    @staticmethod
    def run_key(
        canonical_ir: str, config_fingerprint: str, workload_token: str
    ) -> str:
        """The content-addressed identity of one simulated run."""
        return content_key(
            CHECKPOINT_SCHEMA, config_fingerprint, workload_token,
            canonical_ir,
        )

    def save(self, key: str, executed: int, state: Dict) -> Optional[str]:
        """Durably publish one snapshot; returns its path (None when
        the save was suppressed -- losing a checkpoint degrades resume
        granularity, never correctness)."""
        return self.put(key, "snapshot", state, name=f"{int(executed):020d}")

    def available(self, key: str) -> List[int]:
        """Executed-indices of stored snapshots for ``key``, ascending."""
        return sorted(int(name) for name in self.names(key) if name.isdigit())

    def load(self, key: str, executed: int,
             apply: Optional[Callable] = None):
        """The state snapshotted at ``executed``, or None.  With
        ``apply``, the value ``apply(state)`` returns instead; a
        ``ValueError`` from it makes the snapshot a corrupt miss, which
        is removed like an unreadable one."""

        def decode(payload):
            state = _snapshot_state(payload)
            return state if apply is None else apply(state)

        return self.get(key, "snapshot", name=f"{int(executed):020d}",
                        decode=decode)

    def load_latest(
        self, key: str, at_or_before: Optional[int] = None,
        apply: Optional[Callable] = None,
    ) -> Optional[Tuple[int, object]]:
        """The newest usable snapshot (optionally at or before an
        executed index) as ``(executed, state)``, or ``(executed,
        apply(state))``; walks backwards past corrupt entries."""
        for executed in reversed(self.available(key)):
            if at_or_before is not None and executed > at_or_before:
                continue
            value = self.load(key, executed, apply=apply)
            if value is not None:
                return executed, value
        return None

"""Persistent content-addressed result cache.

A :class:`~repro.util.store.ContentStore` of compilation results.
Every key is a SHA-256 digest over *content*, never over file names or
timestamps.  The **program key** hashes the cache format version, the
:meth:`~repro.core.config.SptConfig.fingerprint` of the active
configuration, the profiling workload (entry, args, fuel), and the
canonicalized textual IR of the whole module (comments, whitespace and
the source file name do not matter -- two byte-different files that
lower to the same IR share one entry).  Loop analyses depend on
profiles gathered over the whole module under one workload, so no key
narrower than the program key is sound.

Each entry is a ``program`` entry: a batch run's whole-module summary,
``{"summary": ...}``.  Entries are written without ``fsync`` -- an
entry lost to a crash is recomputed on the next miss.

In front of the program key sits the cache's :class:`SourceIndex`
(``<cache-dir>/sources``): ``source`` entries map a **source key** --
the raw source bytes x the frontend's own digest x config x workload --
to the program key that source canonicalizes to, so a warm program is
found without lowering it.

Bumping :data:`CACHE_FORMAT_VERSION` invalidates everything at once:
the version participates in every digest *and* namespaces both
directories.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.util.store import ContentStore, content_key

__all__ = [
    "CACHE_FORMAT_VERSION",
    "ResultCache",
    "SourceIndex",
    "default_cache_dir",
]

#: Bump on any incompatible change to entry payloads or key derivation.
CACHE_FORMAT_VERSION = 1


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return os.path.join(xdg, "repro")
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def _program_payload(payload: Dict) -> Dict:
    if "summary" not in payload:
        raise KeyError("program entry without a summary")
    return payload


_HEX_DIGITS = frozenset("0123456789abcdef")


def _indexed_key(payload: Dict) -> str:
    key = payload["program_key"]
    if not (isinstance(key, str) and len(key) == 64
            and _HEX_DIGITS.issuperset(key)):
        raise ValueError("source entry without a program key")
    return key


class SourceIndex(ContentStore):
    """Source key -> program key: which program entry a source names.

    Kept apart from the program entries (its own directory and
    :class:`~repro.util.store.StoreStats`), so program-entry counts,
    hit rates and ``--cache-max-entries`` mean what they always did."""

    @property
    def version(self) -> int:
        return CACHE_FORMAT_VERSION

    @staticmethod
    def source_key(frontend_digest: str, config_fingerprint: str,
                   workload_token: str, source: str) -> str:
        """The raw source under one frontend, config and workload.  No
        canonicalization: byte-different sources get different keys
        even where they share a program entry."""
        return content_key(
            f"repro-batch-source/{CACHE_FORMAT_VERSION}",
            frontend_digest,
            config_fingerprint,
            workload_token,
            source,
        )

    def get_program_key(self, key: str) -> Optional[str]:
        return self.get(key, "source", decode=_indexed_key)

    def put_program_key(self, key: str, program_key: str) -> None:
        self.put(key, "source", {"program_key": program_key})


class ResultCache(ContentStore):
    """A persistent, content-addressed store of compilation results."""

    def __init__(self, cache_dir: Optional[str] = None):
        super().__init__(cache_dir or default_cache_dir())
        #: The source index in front of the program keys.
        self.sources = SourceIndex(os.path.join(self.root, "sources"))

    @property
    def version(self) -> int:
        # Read on every use: a format bump applies to live handles too.
        return CACHE_FORMAT_VERSION

    @property
    def cache_dir(self) -> str:
        return self.root

    # -- key derivation --------------------------------------------------

    @staticmethod
    def workload_token(entry: str, args, fuel: int) -> str:
        return f"entry={entry};args={tuple(args)!r};fuel={fuel}"

    @staticmethod
    def program_key(
        canonical_ir: str, config_fingerprint: str, workload_token: str
    ) -> str:
        return content_key(
            f"repro-batch-cache/{CACHE_FORMAT_VERSION}",
            config_fingerprint,
            workload_token,
            canonical_ir,
        )

    # -- program entries ---------------------------------------------------

    def get_program(self, key: str) -> Optional[Dict]:
        return self.get(key, "program", decode=_program_payload)

    def put_program(self, key: str, payload: Dict) -> None:
        self.put(key, "program", payload)

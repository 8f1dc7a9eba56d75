"""Cross-cutting utilities shared by every subsystem."""

from repro.util.atomicio import append_line, atomic_write_bytes, atomic_write_json
from repro.util.store import ContentStore, JsonlLog, StoreStats, content_key

__all__ = [
    "ContentStore",
    "JsonlLog",
    "StoreStats",
    "append_line",
    "atomic_write_bytes",
    "atomic_write_json",
    "content_key",
]

"""Durable file IO primitives: atomic whole-file writes and whole-line
appends.

:mod:`repro.util.store` builds every content-addressed store and JSONL
log on these two idioms, and the batch ``progress.json`` writer uses
the write helper directly, so a SIGKILL at any instant can leave behind
**either** the old file or the new file, never a torn hybrid:

* :func:`atomic_write_bytes` / :func:`atomic_write_json` -- write to a
  temp file in the destination directory, ``fsync`` it, then
  ``os.replace`` onto the destination.  The rename is atomic on POSIX;
  the fsync closes the window where the rename survives a crash but the
  data does not.
* :func:`append_line` -- append one whole line via a single ``write``
  on an ``O_APPEND`` descriptor under an exclusive ``flock``, so
  concurrent appenders interleave whole records, never fragments.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = [
    "append_line",
    "atomic_write_bytes",
    "atomic_write_json",
    "fsync_directory",
]


def fsync_directory(path: str) -> None:
    """Best-effort fsync of a directory, making a rename durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes, *, fsync: bool = True) -> None:
    """Atomically publish ``data`` at ``path`` (temp + fsync + rename).

    Concurrent writers racing on the same path are harmless when they
    write identical content (content-addressed stores) and last-wins
    otherwise; readers never observe a partial file.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        try:
            os.write(fd, data)
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_path, path)
    except OSError:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
    if fsync:
        fsync_directory(directory)


def atomic_write_json(
    path: str,
    document: Dict,
    *,
    indent: Optional[int] = None,
    fsync: bool = True,
) -> None:
    """Atomically publish ``document`` as sorted-key JSON at ``path``."""
    text = json.dumps(document, indent=indent, sort_keys=True)
    if indent is not None:
        text += "\n"
    atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def append_line(path: str, line: str) -> None:
    """Append one whole line (newline added) under an exclusive flock.

    The single ``write`` on an ``O_APPEND`` descriptor means concurrent
    appenders -- threads or processes -- interleave whole lines and
    never corrupt each other, even without the lock; the flock protects
    platforms where large appends may be split.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    payload = (line.rstrip("\n") + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        os.write(fd, payload)
    finally:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)

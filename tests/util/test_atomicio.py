"""The shared durable-IO primitives (``repro.util.atomicio``)."""

import json
import os
import stat
import threading

import pytest

from repro.util.atomicio import (
    append_line,
    atomic_write_bytes,
    atomic_write_json,
)


def test_atomic_write_creates_parents_and_replaces(tmp_path):
    path = tmp_path / "a" / "b" / "data.bin"
    atomic_write_bytes(str(path), b"one")
    assert path.read_bytes() == b"one"
    atomic_write_bytes(str(path), b"two")
    assert path.read_bytes() == b"two"
    # No temp litter left behind.
    assert [p.name for p in path.parent.iterdir()] == ["data.bin"]


def test_atomic_write_json_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_json(str(path), {"b": 1, "a": 2}, indent=2)
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": 2}


@pytest.mark.parametrize("fsync", [True, False], ids=["fsync", "no-fsync"])
def test_atomic_write_fsyncs_file_then_directory_only_when_asked(
    tmp_path, monkeypatch, fsync
):
    synced = []
    real_fsync = os.fsync

    def recording(fd):
        mode = os.fstat(fd).st_mode
        synced.append("dir" if stat.S_ISDIR(mode) else "file")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording)
    atomic_write_json(str(tmp_path / "doc.json"), {"a": 1}, fsync=fsync)
    assert synced == (["file", "dir"] if fsync else [])
    assert json.loads((tmp_path / "doc.json").read_text()) == {"a": 1}


def test_failed_publish_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "data.bin"
    atomic_write_bytes(str(path), b"old")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write_bytes(str(path), b"new")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["data.bin"]


def test_append_line_appends_whole_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    append_line(str(path), "one")
    append_line(str(path), "two\n")  # trailing newline normalized
    assert path.read_text() == "one\ntwo\n"


def test_append_line_creates_parent_directories(tmp_path):
    path = tmp_path / "a" / "b" / "log.jsonl"
    append_line(str(path), "one")
    assert path.read_text() == "one\n"


def test_append_line_interleaves_whole_records_under_threads(tmp_path):
    path = tmp_path / "log.jsonl"
    lines = [f"record-{i:03d}" for i in range(200)]

    def work(chunk):
        for line in chunk:
            append_line(str(path), line)

    threads = [
        threading.Thread(target=work, args=(lines[i::4],)) for i in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    written = path.read_text().splitlines()
    assert sorted(written) == sorted(lines)  # no torn or lost records

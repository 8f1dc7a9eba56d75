"""Crash-resumable batch runs: the journal, and a real SIGKILL.

The acceptance property: a batch SIGKILLed mid-run and re-run with
``--resume`` produces a manifest **byte-identical** to an uninterrupted
run's, with the already-finished programs replayed from the journal
instead of recompiled.
"""

import glob
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.batch import CRASH_ENV_VAR, manifest_to_bytes, run_batch
from repro.batch.journal import (
    JOURNAL_SCHEMA,
    BatchJournal,
    batch_key,
)

from .test_fault_injection import PROGRAM

CORPUS = os.path.join(
    os.path.dirname(__file__), os.pardir, "golden", "corpus"
)


def _tasks(sources):
    return [
        {"path": f"p{i}.c", "source": source}
        for i, source in enumerate(sources)
    ]


def test_batch_key_tracks_identity_not_order_of_definition():
    tasks = _tasks(["int main(int n) { return n; }"])
    key = batch_key("cfg", "main", [96], 1000, tasks)
    assert key == batch_key("cfg", "main", [96], 1000, tasks)
    assert key != batch_key("cfg2", "main", [96], 1000, tasks)
    assert key != batch_key("cfg", "main", [97], 1000, tasks)
    assert key != batch_key(
        "cfg", "main", [96], 1000,
        _tasks(["int main(int n) { return n + 1; }"]),
    )


def test_journal_defaults_under_the_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    key = "k" * 64
    assert BatchJournal(None, key).path == os.path.join(
        str(tmp_path), "journals", "v1", f"{key}.journal"
    )


def test_journal_default_follows_the_cache_dir_fallback(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert BatchJournal(None, "k" * 64).directory == os.path.join(
        str(tmp_path), "repro", "journals"
    )


def test_journal_dir_overrides_the_default(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    journal = BatchJournal(str(tmp_path / "mine"), "k" * 64)
    assert journal.path == os.path.join(
        str(tmp_path), "mine", "v1", "k" * 64 + ".journal"
    )


def test_journal_write_failure_only_costs_a_recompute(tmp_path):
    """A line that cannot be written is dropped, not raised: the batch
    goes on, and resume recompiles that program."""
    blocked = tmp_path / "journals"
    blocked.write_text("a file where the journal directory should be")
    tasks = _tasks(["int main(int n) { return n; }"])
    journal = BatchJournal(str(blocked), "k" * 64)
    journal.record(0, tasks[0], {"status": "ok"})
    assert journal.load(tasks) == {} and journal.skipped == 0


def test_journal_roundtrip_and_validation(tmp_path):
    tasks = _tasks(["int main(int n) { return n; }", "int f() { return 1; }"])
    journal = BatchJournal(str(tmp_path), "k" * 64)
    journal.record(0, tasks[0], {"status": "ok", "path": "p0.c"})
    journal.record(1, tasks[1], {"status": "crashed", "path": "p1.c"})
    resumed = journal.load(tasks)
    # ok resumes; crashed is run-shape dependent and must be retried.
    assert list(resumed) == [0]
    assert journal.skipped == 1


def test_journal_rejects_stale_and_torn_lines(tmp_path):
    tasks = _tasks(["int main(int n) { return n; }"])
    journal = BatchJournal(str(tmp_path), "k" * 64)
    journal.record(0, tasks[0], {"status": "ok"})
    with open(journal.path, "a") as handle:
        # Torn trailing append, a foreign schema, and a stale digest.
        handle.write('{"schema": "' + JOURNAL_SCHEMA + '", "ind\n')
        handle.write(
            json.dumps({"schema": "other/1", "index": 0, "entry": {}}) + "\n"
        )
        handle.write(
            json.dumps(
                {
                    "schema": JOURNAL_SCHEMA,
                    "index": 0,
                    "path": "p0.c",
                    "sha256": "0" * 64,
                    "entry": {"status": "ok", "poisoned": True},
                }
            )
            + "\n"
        )
    resumed = journal.load(tasks)
    assert resumed == {0: {"status": "ok"}}  # later invalid lines lost
    assert journal.skipped == 3


def test_journal_last_valid_line_wins(tmp_path):
    tasks = _tasks(["int main(int n) { return n; }"])
    journal = BatchJournal(str(tmp_path), "k" * 64)
    journal.record(0, tasks[0], {"status": "ok", "round": 1})
    journal.record(0, tasks[0], {"status": "ok", "round": 2})
    assert journal.load(tasks)[0]["round"] == 2


def test_resume_replays_finished_programs(tmp_path):
    """An in-process run with a pre-seeded journal recompiles nothing
    that already finished, and the manifest is byte-identical."""
    reference = run_batch(
        [CORPUS], args=(96,), jobs=2, use_cache=False,
    )
    assert reference.ok

    # First resumable run writes the journal as it goes.
    journal_dir = str(tmp_path / "journal")
    first = run_batch(
        [CORPUS], args=(96,), jobs=2, use_cache=False,
        resume=True, journal_dir=journal_dir,
    )
    assert first.ok
    assert first.stats["resumed_programs"] == 0
    assert manifest_to_bytes(first.manifest) == manifest_to_bytes(
        reference.manifest
    )

    # Second resumable run replays every program from the journal.
    second = run_batch(
        [CORPUS], args=(96,), jobs=2, use_cache=False,
        resume=True, journal_dir=journal_dir,
    )
    assert second.ok
    assert second.stats["resumed_programs"] == len(reference.entries)
    assert manifest_to_bytes(second.manifest) == manifest_to_bytes(
        reference.manifest
    )


def test_crashed_program_is_the_only_one_resume_recompiles(
    tmp_path, monkeypatch
):
    """A worker crash under ``resume=True``, end to end: the crashed
    program is journaled but not replayed, so the resumed run compiles
    it alone and ends byte-identical to a clean run."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for index in range(5):
        (corpus / f"prog{index}.c").write_text(
            PROGRAM.replace("y & 7", f"y & {7 + index}")
        )
    (corpus / "poison.c").write_text(PROGRAM.replace("y & 7", "y & 63"))
    journal_dir = str(tmp_path / "journal")
    cache_dir = str(tmp_path / "cache")

    def run(**kwargs):
        return run_batch([str(corpus)], args=(32,), jobs=2, **kwargs)

    monkeypatch.setenv(CRASH_ENV_VAR, "poison")
    crashed = run(cache_dir=cache_dir, resume=True, journal_dir=journal_dir)
    assert crashed.stats["crashed"] == 1
    (journal,) = glob.glob(os.path.join(journal_dir, "v1", "*.journal"))
    with open(journal) as handle:
        lines = [json.loads(line) for line in handle]
    journaled = sorted(
        (line["path"], line["entry"]["status"]) for line in lines
    )
    assert journaled == [("poison.c", "crashed")] + [
        (f"prog{i}.c", "ok") for i in range(5)
    ]

    monkeypatch.delenv(CRASH_ENV_VAR)
    resumed = run(cache_dir=cache_dir, resume=True, journal_dir=journal_dir)
    assert resumed.ok
    assert resumed.stats["resumed_programs"] == 5
    # One program reached a worker: poison.c, a cache miss.
    assert (resumed.cache_stats.hits, resumed.cache_stats.misses) == (0, 1)

    clean = run(use_cache=False)
    assert manifest_to_bytes(resumed.manifest) == manifest_to_bytes(
        clean.manifest
    )


def _proc_stat(pid):
    """``[state, ppid, ...]`` from Linux ``/proc/<pid>/stat``; [] once
    the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return []


def _child_pids(pid):
    names = os.listdir("/proc") if os.path.isdir("/proc") else []
    return [int(name) for name in names
            if name.isdigit() and _proc_stat(name)[1:2] == [str(pid)]]


def _running(pid):
    return _proc_stat(pid)[:1] not in ([], ["Z"], ["X"])


@pytest.mark.slow
def test_sigkill_mid_run_then_resume_is_byte_identical(tmp_path):
    """kill -9 a ``repro batch --jobs 4 --resume`` mid-run; its orphaned
    workers must exit, and the resumed run must produce a
    byte-identical manifest."""
    journal_dir = str(tmp_path / "journal")
    reference_path = str(tmp_path / "reference.json")
    resumed_path = str(tmp_path / "resumed.json")
    base = [
        sys.executable, "-m", "repro", "batch", CORPUS,
        "--jobs", "4", "--args", "96", "--no-cache",
    ]
    subprocess.run(
        base + ["--manifest", reference_path], check=True,
        capture_output=True, timeout=600,
    )

    resume_cmd = base + [
        "--resume", "--journal-dir", journal_dir,
        "--manifest", resumed_path,
    ]
    killed = False
    for _attempt in range(5):
        process = subprocess.Popen(
            resume_cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and process.poll() is None:
            journals = glob.glob(
                os.path.join(journal_dir, "v1", "*.journal")
            )
            if any(os.path.getsize(p) > 0 for p in journals):
                workers = _child_pids(process.pid)
                process.send_signal(signal.SIGKILL)
                process.wait()
                killed = True
                break
            time.sleep(0.005)
        else:
            process.kill()
            process.wait()
        if killed:
            break
        # Too fast to catch: wipe and retry with a fresh journal.
        for path in glob.glob(os.path.join(journal_dir, "v1", "*.journal")):
            os.remove(path)

    if killed and os.path.isdir("/proc"):
        # No sentinel will ever reach the killed driver's workers.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and any(map(_running, workers)):
            time.sleep(0.05)
        assert workers and not any(map(_running, workers))

    proc = subprocess.run(
        resume_cmd, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if killed:
        assert "resumed from journal" in proc.stdout

    with open(reference_path, "rb") as handle:
        reference = handle.read()
    with open(resumed_path, "rb") as handle:
        resumed = handle.read()
    assert hashlib.sha256(resumed).hexdigest() == hashlib.sha256(
        reference
    ).hexdigest()
    assert resumed == reference

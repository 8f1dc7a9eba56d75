"""The shared persistence primitive: one corruption matrix over every
store built on :class:`repro.util.ContentStore`, key compatibility, and
the :class:`repro.util.JsonlLog` append/load discipline."""

import json
import multiprocessing
import os
import threading

import pytest

from repro.batch.cache import ResultCache, SourceIndex
from repro.batch.journal import JOURNAL_SCHEMA, batch_key
from repro.util import JsonlLog, StoreStats, content_key

KEY = content_key("test", "entry")


def _rewrite(mutate):
    def corrupt(raw):
        document = json.loads(raw)
        mutate(document)
        return json.dumps(document).encode()

    return corrupt


#: Every way an entry file can be damaged or foreign.  The batch
#: worker's recovery test (tests/batch/test_cache.py) runs the same set.
CORRUPTORS = {
    "empty": lambda raw: b"",
    "truncated": lambda raw: raw[: len(raw) // 2],
    "garbage": lambda raw: b"not json at all{{{",
    "missing-fields": _rewrite(lambda d: (d.pop("key"), d.pop("payload"))),
    "wrong-shape": lambda raw: json.dumps(["wrong", "shape"]).encode(),
    "wrong-format": _rewrite(lambda d: d.update(format=999)),
    "wrong-kind": _rewrite(lambda d: d.update(kind="other")),
    "wrong-key": _rewrite(lambda d: d.update(key="m" * 64)),
    "wrong-name": _rewrite(lambda d: d.update(name="00000000000000000007")),
    "bad-payload": _rewrite(lambda d: d.update(payload=None)),
}


class ProgramEntries:
    """Batch result-cache program entries, read back directly."""

    def open(self, root):
        return ResultCache(root)

    def fill(self, store):
        store.put_program(KEY, {"summary": {"candidates": []}})

    def read(self, store):
        return store.get_program(KEY)

    def miss(self):
        return None


class SourceEntries:
    """Source-index entries, each naming the program key of one source."""

    def open(self, root):
        return SourceIndex(root)

    def fill(self, store):
        store.put_program_key(KEY, content_key("test", "program"))

    def read(self, store):
        return store.get_program_key(KEY)

    def miss(self):
        return None


STORES = {
    "result-cache": ProgramEntries(),
    "source-index": SourceEntries(),
}


@pytest.mark.parametrize("corrupt", CORRUPTORS.values(), ids=CORRUPTORS.keys())
@pytest.mark.parametrize("entries", STORES.values(), ids=STORES.keys())
def test_corrupt_entry_is_a_counted_miss(tmp_path, entries, corrupt):
    root = str(tmp_path)
    store = entries.open(root)
    entries.fill(store)
    paths = store.entry_paths()
    assert paths
    for path in paths:
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(corrupt(raw))

    reader = entries.open(root)
    assert entries.read(reader) == entries.miss()
    assert reader.stats.hits == 0
    assert reader.stats.corrupt == reader.stats.misses == len(paths)

    # The damaged files were replaced: a refilled store reads back warm.
    entries.fill(reader)
    healed = entries.open(root)
    entries.read(healed)
    assert healed.stats.hits == len(paths) and healed.stats.corrupt == 0


@pytest.mark.parametrize("entries", STORES.values(), ids=STORES.keys())
def test_absent_entry_is_a_plain_miss(tmp_path, entries):
    store = entries.open(str(tmp_path))
    assert entries.read(store) == entries.miss()
    assert (store.stats.hits, store.stats.misses, store.stats.corrupt) == (
        0, 1, 0,
    )
    assert store.entry_paths() == []


@pytest.mark.parametrize("entries", STORES.values(), ids=STORES.keys())
def test_entry_file_is_exactly_the_envelope(tmp_path, entries):
    """An entry is ``v<N>/<k[:2]>/<k>.json`` holding the four envelope
    fields and nothing else -- the key set a read insists on."""
    store = entries.open(str(tmp_path))
    entries.fill(store)
    [path] = store.entry_paths()
    assert os.path.relpath(path, str(tmp_path)) == os.path.join(
        f"v{store.version}", KEY[:2], f"{KEY}.json"
    )
    with open(path) as handle:
        document = json.load(handle)
    assert sorted(document) == ["format", "key", "kind", "payload"]
    assert document["format"] == store.version and document["key"] == KEY


def _block_root(root):
    """A regular file where the store's directory should be."""
    with open(root, "w") as handle:
        handle.write("not a directory")
    return ResultCache(root), {"summary": {}}


def _unserializable_payload(root):
    return ResultCache(root), {"summary": {"candidates": object()}}


@pytest.mark.parametrize(
    "setup", [_block_root, _unserializable_payload],
    ids=["root-is-a-file", "unserializable-payload"],
)
def test_failed_write_is_counted_not_raised(tmp_path, setup):
    """A lost write costs a recompute on the next miss, never the run."""
    root = str(tmp_path / "store")
    store, payload = setup(root)
    store.put_program(KEY, payload)
    assert store.stats.write_failures == 1 and store.stats.writes == 0
    assert store.get_program(KEY) is None
    # Nothing half-written is left behind, not even a temp file.
    assert [files for _, _, files in os.walk(root) if files] == []


def test_keys_are_unit_separated_sha256():
    """Existing keys survive the move to ``content_key``."""
    import hashlib

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    program = ResultCache.program_key("module m", "fp", "wl")
    assert program == sha("repro-batch-cache/1\x1ffp\x1fwl\x1fmodule m")
    # The journal key was an incremental hasher over the same parts.
    tasks = [{"path": "a.c", "source": "x"}, {"path": "b.c", "source": "y"}]
    digests = [sha("x"), sha("y")]
    assert batch_key("fp", "main", [96], 1000, tasks) == sha(
        f"{JOURNAL_SCHEMA}\x1ffp\x1fmain\x1f(96,)\x1f1000"
        f"\x1fa.c\x1f{digests[0]}\x1fb.c\x1f{digests[1]}"
    )


def test_key_parts_never_run_together():
    import hashlib

    assert content_key("ab", "c") != content_key("a", "bc")
    assert content_key("ab", "c") == hashlib.sha256(b"ab\x1fc").hexdigest()


def test_entry_paths_skip_a_killed_writer_s_temp_file(tmp_path):
    """A writer killed between its temp write and the rename leaves a
    ``.tmp-`` file beside the entries; it is neither an entry to read
    nor one to prune."""
    cache = ResultCache(str(tmp_path))
    cache.put_program(KEY, {"summary": {}})
    [entry] = cache.entry_paths()
    litter = os.path.join(os.path.dirname(entry), ".tmp-killed")
    with open(litter, "w") as handle:
        handle.write('{"format": 1, "ki')
    assert cache.entry_paths() == [entry]
    assert cache.prune(1) == 0 and os.path.exists(entry)


def test_store_stats_merge_a_worker_s_counts():
    stats = StoreStats()
    stats.hits, stats.misses = 1, 1
    worker = StoreStats()
    worker.hits, worker.misses, worker.corrupt = 2, 4, 1
    stats.merge(worker.to_dict())
    assert (stats.hits, stats.misses, stats.corrupt) == (3, 5, 1)
    assert stats.to_dict()["hit_rate"] == 0.375
    assert stats.as_counters("cache")["cache.misses"] == 5
    assert set(stats.as_counters("cache")) == {
        f"cache.{name}" for name in StoreStats.__slots__
    }


def test_legacy_program_entry_with_loop_keys_still_hits(tmp_path):
    """A v1 program entry written when loop records still existed."""
    cache = ResultCache(str(tmp_path))
    legacy = {"summary": {"candidates": []}, "loop_keys": ["a" * 64]}
    os.makedirs(os.path.dirname(cache.path(KEY)))
    with open(cache.path(KEY), "w") as handle:
        json.dump({"format": 1, "kind": "program", "key": KEY,
                   "payload": legacy}, handle, sort_keys=True)
    assert cache.get_program(KEY) == legacy
    assert cache.stats.hits == 1 and cache.stats.corrupt == 0


def test_jsonl_log_skips_and_counts_damaged_lines(tmp_path):
    log = JsonlLog(str(tmp_path / "sub" / "log.jsonl"), "repro-test/1")
    log.append({"n": 1})
    with open(log.path, "a") as handle:
        handle.write("\n")  # blank
        handle.write('{"schema": "repro-test/1", "n": \n')  # torn
        handle.write(json.dumps({"schema": "other/1", "n": 2}) + "\n")
        handle.write(json.dumps(["not", "a", "record"]) + "\n")
    log.append({"n": 3})
    newer = JsonlLog(log.path, "repro-test/1.4")
    newer.append({"n": 4})  # a newer minor version still reads back
    assert [r["n"] for r in log.load()] == [1, 3, 4]
    assert log.skipped == 4
    assert all(r["schema"].startswith("repro-test/1") for r in log.load())
    log.discard()
    assert log.load() == [] and log.skipped == 0


def test_jsonl_log_concurrent_appends_stay_whole(tmp_path):
    log = JsonlLog(str(tmp_path / "log.jsonl"), "repro-test/1")

    def writer(tag):
        for i in range(50):
            log.append({"tag": tag, "i": i, "pad": tag * 512})

    threads = [threading.Thread(target=writer, args=(t,)) for t in "abcd"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records = log.load()
    assert len(records) == 200 and log.skipped == 0


def _append_records(path, writer, appends):
    log = JsonlLog(path, "repro-test/1")
    for seq in range(appends):
        log.append({"writer": writer, "seq": seq, "pad": "x" * 512})


def test_jsonl_log_appends_from_several_processes_stay_whole(tmp_path):
    """Forked writers never tear each other's lines: every raw line
    parses, every record survives, and each writer's records keep their
    order."""
    path = str(tmp_path / "log.jsonl")
    writers, appends = 4, 12
    ctx = multiprocessing.get_context("spawn" if os.name == "nt" else "fork")
    procs = [
        ctx.Process(target=_append_records, args=(path, writer, appends))
        for writer in range(writers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    assert len(records) == writers * appends
    for writer in range(writers):
        seqs = [r["seq"] for r in records if r["writer"] == writer]
        assert seqs == list(range(appends))

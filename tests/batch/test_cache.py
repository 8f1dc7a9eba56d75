"""Cache-correctness tests for the persistent batch result cache.

The contract under test: a cache hit is *bitwise identical* to a cold
compute; keys invalidate on any SptConfig change and on a cache-format
version bump; and corrupted or truncated entries degrade to recompute,
never to a crash or a wrong answer.
"""

import json
import os

import pytest

import repro.batch.cache as cache_mod
from repro.batch import (
    ResultCache,
    canonical_module_text,
    compile_program_task,
)
from repro.core.config import best_config
from tests.util.test_content_store import CORRUPTORS

PROGRAM = """
global int data[256];

int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int x = data[i & 255];
        int y = (x * 5 + i) ^ (x >> 2);
        data[i & 255] = y & 511;
        s += y & 15;
    }
    return s;
}
"""


def make_task(source=PROGRAM, path="prog.c", **overrides):
    task = {
        "index": 0,
        "path": path,
        "name": "prog",
        "source": source,
        "config": "best",
        "config_overrides": {},
        "entry": "main",
        "args": [64],
        "fuel": 50_000_000,
    }
    task.update(overrides)
    return task


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


def entry_bytes(entry):
    return json.dumps(entry, sort_keys=True).encode()


def test_hit_is_bitwise_identical_to_cold_compute(cache):
    cold, _ = compile_program_task(make_task(), cache)
    assert cold["status"] == "ok" and cold["cached"] is False

    warm, stats = compile_program_task(make_task(), cache)
    assert warm["cached"] is True
    assert stats["hits"] > 0 and stats["misses"] == 0

    # Everything except the warm/cold marker must be byte-identical.
    cold.pop("cached"), warm.pop("cached")
    assert entry_bytes(cold) == entry_bytes(warm)


def test_hit_matches_uncached_compute(cache):
    """The cached answer equals what a no-cache compile produces."""
    compile_program_task(make_task(), cache)
    warm, _ = compile_program_task(make_task(), cache)
    fresh, _ = compile_program_task(make_task(), None)
    assert warm["summary"] == fresh["summary"]
    assert warm["sha256"] == fresh["sha256"]


def test_canonicalization_ignores_comments_and_whitespace(cache):
    compile_program_task(make_task(), cache)
    reformatted = "// a comment\n" + PROGRAM.replace("    ", "\t")
    warm, stats = compile_program_task(make_task(source=reformatted), cache)
    assert warm["cached"] is True
    assert stats["misses"] == 0
    # ... and the canonical text itself is equal.
    assert canonical_module_text(PROGRAM) == canonical_module_text(reformatted)


def test_semantic_change_misses(cache):
    compile_program_task(make_task(), cache)
    changed = PROGRAM.replace("y & 15", "y & 31")
    entry, stats = compile_program_task(make_task(source=changed), cache)
    assert entry["cached"] is False
    assert stats["misses"] > 0


def test_config_change_invalidates(cache):
    compile_program_task(make_task(), cache)
    entry, _ = compile_program_task(
        make_task(config_overrides={"cost_fraction": 0.2}), cache
    )
    assert entry["cached"] is False
    # And the original config still hits.
    entry, _ = compile_program_task(make_task(), cache)
    assert entry["cached"] is True


def test_workload_change_invalidates(cache):
    compile_program_task(make_task(), cache)
    entry, _ = compile_program_task(make_task(args=[65]), cache)
    assert entry["cached"] is False


CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "golden", "corpus")


@pytest.mark.parametrize(
    "program", sorted(p for p in os.listdir(CORPUS) if p.endswith(".c"))
)
def test_corpus_entries_are_workload_keyed(cache, program):
    """Pass 1 takes its probabilities from one training run, so an entry
    cached under one workload must never answer for another, while the
    same workload again is served what a fresh compile produces."""
    with open(os.path.join(CORPUS, program)) as handle:
        source = handle.read()

    compile_program_task(make_task(source=source, args=[8]), cache)
    other, stats = compile_program_task(
        make_task(source=source, args=[200]), cache
    )
    assert other["status"] == "ok" and other["cached"] is False
    assert stats["hits"] == 0 and stats["corrupt"] == 0

    fresh, _ = compile_program_task(make_task(source=source, args=[200]), None)
    again, stats = compile_program_task(
        make_task(source=source, args=[200]), cache
    )
    assert again["cached"] is True and stats["misses"] == 0
    assert again["summary"] == other["summary"] == fresh["summary"]
    assert again["sha256"] == other["sha256"] == fresh["sha256"]
    other.pop("cached"), again.pop("cached")
    assert entry_bytes(other) == entry_bytes(again)


def test_version_bump_invalidates(cache, monkeypatch):
    compile_program_task(make_task(), cache)
    monkeypatch.setattr(cache_mod, "CACHE_FORMAT_VERSION", 999)
    entry, _ = compile_program_task(make_task(), cache)
    assert entry["cached"] is False
    # New-format entries land in their own namespace...
    assert os.path.isdir(os.path.join(cache.cache_dir, "v999"))
    # ...and after reverting, the old format still hits untouched.
    monkeypatch.undo()
    entry, _ = compile_program_task(make_task(), cache)
    assert entry["cached"] is True


def test_fingerprint_stability():
    assert best_config().fingerprint() == best_config().fingerprint()
    assert (
        best_config().fingerprint()
        != best_config().with_overrides(min_body_size=13).fingerprint()
    )


@pytest.mark.parametrize(
    "corruptor", CORRUPTORS.values(), ids=CORRUPTORS.keys()
)
def test_corrupt_entries_recover(cache, corruptor):
    """The batch worker recomputes past every corruption the shared
    store matrix (tests/util/test_content_store.py) counts as a miss."""
    compile_program_task(make_task(), cache)
    paths = cache.entry_paths()
    assert paths
    for path in paths:
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(corruptor(raw))

    entry, stats = compile_program_task(make_task(), cache)
    assert entry["status"] == "ok"
    assert entry["cached"] is False  # recomputed, did not crash
    assert stats["corrupt"] == 1

    # The rewrite healed the cache: next lookup is warm again.
    entry, _ = compile_program_task(make_task(), cache)
    assert entry["cached"] is True


def test_prune_evicts_oldest(cache):
    for shift in range(5):
        compile_program_task(
            make_task(source=PROGRAM.replace("& 15", f"& {shift + 16}")),
            cache,
        )
    total = len(cache.entry_paths())
    assert total == 5  # one program entry per program
    # Age entries deterministically so mtime ordering is unambiguous.
    for age, path in enumerate(cache.entry_paths()):
        os.utime(path, (age, age))
    evicted = cache.prune(4)
    assert evicted == total - 4
    assert len(cache.entry_paths()) == 4
    assert cache.stats.evictions == evicted
    # Pruning below the bound is a no-op.
    assert cache.prune(10) == 0


def test_get_never_raises_on_unreadable_dir(tmp_path):
    cache = ResultCache(str(tmp_path / "nonexistent"))
    assert cache.get_program("0" * 64) is None
    assert cache.stats.misses == 1

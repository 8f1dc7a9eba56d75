"""The source index in front of the canonical program key.

A warm program is resolved from its raw source bytes without lowering;
a source the index does not know -- a cosmetic variant, a damaged,
foreign or dangling source entry, another cache format or frontend --
takes the canonical path, which lowers it once, and gets a fresh
source entry.  Program keys, program entries and manifests are the
ones the canonical path alone derives.
"""

import os
import random
import shutil

import pytest

import repro.batch.cache as cache_mod
import repro.batch.worker as worker
from repro.batch import (
    ResultCache,
    compile_program_task,
    manifest_to_bytes,
    run_batch,
)
from repro.batch.cache import SourceIndex
from repro.batch.worker import (
    config_from_task,
    frontend_digest,
    program_key,
    workload_from_task,
)
from repro.testkit import generate_program, random_gen_config
from tests.batch.test_cache import PROGRAM, make_task
from tests.util.test_content_store import CORRUPTORS, _rewrite

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden")
CORPUS = os.path.join(GOLDEN, "corpus")
EXPECTED_MANIFEST = os.path.join(GOLDEN, "expected", "manifest.json")

#: Source-entry damage the index must treat as a miss: the shared store
#: matrix, plus well-formed envelopes that name no usable program key.
DAMAGE = dict(
    CORRUPTORS,
    **{
        "program-payload": _rewrite(
            lambda d: d.update(payload={"summary": {}})),
        "non-hex-key": _rewrite(
            lambda d: d.update(payload={"program_key": "../" * 21 + "x"})),
    },
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


def source_key(task):
    config = config_from_task(task)
    workload = workload_from_task(task)
    return SourceIndex.source_key(
        frontend_digest(), config.fingerprint(),
        ResultCache.workload_token(
            workload.entry, workload.args, workload.fuel),
        task["source"],
    )


def no_lowering(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a warm program was lowered")

    monkeypatch.setattr(worker, "compile_minic", refuse)
    monkeypatch.setattr(worker, "canonical_module_text", refuse)


def golden_batch(cache_dir, **kwargs):
    return run_batch([CORPUS], args=(96,), cache_dir=cache_dir, **kwargs)


def test_warm_corpus_is_served_without_lowering(tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    cold = golden_batch(cache_dir, jobs=1)
    assert cold.stats["source_index"]["writes"] == 6
    no_lowering(monkeypatch)  # forked workers inherit the patch
    warm = golden_batch(cache_dir, jobs=1)
    assert warm.stats["cached_programs"] == 6
    assert warm.stats["source_index"]["hits"] == 6
    assert warm.stats["source_index"]["writes"] == 0
    assert warm.stats["cache"]["hits"] == 6
    assert warm.stats["cache"]["misses"] == 0
    with open(EXPECTED_MANIFEST, "rb") as handle:
        expected = handle.read()
    assert manifest_to_bytes(cold.manifest) == expected
    assert manifest_to_bytes(warm.manifest) == expected


def test_a_miss_lowers_once_under_the_program_name(cache, monkeypatch):
    names = []
    lower = worker.compile_minic

    def counted(source, name="module"):
        names.append(name)
        return lower(source, name=name)

    monkeypatch.setattr(worker, "compile_minic", counted)
    entry, stats = compile_program_task(make_task(), cache)
    assert entry["cached"] is False
    assert names == ["prog"]
    assert entry["program_key"] == program_key(
        make_task(), config_from_task(make_task()),
        workload_from_task(make_task()))


def test_cosmetic_variant_hits_canonically_then_gets_its_own_entry(
        cache, monkeypatch):
    compile_program_task(make_task(), cache)
    variant = make_task(source="// reformatted\n" + PROGRAM.replace(
        "    ", "\t"))

    entry, stats = compile_program_task(variant, cache)
    assert entry["cached"] is True
    assert stats["hits"] == 1 and stats["misses"] == 0
    assert stats["source_index"]["misses"] == 1
    assert stats["source_index"]["writes"] == 1
    assert len(cache.entry_paths()) == 1  # still one program entry
    assert len(cache.sources.entry_paths()) == 2

    no_lowering(monkeypatch)
    again, stats = compile_program_task(variant, cache)
    assert stats["source_index"]["hits"] == 1
    assert again == entry


@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
def test_damaged_source_entry_falls_back(cache, damage):
    cold, _ = compile_program_task(make_task(), cache)
    (path,) = cache.sources.entry_paths()
    with open(path, "rb") as handle:
        raw = handle.read()
    with open(path, "wb") as handle:
        handle.write(damage(raw))

    entry, stats = compile_program_task(make_task(), cache)
    assert entry == dict(cold, cached=True)
    assert stats["source_index"]["corrupt"] == 1
    assert stats["source_index"]["writes"] == 1
    assert stats["hits"] + stats["misses"] == 1  # one program-entry read

    entry, stats = compile_program_task(make_task(), cache)
    assert stats["source_index"]["hits"] == 1  # the rewrite healed it


def test_dangling_source_entry_reads_the_program_entry_once(cache):
    cold, _ = compile_program_task(make_task(), cache)
    for path in cache.entry_paths():
        os.remove(path)

    entry, stats = compile_program_task(make_task(), cache)
    assert entry == cold
    assert stats["source_index"]["hits"] == 1
    assert stats["misses"] == 1 and stats["hits"] == 0
    assert stats["writes"] == 1 and stats["source_index"]["writes"] == 1

    entry, stats = compile_program_task(make_task(), cache)
    assert entry["cached"] is True
    assert stats["hits"] == 1 and stats["source_index"]["hits"] == 1


def test_dangling_source_entry_to_another_key_falls_back(cache):
    compile_program_task(make_task(), cache)
    cache.sources.put_program_key(source_key(make_task()), "0" * 64)

    entry, stats = compile_program_task(make_task(), cache)
    assert entry["cached"] is True
    assert stats["misses"] == 1 and stats["hits"] == 1
    assert cache.sources.get_program_key(source_key(make_task())) == (
        entry["program_key"])


def test_version_bump_misses_the_index(cache, monkeypatch):
    compile_program_task(make_task(), cache)
    monkeypatch.setattr(cache_mod, "CACHE_FORMAT_VERSION", 999)
    entry, stats = compile_program_task(make_task(), cache)
    assert entry["cached"] is False
    assert stats["source_index"]["misses"] == 1
    assert os.path.isdir(os.path.join(cache.cache_dir, "sources", "v999"))
    monkeypatch.undo()
    entry, stats = compile_program_task(make_task(), cache)
    assert stats["source_index"]["hits"] == 1


def test_changed_frontend_digest_misses_the_index(cache, monkeypatch):
    compile_program_task(make_task(), cache)
    monkeypatch.setattr(worker, "frontend_digest", lambda: "edited")
    entry, stats = compile_program_task(make_task(), cache)
    # The canonical path still finds the program entry ...
    assert entry["cached"] is True and stats["hits"] == 1
    # ... but only after the index missed and lowered the source.
    assert stats["source_index"]["misses"] == 1
    assert stats["source_index"]["writes"] == 1


def test_frontend_digest_covers_the_ir_modules(tmp_path, monkeypatch):
    import repro.ir

    copy = tmp_path / "ir"
    shutil.copytree(os.path.dirname(repro.ir.__file__), copy)
    digest = frontend_digest.__wrapped__
    monkeypatch.setattr(repro.ir, "__file__", str(copy / "__init__.py"))
    assert digest() == frontend_digest()
    with open(copy / "printer.py", "a") as handle:
        handle.write("\n# edited\n")
    assert digest() != frontend_digest()


def test_cache_max_entries_bounds_both_stores(tmp_path):
    cache_dir = str(tmp_path / "cache")
    result = golden_batch(cache_dir, jobs=1, cache_max_entries=4)
    cache = ResultCache(cache_dir)
    assert len(cache.entry_paths()) == 4
    assert len(cache.sources.entry_paths()) == 4
    assert result.stats["cache"]["evictions"] == 2
    assert result.stats["source_index"]["evictions"] == 2


def test_parallel_run_indexes_every_program(tmp_path):
    cache_dir = str(tmp_path / "cache")
    result = golden_batch(cache_dir, jobs=2)
    cache = ResultCache(cache_dir)
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name)) as handle:
            task = make_task(source=handle.read(), args=[96])
        entry = next(e for e in result.entries if e["path"] == name)
        assert cache.sources.get_program_key(source_key(task)) == (
            entry["program_key"])
    assert cache.sources.stats.corrupt == 0


class _Compiled:
    def to_dict(self):
        return {}


def _sources():
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name)) as handle:
            yield name.split(".")[0], handle.read()
    rng = random.Random("source-index")
    for index in range(20):
        yield f"gen{index}", generate_program(
            rng, random_gen_config(rng)).source()


def test_lowered_once_key_is_the_canonical_key(tmp_path, monkeypatch):
    """The key a miss derives from the module it compiles equals
    ``program_key()``, which lowers under the fixed name ``m``."""
    monkeypatch.setattr(worker, "compile_spt",
                        lambda module, *args, **kwargs: _Compiled())
    cache = ResultCache(str(tmp_path / "cache"))
    for name, source in _sources():
        task = make_task(source=source, name=name)
        entry, _ = compile_program_task(task, cache)
        assert entry["status"] == "ok", entry
        assert entry["program_key"] == program_key(
            task, config_from_task(task), workload_from_task(task)), name

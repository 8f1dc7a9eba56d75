"""Fault-injection tests for worker crash isolation.

``$REPRO_BATCH_CRASH_ON`` makes a worker hard-exit (``os._exit``, no
cleanup, no exception) while holding a matching program.  The batch
must report a structured per-program failure and finish everything
else -- one poisoned program can never take down the run.
"""

import warnings

import pytest

from repro.batch import CRASH_ENV_VAR, CRASH_EXIT_CODE, run_batch

PROGRAM = """
global int data[64];

int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int x = data[i & 63];
        int y = (x * 11 + i) ^ (x >> 1);
        data[i & 63] = y & 127;
        s += y & 7;
    }
    return s;
}
"""


@pytest.fixture
def corpus(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for index in range(5):
        (corpus_dir / f"prog{index}.c").write_text(
            PROGRAM.replace("y & 7", f"y & {7 + index}")
        )
    # Distinct content: the content-addressed cache must never be able
    # to serve the poisoned program from a healthy twin's entry.
    (corpus_dir / "poison.c").write_text(PROGRAM.replace("y & 7", "y & 63"))
    return corpus_dir


@pytest.mark.parametrize("jobs", [1, 3])
def test_worker_crash_is_isolated(corpus, tmp_path, monkeypatch, jobs):
    monkeypatch.setenv(CRASH_ENV_VAR, "poison")
    result = run_batch(
        [str(corpus)], args=(32,), jobs=jobs,
        cache_dir=str(tmp_path / "cache"),
    )
    assert not result.ok
    by_path = {p["path"]: p for p in result.manifest["programs"]}

    crashed = by_path["poison.c"]
    assert crashed["status"] == "crashed"
    assert crashed["error"]["exitcode"] == CRASH_EXIT_CODE
    assert crashed["error"]["message"] == (
        "worker process died (exit code 13) while compiling this program"
    )

    for index in range(5):
        assert by_path[f"prog{index}.c"]["status"] == "ok"
    assert result.stats["crashed"] == 1
    assert result.stats["ok"] == 5


def test_crash_entries_are_not_cached(corpus, tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    monkeypatch.setenv(CRASH_ENV_VAR, "poison")
    run_batch([str(corpus)], args=(32,), jobs=2, cache_dir=cache_dir)

    # With the fault gone, the poisoned program compiles fine -- the
    # crash must not have left a poisoned cache entry behind.
    monkeypatch.delenv(CRASH_ENV_VAR)
    result = run_batch([str(corpus)], args=(32,), jobs=2, cache_dir=cache_dir)
    assert result.ok
    by_path = {p["path"]: p for p in result.manifest["programs"]}
    assert by_path["poison.c"]["status"] == "ok"
    # The five healthy programs come back warm from the first run.
    assert result.stats["cached_programs"] == 5


def test_every_worker_crashing_still_terminates(corpus, tmp_path, monkeypatch):
    """Crash on *every* program: the batch must respawn through the
    whole corpus and report six structured failures, not hang."""
    monkeypatch.setenv(CRASH_ENV_VAR, ".c")
    result = run_batch(
        [str(corpus)], args=(32,), jobs=2, cache_dir=str(tmp_path / "cache")
    )
    statuses = [p["status"] for p in result.manifest["programs"]]
    assert statuses == ["crashed"] * 6
    assert result.stats["crashed"] == 6


def test_a_respawn_never_forks_a_multi_threaded_driver(
    corpus, tmp_path, monkeypatch
):
    # From Python 3.12 on, os.fork() in a multi-threaded process warns
    # (the child may deadlock on a lock another thread held).  The
    # driver runs no second thread, so the respawn after the crash
    # must not warn; earlier Pythons never warn, so there this checks
    # nothing.
    monkeypatch.setenv(CRASH_ENV_VAR, "poison")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_batch(
            [str(corpus)], args=(32,), jobs=1,
            cache_dir=str(tmp_path / "cache"),
        )
    assert result.stats["crashed"] == 1
    assert result.stats["ok"] == 5
    assert not [w for w in caught if "use of fork()" in str(w.message)]

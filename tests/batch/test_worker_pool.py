"""The compile-worker pool, driven directly.

``run_batch`` is the pool's only caller in the program; these tests
hold the pool to its own contract -- what :meth:`WorkerPool.poll`
reports, in which order, and what a worker's death costs -- without
the driver's bookkeeping in between.
"""

import hashlib
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.batch import CRASH_ENV_VAR, CRASH_EXIT_CODE, WorkerPool
from repro.batch.driver import _build_tasks
from repro.batch.lifecycle import _should_crash, crashed_entry, worker_main
from repro.batch.worker import compile_program_task

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

CRASH_MESSAGE = (
    "worker process died (exit code 13) while compiling this program"
)


@pytest.fixture
def tasks(tmp_path):
    """Five distinct programs, the last one named ``poison.c``."""
    paths = []
    for name, mask in [("a", 7), ("b", 8), ("c", 9), ("d", 10),
                       ("poison", 63)]:
        path = tmp_path / f"{name}.c"
        path.write_text(PROGRAM.replace("y & 7", f"y & {mask}"))
        paths.append(str(path))
    return _build_tasks(paths, "best", {}, "main", (32,), 50_000_000)


@pytest.fixture
def make_pool():
    pools = []

    def make(size, observe=False):
        pool = WorkerPool(size, None, observe=observe)
        pools.append(pool)
        return pool

    yield make
    for pool in pools:
        pool.close()


def poll_until(pool, finished, timeout=60.0):
    """Every event the pool reports until ``finished(events)`` holds."""
    events = []
    deadline = time.monotonic() + timeout
    while not finished(events):
        assert time.monotonic() < deadline, events
        events += pool.poll()
    return events


def resolved(ids):
    """A ``poll_until`` predicate: every id in ``ids`` is done or
    crashed."""
    def finished(events):
        return set(ids) <= {
            e["id"] for e in events if e["kind"] in ("done", "crashed")
        }
    return finished


def live_workers():
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("repro-worker-")]


def test_an_item_starts_then_finishes_with_its_in_process_entry(
    tasks, make_pool
):
    pool = make_pool(1)
    pool.submit(0, tasks[0])
    events = poll_until(pool, resolved([0]))
    assert [e["kind"] for e in events] == ["start", "done"]
    start, done = events
    assert start["worker"] == done["worker"] == 0
    assert done["entry"]["status"] == "ok"
    assert done["entry"] == compile_program_task(tasks[0], None)[0]
    assert "counters" not in done and "gauges" not in done


def test_interleaved_items_each_resolve_once_to_their_own_entry(
    tasks, make_pool
):
    pool = make_pool(2)
    # Caller-chosen ids need not be dense or ordered.
    ids = [7, 3, 11, 0]
    for item_id, task in zip(ids, tasks):
        pool.submit(item_id, task)
    events = poll_until(pool, resolved(ids))
    done = [e for e in events if e["kind"] == "done"]
    assert sorted(e["id"] for e in done) == sorted(ids)
    expected = {
        item_id: compile_program_task(task, None)[0]
        for item_id, task in zip(ids, tasks)
    }
    for event in done:
        assert event["entry"] == expected[event["id"]]
    assert not [e for e in events if e["kind"] in ("crashed", "exit")]


def test_each_worker_holds_one_program_at_a_time(tasks, make_pool):
    pool = make_pool(2)
    for item_id, task in enumerate(tasks):
        pool.submit(item_id, task)
    events = poll_until(pool, resolved(range(len(tasks))))
    held = {}
    for event in events:
        if event["kind"] == "start":
            assert event["worker"] not in held, events
            held[event["worker"]] = event["id"]
        else:
            assert event["kind"] == "done", events
            assert held.pop(event["worker"]) == event["id"], events
    assert held == {}
    started = sorted(e["id"] for e in events if e["kind"] == "start")
    assert started == list(range(len(tasks)))


def _answer_then_exit_worker(conn, worker_id, *args):
    # Finishes its program, then dies non-zero before asking for more.
    item = conn.recv()
    if item is None:
        return
    item_id, task = item
    conn.send({"kind": "done", "worker": worker_id, "id": item_id,
               "entry": {"path": task["path"], "status": "ok"},
               "stats": {}})
    os._exit(7)


def test_a_program_answered_before_the_worker_dies_is_not_charged(
    tasks, make_pool, monkeypatch
):
    monkeypatch.setattr(
        "repro.batch.lifecycle.worker_main", _answer_then_exit_worker
    )
    pool = make_pool(1)
    pool.submit(0, tasks[0])
    events = poll_until(
        pool, lambda events: any(e["kind"] == "exit" for e in events)
    )
    assert [e["kind"] for e in events] == ["start", "done", "exit"]
    assert events[1]["entry"] == {"path": "a.c", "status": "ok"}
    assert events[2] == {"kind": "exit", "worker": 0, "exitcode": 7}
    # A non-zero exit is replaced even though it held nothing.
    pool.submit(1, tasks[1])
    events = poll_until(pool, resolved([1]))
    assert [(e["kind"], e["worker"]) for e in events[:2]] == [
        ("start", 1), ("done", 1)
    ]
    assert not [e for e in events if e["kind"] == "crashed"]


def test_worker_main_answers_each_item_in_order(tasks):
    # Run in this process: the worker's loop, without a fork around it.
    driver, child = multiprocessing.Pipe()
    driver.send((4, tasks[0]))
    driver.send((9, tasks[1]))
    driver.send(None)
    worker_main(child, 3, None)
    answers = [driver.recv(), driver.recv()]
    assert [(a["kind"], a["worker"], a["id"]) for a in answers] == [
        ("done", 3, 4), ("done", 3, 9)
    ]
    assert answers[0]["entry"] == compile_program_task(tasks[0], None)[0]
    assert answers[1]["entry"] == compile_program_task(tasks[1], None)[0]
    assert not driver.poll()


@pytest.mark.parametrize("ending", ["sentinel", "end-of-pipe"])
def test_worker_main_returns_on_the_sentinel_or_the_end_of_its_pipe(ending):
    driver, child = multiprocessing.Pipe()
    if ending == "sentinel":
        driver.send(None)
    else:
        driver.close()
    started = time.monotonic()
    assert worker_main(child, 0, None) is None
    # Returned at once, not after the one-second idle poll.
    assert time.monotonic() - started < 0.5


def test_a_hard_death_is_charged_to_the_claimed_item(
    tasks, make_pool, monkeypatch
):
    monkeypatch.setenv(CRASH_ENV_VAR, "poison")
    poison = tasks[4]
    pool = make_pool(1)
    pool.submit(5, poison)
    events = poll_until(pool, resolved([5]))
    exits = [e for e in events if e["kind"] == "exit"]
    assert exits == [
        {"kind": "exit", "worker": 0, "exitcode": CRASH_EXIT_CODE}
    ]
    (crashed,) = [e for e in events if e["kind"] == "crashed"]
    assert (crashed["worker"], crashed["id"]) == (0, 5)
    assert crashed["entry"] == crashed_entry(
        poison, CRASH_EXIT_CODE, CRASH_MESSAGE
    )
    assert not [e for e in events if e["kind"] == "done"]


def test_a_dead_worker_is_replaced_and_the_queue_drains(
    tasks, make_pool, monkeypatch
):
    monkeypatch.setenv(CRASH_ENV_VAR, "poison")
    pool = make_pool(1)
    pool.submit(0, tasks[4])
    pool.submit(1, tasks[0])
    events = poll_until(pool, resolved([0, 1]))
    outcome = {
        e["id"]: (e["kind"], e["worker"])
        for e in events if e["kind"] in ("done", "crashed")
    }
    # The respawned worker gets a fresh id and takes the next item.
    assert outcome == {0: ("crashed", 0), 1: ("done", 1)}
    assert [e["worker"] for e in events if e["kind"] == "exit"] == [0]
    assert len(live_workers()) == 1


def test_an_idle_death_charges_nothing_and_is_replaced(tasks, make_pool):
    pool = make_pool(1)
    pool.submit(0, tasks[0])
    poll_until(pool, resolved([0]))
    (worker,) = live_workers()
    os.kill(worker.pid, signal.SIGKILL)
    events = poll_until(
        pool, lambda events: any(e["kind"] == "exit" for e in events)
    )
    assert events == [
        {"kind": "exit", "worker": 0, "exitcode": -signal.SIGKILL}
    ]
    pool.submit(1, tasks[1])
    events = poll_until(pool, resolved([1]))
    assert [(e["kind"], e["worker"]) for e in events] == [
        ("start", 1), ("done", 1)
    ]
    assert events[1]["entry"]["status"] == "ok"


def test_the_driver_runs_no_second_thread(tasks, make_pool, monkeypatch):
    # The pool's pipes need no feeder thread, so no worker is ever
    # forked from a multi-threaded driver -- a respawn included.
    monkeypatch.setenv(CRASH_ENV_VAR, "poison")
    before = sorted(t.name for t in threading.enumerate())
    pool = make_pool(1)
    pool.submit(0, tasks[4])
    pool.submit(1, tasks[0])
    seen = []

    def finished(events):
        seen.append(sorted(t.name for t in threading.enumerate()))
        return resolved([0, 1])(events)

    events = poll_until(pool, finished)
    crash = [e["kind"] for e in events if e["kind"] in ("exit", "crashed")]
    assert crash == ["exit", "crashed"]
    assert all(names == before for names in seen), seen


def test_observing_workers_ship_their_counters_and_gauges(tasks, make_pool):
    pool = make_pool(1, observe=True)
    pool.submit(0, tasks[0])
    events = poll_until(pool, resolved([0]))
    (done,) = [e for e in events if e["kind"] == "done"]
    assert done["counters"]["interp.runs"] >= 1
    assert done["counters"]["selection.candidates"] >= 1
    assert "interp.fuel_remaining" in done["gauges"]
    # The entry itself does not depend on observing.
    assert done["entry"] == compile_program_task(tasks[0], None)[0]


def test_an_idle_poll_returns_no_events_after_its_timeout(make_pool):
    pool = make_pool(2)
    started = time.monotonic()
    assert pool.poll(timeout=0.1) == []
    assert time.monotonic() - started >= 0.09


def test_close_ends_every_worker(tasks, make_pool):
    pool = make_pool(2)
    pool.submit(0, tasks[0])
    poll_until(pool, resolved([0]))
    assert len(live_workers()) == 2
    pool.close()
    assert live_workers() == []


def test_crashed_entry_hashes_the_source_and_keeps_the_exit_code(tasks):
    task = tasks[0]
    entry = crashed_entry(task, 0, "worker exited")
    assert entry == {
        "path": "a.c",
        "sha256": hashlib.sha256(task["source"].encode("utf-8")).hexdigest(),
        "status": "crashed",
        "error": {"exitcode": 0, "message": "worker exited"},
    }
    assert crashed_entry(task, 13, "x")["error"]["exitcode"] == 13


def test_the_crash_hook_fires_only_on_a_path_substring(monkeypatch):
    monkeypatch.delenv(CRASH_ENV_VAR, raising=False)
    assert not _should_crash("poison.c")
    monkeypatch.setenv(CRASH_ENV_VAR, "")
    assert not _should_crash("poison.c")
    monkeypatch.setenv(CRASH_ENV_VAR, "poison")
    assert _should_crash("poison.c")
    assert _should_crash("dir/poison_twin.c")
    assert not _should_crash("a.c")

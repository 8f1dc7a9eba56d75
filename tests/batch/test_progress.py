"""Live batch progress: the tracker's bookkeeping, the progress.json
schema validator, and the status/progress.json loop through run_batch."""

import json

import pytest

from repro.batch import CRASH_ENV_VAR, run_batch
from repro.batch.progress import (
    PROGRESS_SCHEMA,
    ProgressTracker,
    validate_progress,
)
from repro.obs import Telemetry

OK_PROGRAM = """
global int data[128];

int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int x = data[i & 127];
        int y = (x * 9 + i) ^ (x >> 1);
        data[i & 127] = y & 255;
        s += y & 7;
    }
    return s;
}
"""


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def corpus(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for index in range(3):
        (corpus_dir / f"prog{index}.c").write_text(
            OK_PROGRAM.replace("y & 7", f"y & {7 + index}")
        )
    return corpus_dir


# -- tracker unit behaviour --------------------------------------------------


def test_tracker_counts_and_in_flight_lifecycle():
    clock = FakeClock()
    tracker = ProgressTracker(total=3, jobs=2, clock=clock)
    tracker.on_start(0, 0, "a.c")
    tracker.on_start(1, 1, "b.c")
    assert len(tracker.in_flight) == 2
    tracker.on_done(0, {"status": "ok", "cached": True})
    tracker.on_done(1, {"status": "error"})
    assert (tracker.done, tracker.ok, tracker.failed, tracker.cached) == (
        2, 1, 1, 1,
    )
    assert tracker.in_flight == {}


def test_eta_and_status_line():
    clock = FakeClock()
    tracker = ProgressTracker(total=4, jobs=2, clock=clock)
    assert tracker.eta_s() is None
    clock.advance(10.0)
    tracker.on_done(0, {"status": "ok"})
    assert tracker.eta_s() == pytest.approx(30.0)
    line = tracker.status_line()
    assert line.startswith("batch 1/4 | ok 1")
    assert "eta 30s" in line


def test_snapshot_validates_and_write_is_atomic(tmp_path):
    clock = FakeClock()
    tracker = ProgressTracker(total=2, jobs=2, clock=clock)
    tracker.on_start(0, 0, "a.c")
    clock.advance(0.5)
    snapshot = tracker.snapshot()
    assert validate_progress(snapshot) == []
    assert snapshot["schema"] == PROGRESS_SCHEMA
    assert snapshot["in_flight"][0]["running_s"] == pytest.approx(0.5)

    path = tmp_path / "progress.json"
    tracker.write(str(path))
    assert validate_progress(json.loads(path.read_text())) == []
    assert not list(tmp_path.glob("progress.json.tmp.*"))


def test_validate_progress_flags_broken_documents():
    assert validate_progress([]) == ["progress document is not an object"]
    good = ProgressTracker(total=1, jobs=1, clock=FakeClock()).snapshot()
    for mutation, needle in [
        ({"schema": "other/9"}, "schema"),
        ({"done": -1}, "done"),
        ({"eta_s": "soon"}, "eta_s"),
        ({"in_flight": "nope"}, "in_flight"),
        ({"done": 5}, "done exceeds total"),
        ({"ok": 1}, "ok + failed != done"),
    ]:
        doc = dict(good)
        doc.update(mutation)
        problems = validate_progress(doc)
        assert any(needle in p for p in problems), (mutation, problems)


# -- acceptance: live progress through run_batch -----------------------------


def test_run_batch_emits_status_and_valid_progress_json(corpus, tmp_path):
    """The final progress.json must validate against the schema and
    count every program, and the one-line status must have been
    rendered."""
    progress_path = tmp_path / "progress.json"
    lines = []
    telemetry = Telemetry()
    result = run_batch(
        [str(corpus)],
        args=(48,),
        jobs=2,
        cache_dir=str(tmp_path / "cache"),
        telemetry=telemetry,
        progress_path=str(progress_path),
        status=lines.append,
    )
    assert all(p["status"] == "ok" for p in result.manifest["programs"])

    document = json.loads(progress_path.read_text())
    assert validate_progress(document) == []
    assert document["done"] == document["total"] == 3
    assert document["ok"] == 3
    assert document["in_flight"] == []

    assert lines, "status callback never invoked"
    assert lines[-1].startswith("batch 3/3 | ok 3")

    # Worker-side observability flowed back into the driver telemetry.
    assert any(
        name.startswith(("selection.", "partition.", "transform."))
        for name in telemetry.counters
    )


def test_a_crashed_program_leaves_the_in_flight_set(
    corpus, tmp_path, monkeypatch
):
    # The pool's ``crashed`` event is what frees the dead worker's slot:
    # no separate death notice reaches the tracker.
    monkeypatch.setenv(CRASH_ENV_VAR, "prog1")
    progress_path = tmp_path / "progress.json"
    lines = []
    result = run_batch(
        [str(corpus)],
        args=(48,),
        jobs=1,
        cache_dir=str(tmp_path / "cache"),
        progress_path=str(progress_path),
        status=lines.append,
    )
    assert [p["status"] for p in result.manifest["programs"]] == [
        "ok", "crashed", "ok"
    ]

    document = json.loads(progress_path.read_text())
    assert validate_progress(document) == []
    assert (document["done"], document["ok"], document["failed"]) == (3, 2, 1)
    assert document["in_flight"] == []
    assert lines[-1].startswith("batch 3/3 | ok 2 | failed 1 | in-flight 0")

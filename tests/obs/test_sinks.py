"""Sink round-trips: JSONL and Chrome traces must parse as JSON and
preserve span nesting; the summary and self-time profile renderings."""

import io
import json

from repro.obs import (
    ChromeTraceSink,
    JsonlSink,
    SummarySink,
    Telemetry,
    profile_text,
    summary_text,
)

from tests.obs.test_telemetry import FakeClock


def run_workload(telemetry, clock):
    """A small two-level workload touching every record type."""
    with telemetry.span("compile", program="p.c"):
        with telemetry.span("profile"):
            clock.advance(0.010)
            telemetry.count("interp.instructions", 1234)
        with telemetry.span("pass1"):
            clock.advance(0.020)
            telemetry.event("transform.rejected", loop="main:h", error="call")
        clock.advance(0.005)
    telemetry.gauge("interp.fuel_remaining", 99)
    telemetry.close()


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "run.jsonl"
    clock = FakeClock()
    telemetry = Telemetry(sinks=[JsonlSink(str(path))], clock=clock)
    run_workload(telemetry, clock)

    records = [json.loads(line) for line in path.read_text().splitlines()]
    by_type = {}
    for record in records:
        by_type.setdefault(record["type"], []).append(record)

    assert {r["name"] for r in by_type["span"]} == {"compile", "profile", "pass1"}
    assert by_type["event"][0]["name"] == "transform.rejected"
    assert by_type["event"][0]["attrs"]["error"] == "call"
    assert {r["name"]: r["value"] for r in by_type["counter"]} == {
        "interp.instructions": 1234
    }
    assert by_type["gauge"][0] == {
        "type": "gauge", "name": "interp.fuel_remaining", "value": 99,
    }
    # Nesting is well-formed: each child names its parent's span_id and
    # lies inside the parent's interval.
    spans = {r["span_id"]: r for r in by_type["span"]}
    for record in by_type["span"]:
        parent = record["parent"]
        if parent is None:
            continue
        assert parent in spans
        outer = spans[parent]
        assert outer["start"] <= record["start"]
        assert (
            record["start"] + record["duration"]
            <= outer["start"] + outer["duration"]
        )
        assert record["depth"] == outer["depth"] + 1


def test_jsonl_accepts_stream():
    stream = io.StringIO()
    clock = FakeClock()
    telemetry = Telemetry(sinks=[JsonlSink(stream)], clock=clock)
    run_workload(telemetry, clock)
    lines = stream.getvalue().splitlines()
    assert len(lines) >= 5
    for line in lines:
        json.loads(line)


def test_chrome_trace_round_trip(tmp_path):
    path = tmp_path / "trace.json"
    clock = FakeClock()
    telemetry = Telemetry(sinks=[ChromeTraceSink(str(path))], clock=clock)
    run_workload(telemetry, clock)

    document = json.loads(path.read_text())
    events = document["traceEvents"]
    assert document["otherData"]["producer"] == "repro.obs"

    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    counters = [e for e in events if e["ph"] == "C"]
    assert {e["name"] for e in complete} == {"compile", "profile", "pass1"}
    assert instants[0]["name"] == "transform.rejected"
    assert counters and counters[0]["args"]["value"] == 1234

    # Sorted by timestamp, and all required keys present.
    timestamps = [e["ts"] for e in events]
    assert timestamps == sorted(timestamps)
    for e in events:
        assert {"name", "ph", "ts", "pid", "tid"} <= set(e)

    # Same-thread complete events must nest: compile covers both phases.
    spans = {e["name"]: e for e in complete}
    outer = spans["compile"]
    for name in ("profile", "pass1"):
        inner = spans[name]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
    assert spans["compile"]["args"] == {"program": "p.c"}


def test_summary_sink_and_text():
    stream = io.StringIO()
    clock = FakeClock()
    telemetry = Telemetry(sinks=[SummarySink(stream)], clock=clock)
    run_workload(telemetry, clock)
    out = stream.getvalue()
    assert "telemetry: spans" in out
    assert "compile" in out
    assert "interp.instructions" in out
    assert "1 events recorded" in out
    assert summary_text(telemetry) + "\n" == out


def test_summary_text_empty():
    telemetry = Telemetry(clock=FakeClock())
    telemetry.close()
    assert summary_text(telemetry) == "telemetry: nothing recorded"



PROFILE_TEXT = """\
profile: per-phase self time
  phase  count  self ms  incl ms  self %
-------  -----  -------  -------  ------
  pass1      1    20.00    20.00   57.1%
profile      1    10.00    10.00   28.6%
compile      1     5.00    35.00   14.3%

folded stacks (ms):
compile;pass1 20.000
compile;profile 10.000
compile 5.000"""


def test_profile_text_ranks_phases_by_self_time_and_folds_stacks():
    clock = FakeClock()
    telemetry = Telemetry(clock=clock)
    run_workload(telemetry, clock)
    assert profile_text(telemetry) == PROFILE_TEXT


def test_profile_text_counts_and_sums_repeated_phases():
    clock = FakeClock()
    telemetry = Telemetry(clock=clock)
    with telemetry.span("compile"):
        for _ in range(2):
            with telemetry.span("search"):
                clock.advance(0.25)
    lines = profile_text(telemetry).splitlines()
    assert lines[3].split() == ["search", "2", "500.00", "500.00", "100.0%"]
    assert lines[4].split() == ["compile", "1", "0.00", "500.00", "0.0%"]
    assert lines[-2:] == ["compile;search 500.000", "compile 0.000"]


def test_profile_text_empty():
    assert profile_text(Telemetry(clock=FakeClock())) == (
        "profile: no spans recorded"
    )

def test_check_trace_script(tmp_path):
    """scripts/check_trace.py accepts a real trace and rejects a broken one."""
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "check_trace",
        os.path.join(
            os.path.dirname(__file__), "..", "..", "scripts", "check_trace.py"
        ),
    )
    check_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_trace)

    path = tmp_path / "trace.json"
    clock = FakeClock()
    telemetry = Telemetry(sinks=[ChromeTraceSink(str(path))], clock=clock)
    run_workload(telemetry, clock)
    problems = check_trace.check_trace(
        str(path), ["compile", "profile", "pass1"]
    )
    assert problems == []
    assert check_trace.check_trace(str(path), ["unroll"]) != []

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"traceEvents": [{"name": "x", "ph": "X"}]}))
    assert check_trace.check_trace(str(broken), []) != []

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"traceEvents": []}))
    assert check_trace.check_trace(str(empty), []) == ["traceEvents is empty"]

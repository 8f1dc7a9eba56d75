"""End-to-end telemetry through compile_spt, and decision provenance."""

import json

import pytest

from repro.core.config import best_config
from repro.core.pipeline import Workload, compile_spt
from repro.core.transform import TransformError
from repro.frontend import compile_minic
from repro.obs import ChromeTraceSink, JsonlSink, Telemetry
from repro.report import explain_text

PROGRAM = """
global int data[512];

int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int x = (i * 37) & 511;
        data[x] = data[x] + 1;
        s += x & 7;
    }
    int t = 0;
    for (int j = 0; j < 4; j++) {
        t += j;
    }
    return s + t;
}
"""

PHASES = {"unroll", "ssa", "profile", "pass1", "selection", "transform"}


def compile_with_telemetry(sinks=()):
    module = compile_minic(PROGRAM, name="prog")
    config = best_config()
    telemetry = Telemetry(sinks=sinks)
    result = compile_spt(
        module, config, Workload(entry="main", args=(200,)), telemetry=telemetry
    )
    telemetry.close()
    return result, config, telemetry


def test_pipeline_emits_phase_spans_and_counters():
    result, _, telemetry = compile_with_telemetry()
    names = {span.name for span in telemetry.spans}
    assert PHASES <= names
    # One analyze_loop span per candidate per pass it was analyzed in.
    analyze = telemetry.spans_named("analyze_loop")
    assert len(analyze) >= len(result.candidates)
    assert telemetry.counters["pipeline.loops_analyzed"] == len(analyze)
    assert telemetry.counters["interp.instructions"] > 0
    assert telemetry.counters["selection.candidates"] == len(result.candidates)
    assert telemetry.counters["selection.selected"] == len(result.selected)


def test_pipeline_trace_covers_every_phase(tmp_path):
    path = tmp_path / "trace.json"
    compile_with_telemetry(sinks=[ChromeTraceSink(str(path))])
    document = json.loads(path.read_text())
    complete = {
        e["name"] for e in document["traceEvents"] if e["ph"] == "X"
    }
    assert PHASES <= complete


def test_pipeline_jsonl_log(tmp_path):
    path = tmp_path / "run.jsonl"
    compile_with_telemetry(sinks=[JsonlSink(str(path))])
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert {"span", "counter"} <= {r["type"] for r in records}


def test_rejected_candidates_carry_rejection_reasons():
    result, config, _ = compile_with_telemetry()
    rejected = [c for c in result.candidates if not c.selected]
    assert rejected
    reasoned = [c for c in rejected if c.rejection is not None]
    assert reasoned, "at least one rejection must carry provenance"
    for candidate in reasoned:
        reason = candidate.rejection
        assert reason.criterion
        assert reason.detail or reason.measured is not None
        payload = reason.to_dict()
        assert payload["criterion"] == reason.criterion
    # The tiny second loop fails the body-size criterion with numbers.
    small = next(
        c for c in rejected if c.rejection.criterion == "min_body_size"
    )
    assert small.rejection.measured is not None
    assert small.rejection.threshold == config.min_body_size
    rendered = str(small.rejection)
    assert "min_body_size" in rendered and "vs threshold" in rendered


def test_to_dict_includes_rejection_and_region_splits():
    result, _, _ = compile_with_telemetry()
    payload = result.to_dict()
    assert "region_splits" in payload
    assert isinstance(payload["region_splits"], list)
    rejections = [
        c["rejection"] for c in payload["candidates"]
        if c.get("rejection") is not None
    ]
    assert rejections
    assert {"criterion", "measured", "threshold", "detail"} <= set(rejections[0])
    json.dumps(payload)  # stays serializable


def test_to_dict_records_transform_error(monkeypatch):
    import repro.core.pipeline as pipeline_mod

    def explode(*args, **kwargs):
        raise TransformError("injected failure")

    monkeypatch.setattr(pipeline_mod, "transform_loop", explode)
    result, _, _ = compile_with_telemetry()
    entries = [
        c for c in result.to_dict()["candidates"]
        if c.get("transform_error") is not None
    ]
    assert entries
    assert entries[0]["transform_error"] == "injected failure"


def test_pass2_transform_error_keeps_category(monkeypatch):
    """A pass-2 TransformError must not demote the candidate's category;
    the failure is recorded on transform_error instead."""
    import repro.core.pipeline as pipeline_mod

    def explode(*args, **kwargs):
        raise TransformError("injected failure")

    monkeypatch.setattr(pipeline_mod, "transform_loop", explode)
    result, _, telemetry = compile_with_telemetry()
    assert result.selected == []
    failed = [c for c in result.candidates if c.transform_error is not None]
    assert failed
    for candidate in failed:
        assert candidate.transform_error == "injected failure"
        assert candidate.rejection.criterion == "transform_error"
        assert candidate.category != "irregular"
        assert not candidate.selected
    # The histogram still reflects the selection decision.
    assert result.category_histogram().get("irregular", 0) == 0
    assert telemetry.counters["transform.failed"] == len(failed)


def test_explain_text_names_failed_criterion():
    result, config, _ = compile_with_telemetry()
    report = explain_text(result, config)
    assert "loop candidates" in report
    assert "min_body_size" in report
    assert "vs threshold" in report
    assert "verdict" in report


def test_explain_text_loop_filter():
    result, config, _ = compile_with_telemetry()
    key = result.candidates[0].key
    report = explain_text(result, config, loop=key)
    assert f"loop {key}" in report
    missing = explain_text(result, config, loop="zz:nope")
    assert "no loop candidate" in missing


def test_null_telemetry_default_changes_nothing():
    """compile_spt without telemetry produces the identical result."""
    module = compile_minic(PROGRAM, name="prog")
    config = best_config()
    bare = compile_spt(module, config, Workload(entry="main", args=(200,)))
    observed, _, _ = compile_with_telemetry()
    assert bare.to_dict() == observed.to_dict()

"""Chaos tests: every firewalled phase faults, compilation completes.

``$REPRO_FAULT`` injects raise/hang faults at phase entry; the
assertions are always the same shape -- ``compile_spt`` returns (never
raises), the fault shows up as a typed :class:`DegradationRecord`, the
affected loops degrade to the sequential baseline, and everything is
visible in telemetry, summaries and ``repro explain`` output.
"""

import json

import pytest

from repro.core.config import best_config
from repro.core.pipeline import Workload, compile_spt
from repro.core.selection import CATEGORY_CONTAINED
from repro.frontend import compile_minic
from repro.obs.telemetry import Telemetry
from repro.report.explain import explain_text
from repro.resilience.degradation import (
    KIND_ANALYSIS_ERROR,
    KIND_PROFILE_BUDGET,
    KIND_WATCHDOG_TIMEOUT,
)
from repro.resilience.faults import FAULT_ENV_VAR, HANG_ENV_VAR
from repro.resilience.ladder import (
    RUNG_FULL,
    RUNG_NO_INCREMENTAL,
    RUNG_SMALL_BUDGET,
)

from .conftest import PROGRAM


def compile_program(config=None, telemetry=None, fuel=50_000_000):
    module = compile_minic(PROGRAM)
    return compile_spt(
        module,
        config or best_config(),
        Workload(args=(32,), fuel=fuel),
        telemetry=telemetry,
    )


@pytest.mark.parametrize(
    "phase", ["profile", "depgraph", "search", "svp", "transform"]
)
def test_phase_raise_is_contained(monkeypatch, phase):
    monkeypatch.setenv(FAULT_ENV_VAR, f"{phase}:raise")
    result = compile_program()
    phases = {record.phase for record in result.degradations}
    assert phase in phases
    for record in result.degradations:
        assert record.kind == KIND_ANALYSIS_ERROR
        assert record.error_type == "FaultInjected"
    # The summary (and therefore the batch manifest) serializes cleanly.
    summary = result.to_dict()
    assert summary["degradations"]
    json.dumps(summary, sort_keys=True)


def test_ladder_recovers_after_bounded_fault(monkeypatch):
    # One injected fault: the full rung faults, the no_incremental
    # retry succeeds, and the loop is still analyzed (and selectable).
    monkeypatch.setenv(FAULT_ENV_VAR, "search:raise:1")
    telemetry = Telemetry()
    result = compile_program(telemetry=telemetry)
    assert result.selected  # recovery, not loss
    recovered = [
        c
        for c in result.candidates
        if c.degradation is not None and c.partition is not None
    ]
    assert recovered
    assert recovered[0].degradation.rung == RUNG_FULL
    assert telemetry.counters["resilience.ladder.recovered"] >= 1
    assert telemetry.counters[f"resilience.ladder.{RUNG_FULL}"] >= 1
    outcomes = {
        e.attrs.get("outcome")
        for e in telemetry.events
        if e.name == "resilience.ladder"
    }
    assert "recovered" in outcomes


def test_ladder_reuses_depgraph_across_rungs(monkeypatch):
    """A search fault on the full rung must not rebuild the dependence
    graph on the retry rung."""
    monkeypatch.setenv(FAULT_ENV_VAR, "search:raise:1")
    telemetry = Telemetry()
    result = compile_program(telemetry=telemetry)
    telemetry.close()
    assert result.spt_loops  # recovered on a later rung
    assert telemetry.counters.get("resilience.ladder.graph_reused", 0) > 0


def test_persistent_fault_descends_ladder_to_skip(monkeypatch):
    monkeypatch.setenv(FAULT_ENV_VAR, "search:raise")
    telemetry = Telemetry()
    result = compile_program(telemetry=telemetry)
    assert not result.selected
    for candidate in result.candidates:
        assert candidate.category == CATEGORY_CONTAINED
        assert candidate.degradation is not None
        assert candidate.partition is None
        assert not candidate.selected
    # Every loop walked all three analysis rungs before skipping.
    rungs = [record.rung for record in result.degradations]
    for rung in (RUNG_FULL, RUNG_NO_INCREMENTAL, RUNG_SMALL_BUDGET):
        assert rung in rungs
        assert telemetry.counters[f"resilience.ladder.{rung}"] >= 1
    assert telemetry.counters["resilience.ladder.skip"] >= 1
    assert len(result.degradations) == 3 * len(result.candidates)
    histogram = result.category_histogram()
    assert histogram[CATEGORY_CONTAINED] == len(result.candidates)


def test_no_ladder_skips_immediately(monkeypatch):
    monkeypatch.setenv(FAULT_ENV_VAR, "search:raise")
    config = best_config().with_overrides(enable_degradation_ladder=False)
    result = compile_program(config=config)
    assert result.candidates
    # One record per loop: no retries were attempted.
    assert len(result.degradations) == len(result.candidates)
    for record in result.degradations:
        assert record.rung == RUNG_FULL
    for candidate in result.candidates:
        assert candidate.category == CATEGORY_CONTAINED


def test_hang_is_broken_by_phase_deadline(monkeypatch):
    # A cooperative hang in the search phase trips the armed phase
    # watchdog; the firewall contains the WatchdogTimeout.
    monkeypatch.setenv(FAULT_ENV_VAR, "search:hang")
    monkeypatch.setenv(HANG_ENV_VAR, "30")
    config = best_config().with_overrides(
        phase_deadline_ms=100.0, enable_degradation_ladder=False
    )
    result = compile_program(config=config)
    kinds = {record.kind for record in result.degradations}
    assert kinds == {KIND_WATCHDOG_TIMEOUT}
    for candidate in result.candidates:
        assert candidate.category == CATEGORY_CONTAINED


def test_fuel_exhaustion_is_a_structured_degradation():
    # Satellite: a workload that exceeds its fuel budget degrades the
    # profile phase instead of raising FuelExhausted out of compile_spt.
    result = compile_program(fuel=50)
    records = [r for r in result.degradations if r.phase == "profile"]
    assert len(records) == 1
    assert records[0].kind == KIND_PROFILE_BUDGET
    assert records[0].error_type == "FuelExhausted"
    # Unprofiled loops are rejected by the selection criteria, safely.
    assert not result.selected


def test_explain_renders_contained_faults(monkeypatch):
    monkeypatch.setenv(FAULT_ENV_VAR, "search:raise")
    config = best_config()
    result = compile_program(config=config)
    report = explain_text(result, config)
    assert "contained_fault" in report
    assert "degradation" in report
    assert "contained degradation(s):" in report
    assert "analysis_error" in report

"""Unit tests for the phase firewall (``run_contained``)."""

import os

import pytest

from repro.core.config import best_config
from repro.core.pipeline import Workload, compile_spt
from repro.frontend import compile_minic
from repro.obs.telemetry import Telemetry
from repro.resilience.containment import PASSTHROUGH, run_contained
from repro.resilience.degradation import (
    KIND_ANALYSIS_ERROR,
    KIND_WATCHDOG_TIMEOUT,
)
from repro.resilience.faults import FAULT_ENV_VAR
from repro.resilience.watchdog import ProgramTimeout, Watchdog


def test_success_passes_result_through():
    result, record = run_contained("search", lambda wd: 42)
    assert result == 42
    assert record is None


def test_no_deadline_means_no_watchdog():
    seen = []
    run_contained("search", lambda wd: seen.append(wd))
    assert seen == [None]


def test_deadline_arms_and_publishes_watchdog():
    seen = []

    def phase(watchdog):
        seen.append(watchdog)
        assert Watchdog.current() is watchdog
        return "ok"

    result, record = run_contained("search", phase, deadline_ms=5_000.0)
    assert result == "ok"
    assert record is None
    assert isinstance(seen[0], Watchdog)
    assert Watchdog.current() is None  # popped on the way out


def test_exception_becomes_degradation_record():
    def phase(watchdog):
        raise ValueError("analysis exploded")

    result, record = run_contained(
        "depgraph", phase, loop="main:L", rung="full"
    )
    assert result is None
    assert record.phase == "depgraph"
    assert record.kind == KIND_ANALYSIS_ERROR
    assert record.loop == "main:L"
    assert record.rung == "full"
    assert "analysis exploded" in record.message


def test_watchdog_pops_even_on_containment():
    def phase(watchdog):
        raise RuntimeError("boom")

    run_contained("search", phase, deadline_ms=5_000.0)
    assert Watchdog.current() is None


def test_program_timeout_passes_through():
    assert ProgramTimeout in PASSTHROUGH

    def phase(watchdog):
        raise ProgramTimeout("whole-program budget")

    with pytest.raises(ProgramTimeout):
        run_contained("search", phase)
    assert Watchdog.current() is None


def test_expired_deadline_is_contained_as_watchdog_timeout():
    def phase(watchdog):
        while True:
            watchdog.check()

    result, record = run_contained("search", phase, deadline_ms=20.0)
    assert result is None
    assert record.kind == KIND_WATCHDOG_TIMEOUT


def test_telemetry_records_contained_faults():
    telemetry = Telemetry()

    def phase(watchdog):
        raise ValueError("boom")

    run_contained("search", phase, telemetry=telemetry)
    assert telemetry.counters["resilience.contained"] == 1
    assert (
        telemetry.counters[f"resilience.contained.{KIND_ANALYSIS_ERROR}"] == 1
    )
    events = [e for e in telemetry.events if e.name == "resilience.degradation"]
    assert len(events) == 1
    assert events[0].attrs["phase"] == "search"
    assert events[0].attrs["kind"] == KIND_ANALYSIS_ERROR


def test_chaos_spec_fires_inside_the_firewall(monkeypatch):
    # REPRO_FAULT faults are injected inside the try, so they are
    # contained exactly like organic failures.
    monkeypatch.setenv(FAULT_ENV_VAR, "search:raise")
    result, record = run_contained("search", lambda wd: "unreached")
    assert result is None
    assert record.error_type == "FaultInjected"
    result, record = run_contained("depgraph", lambda wd: "fine")
    assert result == "fine"
    assert record is None


CORPUS = os.path.join(os.path.dirname(__file__), "..", "golden", "corpus")


@pytest.mark.parametrize("program", sorted(os.listdir(CORPUS)))
def test_each_compile_phase_is_one_span_level(program):
    """A firewalled phase the pipeline already spans (profile, svp,
    region_splits, transform) is not opened a second time inside."""
    with open(os.path.join(CORPUS, program)) as handle:
        module = compile_minic(handle.read(), name="m")
    telemetry = Telemetry()
    compile_spt(module, best_config(), Workload("main", (96,)),
                telemetry=telemetry)
    telemetry.close()
    names = {span.span_id: span.name for span in telemetry.spans}
    assert {"profile", "svp", "transform"} <= set(names.values())
    nested = [span.name for span in telemetry.spans
              if names.get(span.parent) == span.name]
    assert nested == []

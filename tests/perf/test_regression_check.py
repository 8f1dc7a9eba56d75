"""Regression gating: check_regression unit behaviour plus the full
record -> ledger -> check loop, with a fault-injected 2x slowdown."""

import copy
import os

import pytest

from repro.obs import Ledger, make_record
from repro.perf import check_regression, diff_text, match_key, record_program
from repro.resilience.faults import FAULT_ENV_VAR, reset_fault_state

GOLDEN = os.path.join(
    os.path.dirname(__file__), "..", "golden", "corpus", "tiny_body.c"
)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(FAULT_ENV_VAR, raising=False)
    reset_fault_state()
    yield
    reset_fault_state()


def _record(**overrides):
    base = dict(
        wall_s=1.0,
        cycles=5000,
        extra=None,
    )
    base.update(overrides)
    record = make_record(
        overrides.get("kind", "simulate"),
        {"name": "w", "sha256": "abc", "args": [8], "entry": "main"},
        "fp",
        wall_s=base["wall_s"],
        cycles=base["cycles"],
        degradations=overrides.get("degradations"),
    )
    record["counters"] = overrides.get(
        "counters", {"selection.selected": 2, "trace.events": 99}
    )
    record["phase_self_ms"] = overrides.get(
        "phase_self_ms", {"search": 100.0, "transform": 40.0}
    )
    return record


# -- unit behaviour ----------------------------------------------------------


def test_identical_records_pass():
    base = _record()
    report = check_regression([base], [copy.deepcopy(base)])
    assert report.ok
    assert report.compared == 1
    assert report.lines()[-1].startswith("perf check: PASS")


def test_cycle_drift_fails_even_across_hosts():
    base = _record()
    cur = copy.deepcopy(base)
    cur["cycles"] = 5001
    cur["host"] = "other-machine/x86_64/py3.11"
    report = check_regression([base], [cur])
    assert not report.ok
    assert any("cycles drifted" in f for f in report.failures)


def test_deterministic_counter_drift_fails_but_noisy_counter_does_not():
    base = _record()
    drift = copy.deepcopy(base)
    drift["counters"]["trace.events"] = 12345  # not a gated prefix
    assert check_regression([base], [drift]).ok
    drift["counters"]["selection.selected"] = 3
    report = check_regression([base], [drift])
    assert any("selection.selected" in f for f in report.failures)


def test_vanished_deterministic_counter_fails_and_new_one_warns():
    """A record that stops reporting a gated counter family must not pass
    on its cycles alone; a counter only the current record has is news,
    not a regression."""
    base = _record(counters={
        "selection.selected": 2, "spt.rounds": 40, "spt.forks": 41,
        "trace.events": 99,
    })
    gone = copy.deepcopy(base)
    for name in ("spt.rounds", "spt.forks", "trace.events"):
        del gone["counters"][name]
    report = check_regression([base], [gone])
    assert not report.ok
    vanished = [f for f in report.failures if "vanished" in f]
    assert len(vanished) == 2  # trace.* is not gated
    assert any("spt.rounds" in f for f in vanished)
    grown = copy.deepcopy(base)
    grown["counters"]["spt.wasted_forks"] = 1
    report = check_regression([base], [grown])
    assert report.ok
    assert any("spt.wasted_forks" in w and "new" in w for w in report.warnings)


def test_degradation_change_fails():
    base = _record()
    cur = copy.deepcopy(base)
    cur["degradations"] = [{"phase": "search", "rung": 1}]
    report = check_regression([base], [cur])
    assert any("degradation" in f for f in report.failures)


def test_wall_gate_needs_both_relative_and_absolute_growth():
    base = _record(phase_self_ms={"search": 100.0}, wall_s=0.140)
    # +200% but only +4 ms: under the absolute floor, not a regression.
    tiny = copy.deepcopy(base)
    tiny["phase_self_ms"] = {"search": 100.0}
    tiny["wall_s"] = 0.144
    assert check_regression([base], [tiny]).ok
    # 2x slowdown well past the floor: fails on wall and phase alike.
    slow = copy.deepcopy(base)
    slow["wall_s"] = 0.300
    slow["phase_self_ms"] = {"search": 210.0}
    report = check_regression([base], [slow])
    assert not report.ok
    assert any("wall time regressed" in f for f in report.failures)
    assert any("phase 'search'" in f for f in report.failures)


def test_cross_host_skips_wall_gate_unless_forced():
    base = _record(wall_s=0.1)
    slow = copy.deepcopy(base)
    slow["wall_s"] = 10.0
    slow["host"] = "other-machine/x86_64/py3.11"
    auto = check_regression([base], [slow])
    assert auto.ok
    assert any("host differs" in w for w in auto.warnings)
    forced = check_regression([base], [slow], gate_wall=True)
    assert not forced.ok


def test_unmatched_current_record_is_a_warning_not_a_failure():
    base = _record()
    stranger = copy.deepcopy(base)
    stranger["fingerprint"] = "some-other-config"
    report = check_regression([base], [copy.deepcopy(base), stranger])
    assert report.ok
    assert report.compared == 1
    assert any("no baseline record" in w for w in report.warnings)


def test_nothing_matched_fails():
    """A drifted fingerprint must not turn the gate into a vacuous pass."""
    base = _record()
    stranger = copy.deepcopy(base)
    stranger["fingerprint"] = "some-other-config"
    report = check_regression([base], [stranger])
    assert not report.ok
    assert report.compared == 0
    assert any("no current record matched" in f for f in report.failures)
    assert report.lines()[-1].startswith("perf check: FAIL")


def test_empty_current_set_fails():
    assert not check_regression([_record()], []).ok


def test_match_key_distinguishes_args_and_fingerprint():
    base = _record()
    other = copy.deepcopy(base)
    other["workload"]["args"] = [9]
    assert match_key(base) != match_key(other)
    other = copy.deepcopy(base)
    other["fingerprint"] = "fp2"
    assert match_key(base) != match_key(other)


def test_diff_text_renders_metrics_and_host_note():
    base = _record()
    cur = copy.deepcopy(base)
    cur["host"] = "elsewhere/arm64/py3.12"
    text = diff_text(base, cur)
    assert "wall_s" in text
    assert "phase.search" in text
    assert "selection.selected" in text
    assert "different hosts" in text


# -- the full loop: record, ledger, check ------------------------------------


def test_recorded_identical_runs_pass(tmp_path):
    ledger = Ledger(tmp_path)
    for _ in range(2):
        record, result = record_program(GOLDEN, kind="compile", args=[64])
        ledger.append(record)
        assert result is not None
    records = ledger.load()
    report = check_regression(records[:1], records[1:])
    assert report.compared == 1
    assert report.ok, report.failures


def test_injected_search_slowdown_fails_check(tmp_path, monkeypatch):
    """The acceptance scenario: a REPRO_FAULT-injected slowdown of the
    search phase must trip the same-host wall gate."""
    baseline, _ = record_program(GOLDEN, kind="compile", args=[64])
    monkeypatch.setenv(FAULT_ENV_VAR, "search:slow:0.2")
    reset_fault_state()
    slowed, _ = record_program(GOLDEN, kind="compile", args=[64])
    report = check_regression([baseline], [slowed], floor_ms=25.0)
    assert not report.ok
    assert any("phase 'search'" in f for f in report.failures), report.failures


def test_simulate_record_carries_cycles():
    record, result = record_program(GOLDEN, kind="simulate", args=[64])
    assert record["kind"] == "simulate"
    if result.spt_loops:
        assert record["cycles"] is not None
        assert "program_speedup" in record["extra"]
    assert record["workload"]["args"] == [64]
    assert record["phase_self_ms"], "observing telemetry must fill phases"
    assert any(
        name.startswith(("selection.", "partition.", "transform."))
        for name in record["counters"]
    )


def test_record_program_rejects_unknown_kind():
    with pytest.raises(ValueError):
        record_program(GOLDEN, kind="bench")

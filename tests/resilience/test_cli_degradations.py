"""``repro compile`` and ``repro simulate`` show contained faults.

A fault in the profiling run leaves every loop without a trip count,
so nothing is selected: the verdict changes, and the output must say
why, one line per record as ``repro explain`` lists them."""

import os

import pytest

from repro.cli import main
from repro.resilience.faults import FAULT_ENV_VAR

NESTED_C = os.path.join(
    os.path.dirname(__file__), os.pardir, "golden", "corpus", "nested.c"
)

PROFILE_FAULT_LINES = [
    "resilience: 1 contained degradation(s)",
    "  profile/analysis_error: injected fault in phase 'profile' (fire 1)",
]


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out.splitlines()


def degradation_lines(lines):
    """The record lines under the one ``resilience:`` header, which
    closes the output and counts them."""
    (header,) = [
        i for i, line in enumerate(lines) if line.startswith("resilience:")
    ]
    records = lines[header + 1:]
    assert lines[header] == (
        f"resilience: {len(records)} contained degradation(s)"
    )
    return records


def assert_phase_records(records, phase):
    """Every record is the injected fault of ``phase``, listed in the
    order the fault fired."""
    assert records
    for fire, line in enumerate(records, 1):
        assert line.startswith(f"  {phase}/analysis_error")
        assert line.endswith(
            f"injected fault in phase '{phase}' (fire {fire})"
        )


def test_compile_prints_a_contained_profile_fault(capsys, monkeypatch):
    monkeypatch.setenv(FAULT_ENV_VAR, "profile:raise")
    code, lines = run(capsys, "compile", NESTED_C, "--args", "96")
    assert code == 0
    assert "selected SPT loops: []" in lines
    assert lines[-2:] == PROFILE_FAULT_LINES


def test_simulate_prints_the_fault_when_nothing_is_selected(
    capsys, monkeypatch
):
    monkeypatch.setenv(FAULT_ENV_VAR, "profile:raise")
    code, lines = run(capsys, "simulate", NESTED_C, "--args", "96")
    assert code == 1
    assert lines == [
        "no SPT loops selected; nothing to simulate"
    ] + PROFILE_FAULT_LINES


@pytest.mark.parametrize("phase", ["depgraph", "search", "svp", "transform"])
def test_compile_lists_every_record_of_a_phase_fault(
    capsys, monkeypatch, phase
):
    monkeypatch.setenv(FAULT_ENV_VAR, f"{phase}:raise")
    code, lines = run(capsys, "compile", NESTED_C, "--args", "96")
    assert code == 0
    assert_phase_records(degradation_lines(lines), phase)


def test_simulate_prints_the_fault_after_a_completed_simulation(
    capsys, monkeypatch
):
    # A value-prediction fault keeps the loop selected: the simulation
    # runs, and the fault is listed after its results.
    monkeypatch.setenv(FAULT_ENV_VAR, "svp:raise")
    code, lines = run(capsys, "simulate", NESTED_C, "--args", "96")
    assert code == 0
    assert [line for line in lines if line.startswith("program SPT cycles:")]
    assert_phase_records(degradation_lines(lines), "svp")


def test_simulate_prints_a_transform_fault_that_empties_the_selection(
    capsys, monkeypatch
):
    monkeypatch.setenv(FAULT_ENV_VAR, "transform:raise")
    code, lines = run(capsys, "simulate", NESTED_C, "--args", "96")
    assert code == 1
    assert lines[0] == "no SPT loops selected; nothing to simulate"
    assert_phase_records(degradation_lines(lines), "transform")


def test_unfaulted_runs_print_no_resilience_line(capsys):
    code, lines = run(capsys, "compile", NESTED_C, "--args", "96")
    assert code == 0
    assert "selected SPT loops: ['for_head1.guard']" in lines
    code, sim_lines = run(capsys, "simulate", NESTED_C, "--args", "96")
    assert code == 0
    assert not [
        line for line in lines + sim_lines if line.startswith("resilience:")
    ]

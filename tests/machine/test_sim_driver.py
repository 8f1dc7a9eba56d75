"""The simulation driver (:mod:`repro.perf.runner`): observing a run
leaves its outcome and its hot traces alone, and every call goes
through the module attributes that the benchmark's span hooks
(``perfbench/tracing.py``) wrap."""

import os

import pytest

import repro.perf
from repro.cli import load_module, main
from repro.core import Workload, best_config, compile_spt
from repro.machine import spt_sim
from repro.obs import Telemetry
from repro.perf import runner, simulate_program

CORPUS = os.path.join(os.path.dirname(__file__), "..", "golden", "corpus")
NESTED_C = os.path.join(CORPUS, "nested.c")


@pytest.fixture(scope="module")
def nested():
    """nested.c compiled under best for ``--args 96``: one SPT loop."""
    module = load_module(NESTED_C)
    result = compile_spt(module, best_config(), Workload(args=(96,)))
    assert len(result.spt_loops) == 1
    return module, result


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
def test_observing_telemetry_leaves_the_outcome_unchanged(nested, fast):
    module, result = nested
    telemetry = Telemetry()
    observed = simulate_program(
        module, result, args=[96], fast=fast, telemetry=telemetry
    )
    assert observed == simulate_program(module, result, args=[96], fast=fast)
    counters = telemetry.counters
    assert counters["spt.loops_simulated"] == len(observed.loops)
    assert counters["spt.rounds"] > 0


def test_observed_fast_tier_runs_on_hot_traces(nested):
    """An observing telemetry attaches no per-op tracer, so the fast
    tier keeps compiling and running hot traces."""
    module, result = nested
    telemetry = Telemetry()
    simulate_program(module, result, args=[96], telemetry=telemetry)
    counters = telemetry.counters
    assert counters["trace.compiles"] >= 1
    assert 0 < counters["trace.ops_on_trace"] < counters["interp.instructions"]


@pytest.mark.parametrize(
    "name", sorted(n for n in os.listdir(CORPUS) if n.endswith(".c"))
)
def test_a_simulation_run_again_is_bitwise_identical(name):
    """Running again is how a killed ``repro simulate`` recovers: a
    second run in one process, after the first has warmed every trace
    and code cache, gives the identical outcome, and so does the
    reference tier."""
    module = load_module(os.path.join(CORPUS, name))
    result = compile_spt(module, best_config(), Workload(args=(96,)))
    first = simulate_program(module, result, args=[96])
    assert simulate_program(module, result, args=[96]) == first
    assert simulate_program(module, result, args=[96], fast=False) == first


def _counting(calls, original):
    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    return wrapper


def test_cli_simulate_calls_the_package_simulate_program(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(
        repro.perf, "simulate_program",
        _counting(calls, repro.perf.simulate_program),
    )
    assert main(["simulate", NESTED_C, "--args", "96"]) == 0
    capsys.readouterr()
    assert [kwargs["args"] for _, kwargs in calls] == [[96]]


def test_cli_reference_tier_is_the_same_driver(monkeypatch, capsys):
    """``--no-fast-interp`` selects the reference tier of the one
    driver; there is no second simulation path."""
    calls = []
    monkeypatch.setattr(
        repro.perf, "simulate_program",
        _counting(calls, repro.perf.simulate_program),
    )
    assert main(["simulate", NESTED_C, "--args", "96",
                 "--no-fast-interp"]) == 0
    capsys.readouterr()
    assert [kwargs["fast"] for _, kwargs in calls] == [False]


def test_simulate_program_builds_through_the_runner_module(
    nested, monkeypatch
):
    module, result = nested
    calls = []
    monkeypatch.setattr(
        runner, "build_simulation", _counting(calls, runner.build_simulation)
    )
    simulate_program(module, result, args=[96])
    assert [args[1] for args, _ in calls] == [runner.spt_loop_sites(result)]


def test_finalize_replays_each_loop_through_the_spt_sim_module(
    nested, monkeypatch
):
    module, result = nested
    calls = []
    monkeypatch.setattr(
        spt_sim, "simulate_spt_loop",
        _counting(calls, spt_sim.simulate_spt_loop),
    )
    outcome = simulate_program(module, result, args=[96])
    assert len(calls) == len(outcome.loops) == 1

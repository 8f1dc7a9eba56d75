"""SPT loop bodies run as hot traces that record their own rows.

In a simulation the collectors' per-op hooks reach the SPT loop bodies,
and there the fast tier runs call-free body blocks as hot traces that
append the collector's rows themselves.  These tests pin that path:
it must actually be taken on a loop-heavy suite program (otherwise a
silent fall-back to the closure recorder would pass every differential
test), and the fast tier must equal the reference tier with every k-th
guard forced to side-exit, which drives the trace exits and the
block-path re-entry mid-iteration.
"""

import pytest

from repro.benchsuite import BY_NAME
from repro.core.config import CONFIG_FACTORIES
from repro.core.pipeline import Workload, compile_spt
from repro.frontend import compile_minic
from repro.ir import parse_module
from repro.perf.runner import (
    build_simulation,
    finalize_simulation,
    run_machine,
    simulate_program,
    spt_loop_sites,
)

from tests.machine.test_spt_calls import PROGRAMS


def _suite_compilation(name, config):
    bench = BY_NAME[name]
    module = compile_minic(bench.source, name=bench.name)
    compilation = compile_spt(
        module, CONFIG_FACTORIES[config](), Workload(args=(bench.train_n,))
    )
    return bench, module, compilation


def test_recorded_traces_compile_in_a_collector_run():
    """gzip's SPT loop body runs on recorded traces: traces compile in
    the loop's function and execute most of its ops, while the run's
    outcome stays the reference tier's."""
    bench, module, compilation = _suite_compilation("gzip", "best")
    sites = spt_loop_sites(compilation)
    assert sites
    machine, accounting, collectors = build_simulation(module, sites)
    result = run_machine(machine, "main", [bench.eval_n])
    outcome = finalize_simulation(result, accounting, collectors)

    recorded = {
        key: stats
        for key, stats in machine.trace_report().items()
        if any(
            stats["func"] == c.func_name and stats["entry"] in c.body_labels
            for c in collectors
        )
    }
    assert recorded, "no trace compiled in an SPT loop body"
    assert sum(s["compiles"] for s in recorded.values()) >= 1
    on_trace = sum(s["ops_on_trace"] for s in recorded.values())
    assert on_trace > machine.executed // 4, (on_trace, machine.executed)
    assert outcome == simulate_program(
        module, compilation, args=[bench.eval_n], fast=False
    )


@pytest.mark.parametrize("bailout", [1, 3, 7])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_forced_side_exits_keep_the_calls_programs_exact(
    monkeypatch, name, bailout
):
    source, sites, n = PROGRAMS[name]
    outcomes = []
    for fast in (False, True):
        if fast:
            monkeypatch.setenv("REPRO_TRACE_BAILOUT", str(bailout))
        machine, accounting, collectors = build_simulation(
            parse_module(source), sites, fast=fast
        )
        result = run_machine(machine, "main", [n])
        outcomes.append(finalize_simulation(result, accounting, collectors))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("config", ["best", "anticipated"])
@pytest.mark.parametrize("name", ["gzip", "twolf"])
def test_forced_side_exits_keep_suite_programs_exact(
    monkeypatch, name, config
):
    bench, module, compilation = _suite_compilation(name, config)
    reference = simulate_program(
        module, compilation, args=[bench.eval_n], fast=False
    )
    for bailout in (1, 3, 7):
        monkeypatch.setenv("REPRO_TRACE_BAILOUT", str(bailout))
        fast = simulate_program(module, compilation, args=[bench.eval_n])
        assert fast == reference, bailout

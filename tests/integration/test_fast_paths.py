"""End-to-end checks that the fast paths (block-compiled interpreter
with hot traces and vectorized timing, incremental cost evaluation) are
pure optimizations: the full SPT compilation pipeline produces the same
decisions and the same report with either implementation selected, and
the simulation driver's fast tier the same outcome as its reference
tier."""

import gc
import os

import pytest

from repro.benchsuite import SUITE
from repro.cli import load_module
from repro.core import Workload, best_config, compile_spt
from repro.frontend import compile_minic
from repro.perf import simulate_program
from repro.profiling import CompiledMachine

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden", "corpus")
GOLDEN = sorted(os.listdir(GOLDEN_DIR))


def _strip_stats(report):
    """Drop fields that legitimately differ between evaluator
    implementations (work counters), keep every decision field."""
    report = dict(report)
    for cand in report.get("candidates", ()):
        for key in ("cost_evaluations", "cost_cache_hit_rate", "cost_node_visits"):
            cand.pop(key, None)
    return report


@pytest.mark.parametrize("bench", SUITE[:4], ids=lambda b: b.name)
def test_fast_and_slow_paths_agree(bench):
    base = best_config()
    reports = []
    for fast_interp, incremental in ((True, True), (False, False)):
        module = compile_minic(bench.source, name=bench.name)
        config = base.with_overrides(
            fast_interp=fast_interp, incremental_cost=incremental
        )
        result = compile_spt(module, config, Workload(args=(bench.train_n,)))
        reports.append(_strip_stats(result.to_dict()))
    assert reports[0] == reports[1]


def test_flag_combinations_smoke():
    bench = SUITE[0]
    base = best_config()
    costs = set()
    for fast_interp in (True, False):
        for incremental in (True, False):
            module = compile_minic(bench.source, name=bench.name)
            config = base.with_overrides(
                fast_interp=fast_interp, incremental_cost=incremental
            )
            result = compile_spt(module, config, Workload(args=(bench.train_n,)))
            costs.add(
                tuple(
                    (cand["function"], cand["header"], cand["misspeculation_cost"])
                    for cand in result.to_dict()["candidates"]
                    if "misspeculation_cost" in cand
                )
            )
    assert len(costs) == 1


def _golden_compile(name):
    module = load_module(os.path.join(GOLDEN_DIR, name))
    return module, compile_spt(module, best_config(), Workload(args=(96,)))


@pytest.mark.parametrize("program", GOLDEN)
def test_simulation_tiers_agree_on_golden_corpus(program):
    """Bitwise-equal outcomes -- result, cycles, IPC, per-loop stats and
    attribution -- with and without selected SPT loops (hot traces only
    engage when no collector watches every op)."""
    module, result = _golden_compile(program)
    fast = simulate_program(module, result, args=[96])
    reference = simulate_program(module, result, args=[96], fast=False)
    assert fast == reference
    assert fast.loop_cycles


@pytest.mark.parametrize("program", ["stream_scan.c", "while_halve.c"])
def test_finished_runs_leave_no_machine_behind(program):
    """Profiling and simulation drop their machines' compiled code, which
    refers back to the machine: without the cyclic collector, nothing
    keeps a machine (its tracers and collected traces) alive after its
    run."""
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, CompiledMachine)}
    gc.disable()
    try:
        module, result = _golden_compile(program)
        simulate_program(module, result, args=[96])
        left = [
            o for o in gc.get_objects()
            if isinstance(o, CompiledMachine) and id(o) not in before
        ]
    finally:
        gc.enable()
    assert left == []

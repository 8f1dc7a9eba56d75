"""Intra-iteration region speculation tests (§9 future work)."""

import pytest

from repro.analysis.depgraph import build_dep_graph
from repro.analysis.loops import LoopNest
from repro.core.config import SptConfig
from repro.core.regions import (
    choose_region_split,
    find_region_splits,
    spine_blocks,
)
from repro.ir import parse_module
from repro.machine.region_sim import RegionTraceCollector, simulate_region_loop
from repro.machine.timing import TimingModel, TimingTracer
from repro.perf.runner import run_machine, timed_machine
from repro.profiling import run_module
from repro.ssa import build_ssa

def _chain(prefix: str, length: int, seed_expr: str) -> str:
    """A straight dependence chain: ``<prefix>0 .. <prefix>{length-1}``."""
    lines = [f"  {prefix}0 = add {seed_expr}, 1"]
    for k in range(1, length):
        op = "mul" if k % 2 else "add"
        lines.append(f"  {prefix}{k} = {op} {prefix}{k - 1}, {k % 7 + 2}")
    return "\n".join(lines)


# Two independent heavy phases per iteration: the classic region-
# speculation shape (A fills `left`, B fills `right`; big bodies so the
# fork/commit overheads amortize -- exactly the body_too_large loops §9
# targets).
INDEPENDENT = f"""\
module t
func main(n) {{
  local left[256]
  local right[256]
entry:
  pl = addr left
  pr = addr right
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, phase_a, exit
phase_a:
  m = and i, 255
{_chain("a", 40, "i")}
  store pl, m, a39 !left
  jump phase_b
phase_b:
  mb = and i, 255
{_chain("b", 40, "i")}
  store pr, mb, b39 !right
  i = add i, 1
  jump head
exit:
  ret 0
}}
"""

# Region B consumes everything region A computes: splitting buys nothing.
DEPENDENT = f"""\
module t
func main(n) {{
  local out[256]
entry:
  p = addr out
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, phase_a, exit
phase_a:
  m = and i, 255
{_chain("a", 40, "i")}
  jump phase_b
phase_b:
{_chain("b", 40, "a39")}
  store p, m, b39 !out
  i = add i, 1
  jump head
exit:
  ret 0
}}
"""


def _prepared(source):
    module = parse_module(source)
    func = module.function("main")
    build_ssa(func)
    nest = LoopNest.build(func)
    loop = nest.loops[0]
    graph = build_dep_graph(module, func, loop)
    return module, func, loop, graph


def test_spine_blocks_found():
    module, func, loop, graph = _prepared(INDEPENDENT)
    spine = spine_blocks(func, loop)
    assert spine == ["phase_a", "phase_b"]


def test_independent_phases_split_well():
    module, func, loop, graph = _prepared(INDEPENDENT)
    config = SptConfig()
    split = choose_region_split(func, loop, graph, config)
    assert split is not None
    assert split.split_label == "phase_b"
    assert split.balance > 0.7
    # Only the cheap index recomputation misspeculates.
    assert split.cost < 0.35 * min(split.size_a, split.size_b)


def test_dependent_phases_not_worth_splitting():
    module, func, loop, graph = _prepared(DEPENDENT)
    config = SptConfig()
    splits = find_region_splits(func, loop, graph, config)
    # Splits exist, but the all-consuming dependence makes them bad.
    assert splits
    best = splits[0]
    assert best.cost > 0.5 * best.size_b or best.estimated_benefit(config) <= 0


def test_region_simulation_speeds_up_independent_phases():
    module, func, loop, graph = _prepared(INDEPENDENT)
    config = SptConfig()
    split = choose_region_split(func, loop, graph, config)
    collector = RegionTraceCollector(
        "main", loop.header, loop.body, split.b_labels, TimingModel()
    )
    run_module(
        module, args=[300], tracers=[TimingTracer(collector.model), collector]
    )
    stats = simulate_region_loop(collector, split.split_label)
    assert stats.iterations == 300
    assert stats.balance > 0.7
    assert stats.misspeculation_ratio < 0.35
    assert stats.loop_speedup > 1.15


def test_region_simulation_penalizes_dependent_phases():
    module, func, loop, graph = _prepared(DEPENDENT)
    config = SptConfig()
    splits = find_region_splits(func, loop, graph, config)
    split = splits[0]
    collector = RegionTraceCollector(
        "main", loop.header, loop.body, split.b_labels, TimingModel()
    )
    run_module(
        module, args=[300], tracers=[TimingTracer(collector.model), collector]
    )
    stats = simulate_region_loop(collector, split.split_label)
    # Everything B does is stale: heavy re-execution, no speedup.
    assert stats.misspeculation_ratio > 0.5
    assert stats.loop_speedup < 1.05


@pytest.mark.parametrize("source", [INDEPENDENT, DEPENDENT])
def test_region_simulation_is_the_same_on_both_tiers(source):
    """The fast tier records a region collector's ops through its
    compiled recorder; the totals must be the reference tier's."""
    module, func, loop, graph = _prepared(source)
    split = find_region_splits(func, loop, graph, SptConfig())[0]
    totals = []
    for fast in (False, True):
        machine, accounting = timed_machine(module, fast=fast)
        collector = RegionTraceCollector(
            "main", loop.header, loop.body, split.b_labels, accounting.model
        )
        machine.add_tracer(collector)
        run_machine(machine, "main", [300])
        totals.append(vars(simulate_region_loop(collector, split.split_label)))
    assert totals[0] == totals[1]
    assert totals[0]["iterations"] == 300


def test_estimates_track_simulation():
    """The compile-time cost estimate must rank the two programs the
    same way the simulation does."""
    config = SptConfig()
    results = {}
    for name, source in (("indep", INDEPENDENT), ("dep", DEPENDENT)):
        module, func, loop, graph = _prepared(source)
        splits = find_region_splits(func, loop, graph, config)
        best = splits[0]
        collector = RegionTraceCollector(
            "main", loop.header, loop.body, best.b_labels, TimingModel()
        )
        run_module(
            module, args=[200], tracers=[TimingTracer(collector.model), collector]
        )
        stats = simulate_region_loop(collector, best.split_label)
        results[name] = (best.cost / max(best.size_b, 1), stats.reexec_cycles
                         / max(stats.b_cycles, 1))
    est_indep, meas_indep = results["indep"]
    est_dep, meas_dep = results["dep"]
    assert est_indep < est_dep
    assert meas_indep < meas_dep


def test_pipeline_records_region_splits():
    """compile_spt with region speculation enabled records splits for
    body_too_large loops (and only then)."""
    from repro.core import Workload, compile_spt
    from repro.core.selection import CATEGORY_BODY_TOO_LARGE

    config = SptConfig(
        max_body_size=40,
        enable_region_speculation=True,
        enable_unrolling=False,
    )
    module = parse_module(INDEPENDENT)
    result = compile_spt(module, config, Workload(args=(50,)))
    assert result.category_histogram()[CATEGORY_BODY_TOO_LARGE] >= 1
    assert result.region_splits
    split = result.region_splits[0]
    assert split.split_label == "phase_b"

    # With the flag off, nothing is recorded.
    module2 = parse_module(INDEPENDENT)
    config_off = config.with_overrides(enable_region_speculation=False)
    result2 = compile_spt(module2, config_off, Workload(args=(50,)))
    assert result2.region_splits == []

"""SPT execution model tests: trace collection, violation detection,
round timing (paper §8 machine model)."""

import copy

import pytest

from repro.analysis.depgraph import build_dep_graph
from repro.analysis.loops import LoopNest
from repro.core.config import SptConfig
from repro.core.partition import find_optimal_partition
from repro.core.transform import transform_loop
from repro.ir import parse_module
from repro.machine.spt_sim import (
    COMMIT_CYCLES,
    FORK_CYCLES,
    SptTraceCollector,
    simulate_spt_loop,
)
from repro.machine.timing import TimingModel, TimingTracer
from repro.profiling import run_module
from repro.ssa import build_ssa


def _transform_and_trace(source, args, config=None, func_name="main"):
    config = config or SptConfig(prefork_fraction=0.9)
    module = parse_module(source)
    func = module.function(func_name)
    build_ssa(func)
    nest = LoopNest.build(func)
    loop = nest.loops[0]
    graph = build_dep_graph(module, func, loop)
    partition = find_optimal_partition(graph, config)
    info = transform_loop(module, func, loop, partition, graph)

    nest2 = LoopNest.build(func)
    loop2 = next(l for l in nest2.loops if l.header == loop.header)
    collector = SptTraceCollector(
        func_name, loop2.header, loop2.body, info.loop_id, TimingModel()
    )
    result, _ = run_module(
        module, func_name=func_name, args=args,
        tracers=[TimingTracer(collector.model), collector],
    )
    return collector, partition, result


PARALLEL = """\
module t
func main(n) {
  local a[8192]
  local b[8192]
entry:
  pa = addr a
  pb = addr b
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  m = and i, 127
  x = load pa, m !a
  t1 = mul x, 3
  t2 = add t1, 7
  t3 = mul t2, t2
  t4 = add t3, x
  t5 = mul t4, 5
  t6 = add t5, 11
  t7 = mul t6, t6
  t8 = add t7, t4
  t9 = mul t8, 3
  t10 = add t9, t2
  t11 = mul t10, t10
  t12 = add t11, t6
  t13 = mul t12, 7
  t14 = add t13, t10
  t15 = mul t14, t14
  t16 = add t15, t12
  t17 = mul t16, 9
  t18 = add t17, t14
  t19 = mul t18, t18
  t20 = add t19, t16
  t21 = mul t20, 11
  t22 = add t21, t18
  t23 = mul t22, t22
  t24 = add t23, t20
  store pb, m, t24 !b
  i = add i, 1
  jump head
exit:
  ret 0
}
"""


def test_parallel_loop_speeds_up():
    collector, partition, _ = _transform_and_trace(PARALLEL, [400])
    stats = simulate_spt_loop(collector)
    assert stats.iterations == 400
    assert stats.invocations == 1
    assert stats.misspeculation_ratio < 0.05
    # ~28 ops/iteration against 11 cycles of fork+commit overhead: the
    # paper's SPT loops average ~400 instructions and reach ~1.26.
    assert stats.loop_speedup > 1.2


def test_parallel_loop_trace_shapes():
    collector, partition, _ = _transform_and_trace(PARALLEL, [50])
    stats = simulate_spt_loop(collector)
    # ~28 costly ops per iteration plus phi/jump records.
    assert 25 <= stats.avg_body_ops <= 40
    assert stats.prefork_fraction < 0.3


SERIAL = """\
module t
func main(n) {
  local a[8192]
entry:
  pa = addr a
  i = copy 0
  acc = copy 1
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  t1 = mul acc, 3
  t2 = add t1, 7
  t3 = mul t2, 5
  t4 = add t3, 1
  m = mod t4, 1000
  acc = add m, 1
  store pa, i, acc !a
  i = add i, 1
  jump head
exit:
  ret acc
}
"""


def test_serial_loop_has_high_misspeculation():
    """A true recurrence through acc: with only the induction variable
    movable into the small pre-fork region, nearly every speculative
    iteration re-executes the acc chain."""
    config = SptConfig(prefork_fraction=0.15)
    collector, partition, _ = _transform_and_trace(SERIAL, [200], config)
    stats = simulate_spt_loop(collector)
    assert stats.misspeculation_ratio > 0.3
    assert stats.loop_speedup < 1.2


def test_serial_loop_fixed_by_large_prefork():
    """Moving the whole recurrence pre-fork eliminates misspeculation
    (at the price of a big sequential region)."""
    config = SptConfig(prefork_fraction=0.99)
    collector, partition, _ = _transform_and_trace(SERIAL, [200], config)
    stats = simulate_spt_loop(collector)
    assert stats.misspeculation_ratio < 0.05


def test_single_iteration_loop_pays_overhead():
    collector, _, _ = _transform_and_trace(PARALLEL, [1])
    stats = simulate_spt_loop(collector)
    assert stats.iterations == 1
    assert stats.spt_cycles == pytest.approx(stats.seq_cycles + FORK_CYCLES)


def test_zero_trip_loop_records_nothing():
    collector, _, _ = _transform_and_trace(PARALLEL, [0])
    stats = simulate_spt_loop(collector)
    assert stats.iterations == 0
    assert stats.spt_cycles == 0.0


def test_round_timing_includes_overheads():
    collector, _, _ = _transform_and_trace(PARALLEL, [2])
    stats = simulate_spt_loop(collector)
    # One round: pre + fork + max(post, spec) + commit (+ reexec).
    assert stats.spt_cycles >= FORK_CYCLES + COMMIT_CYCLES
    assert stats.spt_cycles < stats.seq_cycles + FORK_CYCLES + COMMIT_CYCLES


SILENT = """\
module t
func main(n) {
  local flag[4]
entry:
  p = addr flag
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  store p, 0, 1 !flag
  v = load p, 0 !flag
  w = add v, i
  store p, 1, w !flag
  i = add i, 1
  jump head
exit:
  ret 0
}
"""


def test_silent_stores_do_not_violate():
    """store p,0,1 writes the same value every iteration: value-based
    detection must not flag the dependent load."""
    collector, _, _ = _transform_and_trace(SILENT, [100])
    stats = simulate_spt_loop(collector)
    assert stats.misspeculation_ratio < 0.05

"""Simulator invariants, checked over generated loop shapes:

* SPT wall-clock can never beat perfect two-way parallelism (half the
  sequential time) and never exceeds sequential time plus all overheads
  and all re-execution;
* misspeculation and re-execution ratios live in [0, 1];
* statistics are internally consistent.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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

_STMTS = [
    "  x = load p, im !buf",
    "  acc = add acc, {k}",
    "  acc = mul acc, 3",
    "  y = mul x, {k}\n  acc = add acc, y",
    "  store p, im, acc !buf",
    "  z = and acc, 255\n  store p, z, i !buf",
]


@st.composite
def sim_loop_source(draw):
    lines = [
        stmt.format(k=draw(st.integers(1, 7)))
        for stmt in draw(st.lists(st.sampled_from(_STMTS), min_size=2, max_size=5))
    ]
    # x must exist even if no load was drawn.
    body = "  x = copy i\n  im = and i, 255\n" + "\n".join(lines)
    return f"""\
module t
func main(n) {{
  local buf[256]
entry:
  p = addr buf
  acc = copy 1
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
{body}
  i = add i, 1
  jump head
exit:
  ret acc
}}
"""


def _simulate(source, n, prefork_fraction):
    from repro.ssa import build_ssa

    module = parse_module(source)
    func = module.function("main")
    build_ssa(func)
    nest = LoopNest.build(func)
    loop = nest.loops[0]
    graph = build_dep_graph(module, func, loop)
    partition = find_optimal_partition(
        graph, SptConfig(prefork_fraction=prefork_fraction)
    )
    info = transform_loop(module, func, loop, partition, graph)
    nest2 = LoopNest.build(func)
    loop2 = next(l for l in nest2.loops if l.header == loop.header)
    collector = SptTraceCollector(
        "main", loop2.header, loop2.body, info.loop_id, TimingModel()
    )
    run_module(
        module, args=[n], tracers=[TimingTracer(collector.model), collector]
    )
    return simulate_spt_loop(collector)


@settings(max_examples=25, deadline=None)
@given(
    sim_loop_source(),
    st.integers(0, 40),
    st.sampled_from([0.2, 0.6, 0.95]),
)
def test_spt_time_bounds(source, n, prefork_fraction):
    stats = _simulate(source, n, prefork_fraction)
    assert stats.iterations == n

    if n == 0:
        assert stats.spt_cycles == 0.0
        return

    rounds = (n + 1) // 2
    overheads = rounds * (FORK_CYCLES + COMMIT_CYCLES)
    # Lower bound: perfect overlap of every pair.
    assert stats.spt_cycles >= stats.seq_cycles / 2.0 - 1e-6
    # Upper bound: no overlap at all, plus overheads and re-execution.
    assert (
        stats.spt_cycles
        <= stats.seq_cycles + overheads + stats.reexec_cycles + 1e-6
    )


@settings(max_examples=25, deadline=None)
@given(sim_loop_source(), st.integers(1, 30))
def test_ratios_in_unit_interval(source, n):
    stats = _simulate(source, n, 0.5)
    assert 0.0 <= stats.misspeculation_ratio <= 1.0
    assert 0.0 <= stats.reexecution_ratio <= 1.0
    assert 0.0 <= stats.prefork_fraction <= 1.0
    assert stats.reexec_ops <= stats.spec_ops
    assert stats.reexec_cycles <= stats.spec_cycles + 1e-9


@settings(max_examples=15, deadline=None)
@given(sim_loop_source(), st.integers(2, 30))
def test_full_prefork_eliminates_misspeculation(source, n):
    """With (nearly) everything movable placed pre-fork, the remaining
    speculative work should rarely misspeculate."""
    loose = _simulate(source, n, 0.99)
    tight = _simulate(source, n, 0.05)
    assert loose.reexec_cycles <= tight.reexec_cycles + 1e-6

"""SPT trace collector behaviour: region split, call aggregation,
invocation boundaries.  Iterations are observed through the testkit's
:class:`RetainingCollector`; the library collector folds and drops
them as rounds complete."""

import pytest

from repro.analysis.loops import LoopNest
from repro.ir import parse_module
from repro.machine.spt_sim import SptTraceCollector, simulate_spt_loop
from repro.machine.timing import TimingModel, TimingTracer
from repro.profiling import run_module
from repro.testkit.oracles import RetainingCollector

WITH_CALL = """\
module t
global shared[64]
func helper(v) {
entry:
  p = addr shared
  old = load p, 0 !shared
  new = add old, v
  store p, 0, new !shared
  ret new
}
func main(n) {
entry:
  i = copy 0
  s = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  i = add i, 1
  spt_fork 0
  x = mul i, 3
  r = call helper(x)
  s = add s, r
  jump head
exit:
  spt_kill 0
  ret s
}
"""


LOADS = """\
module t
global a[16]
func main(n) {
entry:
  p = addr a
  z = load p, 15 !a
  i = copy 0
  s = copy z
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  i = add i, 1
  spt_fork 0
  x = load p, i !a
  s = add s, x
  jump head
exit:
  spt_kill 0
  ret s
}
"""


def _run(module, collector, **kwargs):
    """Run ``collector`` after the timing accounting whose cache it
    reads load latencies from."""
    tracers = [TimingTracer(collector.model), collector]
    run_module(module, tracers=tracers, **kwargs)


def _collect(source, args, func_name="main", header="head"):
    module = parse_module(source)
    func = module.function(func_name)
    nest = LoopNest.build(func)
    loop = next(l for l in nest.loops if l.header == header)
    collector = RetainingCollector(
        func_name, loop.header, loop.body, 0, TimingModel()
    )
    _run(module, collector, func_name=func_name, args=args)
    return collector


def test_region_split_at_fork():
    collector = _collect(WITH_CALL, [10])
    iterations = collector.invocations[0]
    assert len(iterations) == 10
    trace = iterations[3]
    pre_ops = [op for op in trace.ops if op.pre_fork]
    post_ops = [op for op in trace.ops if not op.pre_fork]
    # pre-fork: phi(i), lt, br, i-add; post: mul, call, s-add, jump, phi(s)...
    pre_opcodes = {op.instr.opcode for op in pre_ops}
    assert "binop" in pre_opcodes  # the induction update
    post_opcodes = {op.instr.opcode for op in post_ops}
    assert "call" in post_opcodes


def test_call_aggregation():
    collector = _collect(WITH_CALL, [5])
    trace = collector.invocations[0][2]
    call_ops = [op for op in trace.ops if op.instr.opcode == "call"]
    assert len(call_ops) == 1
    call = call_ops[0]
    # The callee's loads/stores are folded into the call record.
    assert call.mem_reads, "callee load not attributed to the call"
    assert call.mem_writes, "callee store not attributed to the call"
    # The callee's latency is charged onto the call op.
    assert call.latency > 1.0
    # The call's return value registers as a def.
    assert call.def_name is not None


def test_call_carried_dependence_causes_misspeculation():
    """helper() carries shared[0] across iterations: every speculative
    call reads what the main thread's post-fork call wrote."""
    collector = _collect(WITH_CALL, [40])
    stats = simulate_spt_loop(collector)
    assert stats.misspeculation_ratio > 0.1


MULTI_INVOCATION = """\
module t
func work(n) {
entry:
  i = copy 0
  s = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  i = add i, 1
  spt_fork 0
  s = add s, i
  jump head
exit:
  spt_kill 0
  ret s
}
func main(m) {
entry:
  a = call work(3)
  b = call work(m)
  r = add a, b
  ret r
}
"""


def test_multiple_invocations_tracked_separately():
    collector = _collect(MULTI_INVOCATION, [5], func_name="work", header="head")
    # The collector watches `work`, which main calls twice.
    module = parse_module(MULTI_INVOCATION)
    func = module.function("work")
    nest = LoopNest.build(func)
    loop = nest.loops[0]
    collector = RetainingCollector(
        "work", loop.header, loop.body, 0, TimingModel()
    )
    _run(module, collector, func_name="main", args=[5])
    assert len(collector.invocations) == 2
    assert len(collector.invocations[0]) == 3
    assert len(collector.invocations[1]) == 5


def test_stats_accumulate_across_invocations():
    module = parse_module(MULTI_INVOCATION)
    func = module.function("work")
    nest = LoopNest.build(func)
    loop = nest.loops[0]
    collector = SptTraceCollector("work", loop.header, loop.body, 0, TimingModel())
    _run(module, collector, func_name="main", args=[6])
    stats = simulate_spt_loop(collector)
    assert stats.invocations == 2
    assert stats.iterations == 9


RECURSIVE = """\
module t
func work(n, d) {
entry:
  i = copy 0
  s = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  i = add i, 1
  spt_fork 0
  s = add s, i
  r = gt d, 0
  e = le i, 2
  t = and r, e
  br t, rec, latch
rec:
  m = sub i, 1
  k = mul m, 3
  d1 = sub d, 1
  x = call work(k, d1)
  s = add s, x
  jump latch
latch:
  jump head
exit:
  spt_kill 0
  ret s
}
func main(n) {
entry:
  a = call work(n, 1)
  ret a
}
"""


def test_pairing_restarts_only_where_an_invocation_gets_iterations():
    """work(6, 1) recurses from its first two iterations.  The
    zero-trip call work(0, 0) starts an invocation that never gets an
    iteration, so iteration 2 still pairs with iteration 1; the call
    work(3, 0) starts one that the caller's remaining iterations then
    continue (the caller re-enters its loop from the body, not through
    the preheader)."""
    module = parse_module(RECURSIVE)
    loop = LoopNest.build(module.function("work")).loops[0]
    collector = RetainingCollector(
        "work", loop.header, loop.body, 0, TimingModel()
    )
    _run(module, collector, args=[6])
    stats = simulate_spt_loop(collector)
    assert [len(traces) for traces in collector.invocations] == [2, 7]
    assert (stats.invocations, stats.iterations) == (2, 9)
    # Rounds (1,2), (j1,j2), (j3,3), (4,5) and the unpaired 6.
    assert (stats.spec_ops, stats.spt_ticks) == (39, 7750)


@pytest.mark.parametrize("fast", [False, True])
@pytest.mark.parametrize("accounting", ["none", "ahead"])
def test_a_load_the_accounting_did_not_charge_raises(fast, accounting):
    """Without a timing accounting on its model, or attached ahead of
    it, a collector would read 0 or the previous load's ticks; it
    raises at the first load it records instead."""
    module = parse_module(LOADS)
    loop = LoopNest.build(module.function("main")).loops[0]
    collector = SptTraceCollector(
        "main", loop.header, loop.body, 0, TimingModel()
    )
    tracers = [collector]
    if accounting == "ahead":
        tracers.append(TimingTracer(collector.model))
    with pytest.raises(RuntimeError, match="was not charged"):
        run_module(module, tracers=tracers, args=[4], fast=fast)
    # Attached after the accounting, the same run records every load.
    collector = SptTraceCollector(
        "main", loop.header, loop.body, 0, TimingModel()
    )
    _run(module, collector, args=[4], fast=fast)
    assert collector.stats.iterations == 4

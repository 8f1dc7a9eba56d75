"""Calls and recursion inside SPT loops, on both simulation tiers.

The suite's SPT loops execute no calls, and the fuzz generator never
re-enters a loop's function, so these hand-written programs are what
exercises the fast tier's scoped per-op hooks where a collector's scope
reaches past its loop body: into a callee that is also called outside
the loop, into the whole target function when the body recurses into
it, and into a helper both loops of one function share.  Each program
must simulate to the same outcome on the fast and the reference tier,
and to the per-loop statistics pinned below.
"""

from dataclasses import asdict

import pytest

from repro.ir import parse_module
from repro.perf.runner import build_simulation, finalize_simulation, run_machine
from repro.testkit.oracles import RetainingCollector

# A loop calling a helper that has a loop of its own, reads and writes
# memory, and is called before and after the SPT loop too.
HELPER_LOOP = """\
module t
global table[64]
func helper(v) {
entry:
  j = copy 0
  acc = copy 0
  p = addr table
  jump hh
hh:
  c = lt j, 4
  br c, hb, hx
hb:
  k = add v, j
  m = and k, 63
  x = load p, m !table
  acc = add acc, x
  y = add x, k
  store p, m, y !table
  j = add j, 1
  jump hh
hx:
  ret acc
}
func main(n) {
entry:
  i = copy 0
  s = copy 0
  w = call helper(7)
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  i = add i, 1
  spt_fork 0
  x = mul i, 5
  r = call helper(x)
  s = add s, r
  jump head
exit:
  spt_kill 0
  t = call helper(s)
  u = add s, t
  v = add u, w
  ret v
}
"""

# A loop function the body re-enters recursively (twice deep), with a
# memory-carried dependence between iterations.
RECURSIVE = """\
module t
global cells[64]
func work(n, d) {
entry:
  i = copy 0
  s = copy 0
  p = addr cells
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  i = add i, 1
  spt_fork 0
  m = and i, 7
  v = load p, m !cells
  v2 = add v, i
  store p, m, v2 !cells
  s = add s, v2
  r = gt d, 0
  e = eq i, 3
  t = and r, e
  br t, rec, latch
rec:
  d1 = sub d, 1
  k = add i, 2
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
  a = call work(n, 2)
  ret a
}
"""

# Two SPT loops in one function; both bodies call one helper, whose
# blocks are in both collectors' scopes.
TWO_LOOPS = """\
module t
global a[128]
global log[8]
func note(v) {
entry:
  q = addr log
  m = and v, 7
  o = load q, m !log
  n2 = add o, v
  store q, m, n2 !log
  ret n2
}
func main(n) {
entry:
  i = copy 0
  s = copy 0
  p = addr a
  jump h1
h1:
  c = lt i, n
  br c, b1, x1
b1:
  i = add i, 1
  spt_fork 0
  m = and i, 127
  v = mul i, 7
  store p, m, v !a
  z = call note(v)
  s = add s, z
  jump h1
x1:
  spt_kill 0
  j = copy 0
  jump h2
h2:
  c2 = lt j, n
  br c2, b2, x2
b2:
  j = add j, 1
  spt_fork 1
  m2 = and j, 127
  w = load p, m2 !a
  s = add s, w
  y = call note(j)
  s = add s, y
  jump h2
x2:
  spt_kill 1
  ret s
}
"""

PROGRAMS = {
    "helper_loop": (HELPER_LOOP, [("main", "head", 0)], 24),
    "recursive": (RECURSIVE, [("work", "head", 0)], 6),
    "two_loops": (TWO_LOOPS, [("main", "h1", 0), ("main", "h2", 1)], 40),
}

#: ``SptLoopStats`` of every program's loops, pinned from the
#: simulator that compiled every hook into every op on both tiers and
#: gave each collector a private cache.
PINNED = {
    "helper_loop": [
        dict(func_name='main', header='head', invocations=1, iterations=24,
             seq_ticks=118860, spt_ticks=100835, spec_ops=84, reexec_ops=6,
             reexec_ticks=210, spec_ticks=50280, total_ops=168,
             prefork_ticks=2520),
    ],
    "recursive": [
        dict(func_name='work', header='head', invocations=3, iterations=16,
             seq_ticks=27980, spt_ticks=34150, spec_ops=91, reexec_ops=7,
             reexec_ticks=245, spec_ticks=3605, total_ops=212,
             prefork_ticks=1680),
    ],
    "two_loops": [
        dict(func_name='main', header='h1', invocations=1, iterations=40,
             seq_ticks=46700, spt_ticks=56995, spec_ops=180, reexec_ops=20,
             reexec_ticks=700, spec_ticks=14400, total_ops=360,
             prefork_ticks=4200),
        dict(func_name='main', header='h2', invocations=1, iterations=40,
             seq_ticks=29200, spt_ticks=40100, spec_ops=180, reexec_ops=40,
             reexec_ticks=1400, spec_ticks=14600, total_ops=360,
             prefork_ticks=4200),
    ],
}


def _simulate(name, fast):
    source, sites, n = PROGRAMS[name]
    machine, accounting, collectors = build_simulation(
        parse_module(source), sites, fast=fast
    )
    result = run_machine(machine, "main", [n])
    return finalize_simulation(result, accounting, collectors)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_both_tiers_simulate_the_pinned_loop_stats(name):
    reference = _simulate(name, fast=False)
    fast = _simulate(name, fast=True)
    assert fast == reference
    assert [asdict(stats) for stats in reference.loops] == PINNED[name]


class _CountingCollector(RetainingCollector):
    """Overrides ``on_instr``: the fast tier must then deliver every
    per-op event to it instead of recording through its own closure."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.instrs = 0

    def on_instr(self, func, block, instr):
        self.instrs += 1
        super().on_instr(func, block, instr)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_an_on_instr_override_sees_the_same_records_on_both_tiers(name):
    source, sites, n = PROGRAMS[name]
    runs = []
    for fast in (False, True):
        machine, accounting, collectors = build_simulation(
            parse_module(source), sites, fast=fast,
            collector_type=_CountingCollector,
        )
        run_machine(machine, "main", [n])
        runs.append([
            (
                collector.instrs,
                asdict(collector.stats),
                [
                    [[(op.instr.opcode, op.ticks, op.uses, op.def_name,
                       op.load_addr, op.store_addr, op.pre_fork)
                      for op in trace.ops] for trace in invocation]
                    for invocation in collector.invocations
                ],
            )
            for collector in collectors
        ])
    reference, fast = runs
    for ref_loop, fast_loop in zip(reference, fast):
        # Scoped hooks: fewer on_instr events on the fast tier, the
        # same records.
        assert ref_loop[0] > fast_loop[0] > 0
        assert fast_loop[1:] == ref_loop[1:]

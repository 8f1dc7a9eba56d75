"""Edge, dependence, and value profiler tests."""

from repro.analysis.loops import LoopNest
from repro.ir import parse_module
from repro.profiling import (
    DependenceProfile,
    EdgeProfile,
    ValueProfile,
    run_module,
)

BRANCHY = """\
module t
func main(n) {
entry:
  i = copy 0
  s = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  m = mod i, 4
  z = eq m, 0
  br z, hit, skip
hit:
  s = add s, 1
  jump latch
skip:
  jump latch
latch:
  i = add i, 1
  jump head
exit:
  ret s
}
"""


def _profiled(source, args, tracers):
    module = parse_module(source)
    run_module(module, args=args, tracers=tracers)
    return module


def test_edge_counts_and_branch_prob():
    profile = EdgeProfile()
    module = _profiled(BRANCHY, [100], [profile])
    assert profile.edge_count("main", "head", "body") == 100
    assert profile.edge_count("main", "head", "exit") == 1
    assert profile.edge_count("main", "body", "hit") == 25
    assert abs(profile.branch_prob("main", "body", "hit") - 0.25) < 1e-9
    assert abs(profile.branch_prob("main", "head", "body") - 100 / 101) < 1e-9


def test_branch_prob_fallback_without_data():
    profile = EdgeProfile()
    assert profile.branch_prob("main", "nowhere", "elsewhere") == 0.5


def test_trip_count():
    profile = EdgeProfile()
    module = _profiled(BRANCHY, [100], [profile])
    func = module.function("main")
    nest = LoopNest.build(func)
    loop = nest.loops[0]
    assert abs(profile.trip_count(func, loop) - 101.0) < 1e-9


CARRIED = """\
module t
func main(n) {
  local buf[64]
entry:
  base = addr buf
  i = copy 1
  store base, 0, 7 !buf
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  prev = sub i, 1
  x = load base, prev !buf
  y = add x, 1
  store base, i, y !buf
  i = add i, 1
  jump head
exit:
  r = load base, 5 !buf
  ret r
}
"""

PRIVATE = """\
module t
func main(n) {
  local tmp[8]
entry:
  base = addr tmp
  i = copy 0
  s = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  store base, 0, i !tmp
  v = load base, 0 !tmp
  s = add s, v
  i = add i, 1
  jump head
exit:
  ret s
}
"""


def _find_instr(module, func_name, opcode, block):
    for instr in module.function(func_name).block(block).instrs:
        if instr.opcode == opcode:
            return instr
    raise AssertionError(f"no {opcode} in {block}")


def test_cross_iteration_dependence_is_measured():
    module = parse_module(CARRIED)
    profile = DependenceProfile(module)
    run_module(module, args=[40], tracers=[profile])

    func = module.function("main")
    loop = profile.nests["main"].loops[0]
    store = _find_instr(module, "main", "store", "body")
    load = _find_instr(module, "main", "load", "body")
    view = profile.view("main", loop)
    # Every body store at index i is read the next iteration at index i.
    assert view.mem_prob(store, load, cross=True) > 0.9
    assert view.mem_prob(store, load, cross=False) == 0.0


def test_private_buffer_has_intra_but_not_cross_deps():
    module = parse_module(PRIVATE)
    profile = DependenceProfile(module)
    run_module(module, args=[40], tracers=[profile])

    loop = profile.nests["main"].loops[0]
    store = _find_instr(module, "main", "store", "body")
    load = _find_instr(module, "main", "load", "body")
    view = profile.view("main", loop)
    assert view.mem_prob(store, load, cross=False) > 0.9
    assert view.mem_prob(store, load, cross=True) == 0.0
    assert view.covers(store)


def test_uncovered_writer_returns_none():
    module = parse_module(PRIVATE)
    profile = DependenceProfile(module)
    run_module(module, args=[1], tracers=[profile])  # not enough executions
    loop = profile.nests["main"].loops[0]
    store = _find_instr(module, "main", "store", "body")
    load = _find_instr(module, "main", "load", "body")
    view = profile.view("main", loop)
    assert view.mem_prob(store, load, cross=True) is None
    assert not view.covers(store)


STRIDED = """\
module t
func main(n) {
entry:
  x = copy 0
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  x = add x, 2
  i = add i, 1
  jump head
exit:
  ret x
}
"""


def test_value_profile_detects_stride():
    module = parse_module(STRIDED)
    update = _find_instr(module, "main", "binop", "body")
    profile = ValueProfile([update])
    run_module(module, args=[50], tracers=[profile])
    pattern = profile.pattern_for(update)
    assert pattern.kind == "stride"
    assert pattern.stride == 2
    assert pattern.hit_rate > 0.95
    assert update in profile.predictable_instrs(0.9)


def test_value_profile_is_scoped_to_its_watched_defs(monkeypatch):
    """The fast tier samples a watched def through the profile's
    ``op_recorder`` and dispatches no ``on_def`` at all; the reference
    interpreter calls ``on_def`` for every def.  Both sample the same
    values."""
    calls = []
    on_def = ValueProfile.on_def

    def counting(self, instr, value):
        calls.append(instr)
        on_def(self, instr, value)

    monkeypatch.setattr(ValueProfile, "on_def", counting)
    samples = []
    for fast in (False, True):
        module = parse_module(STRIDED)
        update = _find_instr(module, "main", "binop", "body")
        profile = ValueProfile([update])
        del calls[:]
        run_module(module, args=[50], tracers=[profile], fast=fast)
        samples.append(profile.samples[id(update)])
        if fast:
            assert calls == []
        else:
            assert len(calls) > len(samples[0])
    assert samples[0] == samples[1] == list(range(2, 101, 2))


def test_value_profile_unpredictable_on_few_samples():
    module = parse_module(STRIDED)
    update = _find_instr(module, "main", "binop", "body")
    profile = ValueProfile([update])
    run_module(module, args=[3], tracers=[profile])
    pattern = profile.pattern_for(update)
    assert not pattern.predictable

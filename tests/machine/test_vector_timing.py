"""VectorTimingEngine must be bitwise-identical to TimingTracer.

The engine consumes block-granular events (from the compiled driver
and from compiled traces) instead of per-instruction hooks; everything
it reports -- ticks, cycles, instruction counts, per-loop attribution,
and the shared cache/predictor state it mutates -- must match a per-op
:class:`TimingTracer` run exactly, not approximately.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite import SUITE
from repro.frontend import compile_minic
from repro.machine.timing import TimingModel, TimingTracer
from repro.machine.vector_timing import VectorTimingEngine
from repro.profiling import CompiledMachine
from repro.ssa import build_ssa, optimize
from tests.integration.test_equivalence_random import _STMTS, _build_source

import pytest


def _prepare(source, name="m"):
    module = compile_minic(source, name=name)
    for func in module.functions.values():
        build_ssa(func)
        optimize(func)
    return module


def _model_state(model: TimingModel):
    """Every externally visible piece of shared timing state."""
    hierarchy = model.hierarchy
    return {
        "accesses": hierarchy.accesses,
        "levels": [
            (lvl.hits, lvl.misses, list(lvl._lines)) for lvl in hierarchy.levels
        ],
        "predictions": model.predictor.predictions,
        "mispredictions": model.predictor.mispredictions,
        "counters": dict(model.predictor._counters),
    }


def _run_tracer(module, args):
    tracer = TimingTracer(TimingModel())
    machine = CompiledMachine(module)
    machine.add_tracer(tracer)
    result = machine.run("main", list(args))
    return tracer, result


def _run_engine(module, args, **kw):
    engine = VectorTimingEngine(TimingModel())
    machine = CompiledMachine(module, timing_engine=engine, **kw)
    result = machine.run("main", list(args))
    engine.flush()
    return engine, result


def _assert_equal_accounting(module, args, **kw):
    tracer, ref_result = _run_tracer(module, args)
    engine, result = _run_engine(module, args, **kw)
    assert result == ref_result
    assert engine.ticks == tracer.ticks
    assert engine.cycles == tracer.cycles
    assert engine.instructions == tracer.instructions
    assert engine.loop_cycles == tracer.loop_cycles
    assert _model_state(engine.model) == _model_state(tracer.model)
    return engine


_NESTED = """
global int grid[256];
int weigh(int x) {
    int acc = 0;
    for (int k = 0; k < 4; k++) { acc += (x >> k) & 1; }
    return acc;
}
int main(int n) {
    int total = 0;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 16; j++) {
            grid[(i * 16 + j) % 256] = i + j;
            if ((i + j) % 5 == 0) {
                total += weigh(grid[(i * 16 + j) % 256]);
            } else {
                total += grid[(i * 16 + j) % 256] % 3;
            }
        }
    }
    return total;
}
"""


@pytest.mark.parametrize("bench", SUITE, ids=lambda b: b.name)
def test_benchsuite_exact_accounting(bench):
    """Whole-suite exact equality of cycles, instructions, per-loop
    attribution and cache/predictor state (trace path enabled)."""
    module = _prepare(bench.source, name=bench.name)
    _assert_equal_accounting(module, [bench.train_n])


#: A hot threshold no test run reaches: only the block driver runs.
NEVER_HOT = 1 << 62


@pytest.mark.parametrize("hot", [NEVER_HOT, 4], ids=["driver", "traced"])
def test_nested_loops_and_calls(hot):
    """Loop-stack push/pop across nested loops and function frames is
    attributed identically, with and without compiled traces."""
    module = _prepare(_NESTED)
    engine = _assert_equal_accounting(module, [40], trace_hot_threshold=hot)
    assert engine.loop_cycles  # non-vacuous: per-loop attribution happened
    # The memo layers actually engaged (otherwise this test measures
    # nothing about the fast paths).
    assert engine._neutral
    if hot != NEVER_HOT:
        assert engine._pass_memo or engine._seqs == []


def test_forced_bailouts_accounting(monkeypatch):
    """Guard fall-backs mid-pass preserve exact accounting."""
    monkeypatch.setenv("REPRO_TRACE_BAILOUT", "3")
    module = _prepare(_NESTED)
    _assert_equal_accounting(module, [40], trace_hot_threshold=4)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(0, len(_STMTS) - 1), min_size=1, max_size=6),
    st.integers(0, 60),
)
def test_random_programs_exact_accounting(stmt_indices, n):
    module = _prepare(_build_source(stmt_indices))
    _assert_equal_accounting(module, [n], trace_hot_threshold=4)


def test_engine_rejects_tracer_attachment():
    """The engine is not a tracer: per-instr hooks must never drive it
    (that would double-charge and defeat batching)."""
    module = _prepare("int main(int n) { return n + 1; }")
    engine = VectorTimingEngine(TimingModel())
    machine = CompiledMachine(module)
    machine.add_tracer(engine)
    with pytest.raises(RuntimeError, match="must not be attached as a tracer"):
        machine.run("main", [1])


def test_reported_views():
    """Derived views (ipc, coverage) agree with the per-op tracer."""
    module = _prepare(_NESTED)
    tracer, _ = _run_tracer(module, [30])
    engine, _ = _run_engine(module, [30], trace_hot_threshold=4)
    assert engine.ipc == tracer.ipc
    for key in tracer.loop_cycles:
        assert engine.coverage(key) == tracer.coverage(key)

"""Differential tests for hot-trace (superblock) compilation.

The fast tier splices hot traces in wherever no per-op observer is
attached, and must stay observationally identical to its one oracle,
the reference interpreter: same results, memory, executed-instruction
counts, and edge/block profiles -- including under forced guard
failures (``REPRO_TRACE_BAILOUT``) and fuel exhaustion mid-trace.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite import SUITE
from repro.frontend import compile_minic
from repro.profiling import (
    CompiledMachine,
    EdgeProfile,
    FuelExhausted,
    Machine,
)
from repro.profiling.compiled import _BLACKLISTED
from repro.ssa import build_ssa, optimize
from tests.integration.test_equivalence_random import _STMTS, _build_source

import pytest

#: Low threshold so even short test programs go hot quickly.
HOT = 4


def _prepare(source, name="m"):
    module = compile_minic(source, name=name)
    for func in module.functions.values():
        build_ssa(func)
        optimize(func)
    return module


def _trace_machine(module, **kw):
    kw.setdefault("trace_hot_threshold", HOT)
    return CompiledMachine(module, **kw)


def _assert_same_run(module, args, trace_kw=None):
    """Reference vs trace-compiled: one run each."""
    ref = Machine(module)
    ref_result = ref.run("main", list(args))
    traced = _trace_machine(module, **(trace_kw or {}))
    traced_result = traced.run("main", list(args))
    assert traced_result == ref_result
    assert traced.memory == ref.memory
    assert traced.executed == ref.executed
    return traced


_LOOPY = """
global int data[64];
int helper(int x) {
    int t = 0;
    for (int j = 0; j < 8; j++) {
        if ((x + j) % 3 == 0) { t += j; } else { t -= 1; }
    }
    return t;
}
int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        data[i % 64] = i * 3;
        if (i % 7 < 3) { s += data[i % 64]; } else { s += helper(i); }
    }
    return s;
}
"""


@pytest.mark.parametrize("bench", SUITE, ids=lambda b: b.name)
def test_benchsuite_trace_differential(bench):
    """Every benchsuite program runs identically under traces, and the
    hot ones actually execute trace passes (non-vacuous)."""
    module = _prepare(bench.source, name=bench.name)
    traced = _assert_same_run(module, [bench.train_n])
    report = traced.trace_report()
    assert sum(s["passes"] for s in report.values()) > 0, bench.name


@pytest.mark.parametrize("bench", SUITE[:3], ids=lambda b: b.name)
def test_trace_edge_profiles_match(bench):
    """Edge/block/call profiles are bit-identical with traces on (the
    inline profile bumps replace on_block/on_edge dispatch exactly)."""
    module = _prepare(bench.source, name=bench.name)
    baseline = EdgeProfile()
    ref = Machine(module)
    ref.add_tracer(baseline)
    ref.run("main", [bench.train_n])

    profile = EdgeProfile()
    traced = _trace_machine(module)
    traced.add_tracer(profile)
    traced.run("main", [bench.train_n])

    assert profile.edge_counts == baseline.edge_counts
    assert profile.block_counts == baseline.block_counts
    assert profile.call_counts == baseline.call_counts


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, len(_STMTS) - 1), min_size=1, max_size=6),
    st.integers(0, 80),
)
def test_random_programs_trace_differential(stmt_indices, n):
    """Random loop programs execute identically under traces."""
    module = _prepare(_build_source(stmt_indices))
    _assert_same_run(module, [n])


def test_forced_guard_failures(monkeypatch):
    """REPRO_TRACE_BAILOUT drives every guard fall-back path: results
    stay identical while side exits are forced constantly."""
    for k in (1, 3, 7):
        monkeypatch.setenv("REPRO_TRACE_BAILOUT", str(k))
        module = _prepare(_LOOPY)
        traced = _assert_same_run(module, [200])
        assert traced._trace_bailout == k
        report = traced.trace_report()
        assert sum(s["side_exits"] for s in report.values()) > 0
    monkeypatch.delenv("REPRO_TRACE_BAILOUT")
    # Bail counter state must not leak into an unforced machine.
    module = _prepare(_LOOPY)
    assert _trace_machine(module)._trace_bailout == 0


def test_fuel_exhaustion_with_traces():
    """Traces settle fuel at pass granularity but still enforce the
    budget, and clean runs consume exactly the reference fuel."""
    module = _prepare(_LOOPY)
    ref = Machine(module)
    ref.run("main", [150])
    budget = ref.executed

    ok = _trace_machine(module, fuel=budget)
    ok.run("main", [150])
    assert ok.executed == budget

    with pytest.raises(FuelExhausted):
        _trace_machine(module, fuel=budget // 2).run("main", [150])


def test_trace_report_shape():
    module = _prepare(_LOOPY)
    machine = _trace_machine(module)
    machine.run("main", [300])
    report = machine.trace_report()
    assert report
    for key, stats in report.items():
        func, _, entry = key.partition(":")
        assert stats["func"] == func
        assert stats["entry"] == entry
        for field in (
            "path", "cyclic", "compiles", "entries", "passes",
            "side_exits", "ops_on_trace", "invalidations",
            "guard_failure_rate",
        ):
            assert field in stats
        assert stats["passes"] >= 0
        assert 0.0 <= stats["guard_failure_rate"] or stats["passes"] == 0


def test_blacklisting_stops_recompilation():
    """An entry that keeps invalidating is eventually blacklisted
    instead of being re-recorded forever."""
    module = _prepare(_LOOPY)
    machine = _trace_machine(module)
    machine.run("main", [50])
    code = next(
        code for code in machine._code.values() if code.traces
    )
    entry, trace = next(
        (k, v) for k, v in code.traces.items() if v is not _BLACKLISTED
    )
    # Drive the drop path until the 3-compile strike limit hits.
    for _ in range(5):
        tr = code.traces.get(entry)
        if tr is _BLACKLISTED:
            break
        code._drop_trace(entry, tr)
        stats = machine._trace_stats_for(code.func.name, entry)
        stats.compiles += 1  # simulate a re-install of the same path
        code.traces.setdefault(entry, tr)
    # Once blacklisted, execution still works (driver fallback).
    machine.run("main", [50])


def test_traces_disabled_under_per_instr_hooks():
    """A per-instr tracer forces the fully-hooked path: no traces are
    recorded, and the event stream matches the reference exactly."""
    from tests.profiling.test_compiled import RecordingTracer

    module = _prepare(_LOOPY)
    ref = Machine(module)
    ref_tracer = RecordingTracer()
    ref.add_tracer(ref_tracer)
    ref_result = ref.run("main", [60])

    traced = _trace_machine(module)
    fast_tracer = RecordingTracer()
    traced.add_tracer(fast_tracer)
    traced_result = traced.run("main", [60])

    assert traced_result == ref_result
    assert fast_tracer.events == ref_tracer.events
    assert not any(code.traces for code in traced._code.values())


def test_trace_source_is_inspectable():
    """Installed traces retain their generated source (debug surface)."""
    module = _prepare(_LOOPY)
    machine = _trace_machine(module)
    machine.run("main", [300])
    sources = [
        trace.source
        for code in machine._code.values()
        for trace in code.traces.values()
        if trace is not _BLACKLISTED
    ]
    assert sources
    assert all("def _trace(env, prev):" in src for src in sources)

"""Oracle battery behaviour on clean and deliberately broken inputs."""

import pytest

from repro.testkit import ORACLE_NAMES, derive_rng, generate_program, random_gen_config
from repro.testkit.oracles import run_oracle


def _spec_for(seed):
    rng = derive_rng("test-oracles", seed)
    return generate_program(rng, random_gen_config(rng))


@pytest.mark.parametrize("oracle", ORACLE_NAMES)
def test_oracles_pass_on_generated_programs(oracle):
    for seed in range(6):
        spec = _spec_for(seed)
        detail = run_oracle(oracle, spec, derive_rng("test-oracles", seed, oracle))
        assert detail is None, f"seed {seed}: {detail}"


@pytest.mark.parametrize("oracle", ORACLE_NAMES)
def test_oracles_accept_raw_source(oracle):
    source = _spec_for(0).source()
    detail = run_oracle(oracle, source, derive_rng("raw", oracle))
    assert detail is None, detail


def test_oracle_rng_determines_verdict_inputs():
    """The same (program, rng seed) pair replays byte-identically --
    the property the shrinking predicate and corpus replay depend on."""
    spec = _spec_for(1)
    for oracle in ORACLE_NAMES:
        a = run_oracle(oracle, spec, derive_rng("replay", oracle))
        b = run_oracle(oracle, spec, derive_rng("replay", oracle))
        assert a == b


def test_interp_oracle_catches_result_divergence(monkeypatch):
    """Sabotage the compiled fast path and the interp oracle must see it."""
    from repro.profiling import compiled

    original = compiled.CompiledMachine.run

    def broken(self, func_name, args=()):
        return original(self, func_name, args) + 1

    monkeypatch.setattr(compiled.CompiledMachine, "run", broken)
    detail = run_oracle("interp", _spec_for(2), derive_rng("broken-interp"))
    assert detail is not None
    assert "result mismatch" in detail


def test_interp_oracle_runs_hot_traces(monkeypatch):
    """The fast machines the interp oracle compares against the
    reference compile hot traces and run trace passes."""
    from repro.profiling import CompiledMachine
    from repro.testkit import oracles as oracles_mod

    machines = []
    original = oracles_mod.make_machine

    def recording(module, **kwargs):
        machines.append(original(module, **kwargs))
        return machines[-1]

    monkeypatch.setattr(oracles_mod, "make_machine", recording)
    for seed in range(4):
        detail = run_oracle("interp", _spec_for(seed), derive_rng("hot", seed))
        assert detail is None, detail
    stats = [
        entry
        for machine in machines
        if isinstance(machine, CompiledMachine)
        for entry in machine.trace_report().values()
    ]
    assert sum(entry["compiles"] for entry in stats) > 0
    assert sum(entry["passes"] for entry in stats) > 0


def test_interp_oracle_catches_trace_miscompile(monkeypatch):
    """Sabotage one opcode of the trace compiler only (the block path
    and the reference keep ``lt``): the interp oracle must see it."""
    from repro.profiling import traces

    monkeypatch.setitem(traces._BINOP_TEMPLATES, "lt", "({} <= {})")
    monkeypatch.setattr(traces, "_CODE_CACHE", {})
    found = any(
        run_oracle("interp", _spec_for(seed), derive_rng("bad-trace", seed))
        is not None
        for seed in range(6)
    )
    assert found, "no generated program ran a miscompiled trace"


def test_cost_oracle_catches_off_by_one(monkeypatch):
    from repro.core.costmodel import IncrementalCostEvaluator

    original = IncrementalCostEvaluator._total
    monkeypatch.setattr(
        IncrementalCostEvaluator,
        "_total",
        lambda self, v: original(self, v) + 1.0,
    )
    assert (
        run_oracle("cost", _spec_for(3), derive_rng("broken-cost")) is not None
    )


def test_partition_oracle_catches_wrong_optimum(monkeypatch):
    """Sabotage branch-and-bound into claiming a worse cost."""
    from repro.core import partition as partition_mod
    from repro.testkit import oracles as oracles_mod

    original = partition_mod.find_optimal_partition

    def pessimized(graph, config=None, **kwargs):
        result = original(graph, config, **kwargs)
        if result.cost not in (float("inf"),):
            result.cost += 0.5
        return result

    monkeypatch.setattr(oracles_mod, "find_optimal_partition", pessimized)
    found = any(
        run_oracle("partition", _spec_for(seed), derive_rng("broken-bb", seed))
        is not None
        for seed in range(8)
    )
    assert found, "no generated program exercised the partition search"


def test_spt_oracle_catches_replay_rule_change(monkeypatch):
    """Weaken the library's misspeculation rule; the independent
    reimplementation must disagree on some generated program."""
    from repro.machine import spt_sim
    from repro.testkit import oracles as oracles_mod

    def lenient(spec, post_reg, post_mem):
        return 0.0, 0  # pretend speculation never misses

    monkeypatch.setattr(oracles_mod, "_replay_speculative", lenient)
    found = any(
        run_oracle("spt", _spec_for(seed), derive_rng("broken-spt", seed))
        is not None
        for seed in range(10)
    )
    assert found, "no generated program triggered a misspeculation"


def test_spt_oracle_catches_fast_tier_divergence(monkeypatch):
    """The spt oracle's cross-tier check: sabotage one opcode of the
    trace compiler only (the reference tier keeps ``lt``), and the fast
    tier's simulated outcome must differ from the reference tier's."""
    from repro.profiling import traces

    monkeypatch.setitem(traces._BINOP_TEMPLATES, "lt", "({} <= {})")
    monkeypatch.setattr(traces, "_CODE_CACHE", {})
    details = [
        run_oracle("spt", _spec_for(seed), derive_rng("bad-tier", seed))
        for seed in range(6)
    ]
    assert any(
        detail is not None and "fast-tier simulation" in detail
        for detail in details
    ), details

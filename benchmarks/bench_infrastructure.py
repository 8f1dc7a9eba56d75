"""Microbenchmarks of the framework's own hot paths: interpreter
throughput, cost-model evaluation, and dependence-graph construction.

These are pytest-benchmark timings (multiple rounds) rather than
one-shot experiment reproductions.
"""

import json
import os
import time

from conftest import RESULTS_DIR, bench_rng, emit_json

from repro.analysis.cfg import CFG
from repro.analysis.depgraph import build_dep_graph
from repro.analysis.loops import LoopNest
from repro.benchsuite import SUITE
from repro.core import best_config, find_optimal_partition
from repro.core.costgraph import CostGraph, build_cost_graph
from repro.core.costmodel import misspeculation_cost
from repro.core.transform import TransformError, check_transformable
from repro.core.unroll import unroll_function
from repro.core.violation import find_violation_candidates
from repro.frontend import compile_minic
from repro.profiling import CompiledMachine, EdgeProfile, Machine, make_machine
from repro.ssa import build_ssa, optimize

SOURCE = """
global int data[512];

int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int x = data[i & 511];
        int a = x * 3 + i;
        int b = (a << 2) ^ x;
        data[i & 511] = b & 1023;
        s += b & 31;
    }
    return s;
}
"""


def _module():
    module = compile_minic(SOURCE)
    for func in module.functions.values():
        build_ssa(func)
        optimize(func)
    return module


def test_interpreter_throughput(benchmark):
    module = _module()

    def run():
        return Machine(module).run("main", [2000])

    result = benchmark(run)
    assert isinstance(result, int)


#: A hot-trace threshold no run reaches: ``CompiledMachine`` then stays
#: on its block-compiled closures, which is what the timings below
#: measure (hot traces have their own bar in test_trace_interp_speedup).
NEVER_HOT = 1 << 62


def _block_machine(module):
    return CompiledMachine(module, trace_hot_threshold=NEVER_HOT)


def test_interpreter_throughput_fast(benchmark):
    """Same workload on the block-compiled fast path."""
    module = _module()

    def run():
        return _block_machine(module).run("main", [2000])

    result = benchmark(run)
    assert result == Machine(module).run("main", [2000])


def _time_best_of(fn, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_interpreter_speedup():
    """The tentpole acceptance bar: the compiled interpreter must be at
    least 3x faster than the reference interpreter on the profiling
    workload (measured ~4.2x without tracers)."""
    module = _module()
    n = 20_000
    expected = Machine(module).run("main", [n])

    machine_fast = _block_machine(module)
    assert machine_fast.run("main", [n]) == expected  # warm + verify

    slow = _time_best_of(lambda: Machine(module).run("main", [n]))
    fast = _time_best_of(lambda: _block_machine(module).run("main", [n]))
    speedup = slow / fast
    print(f"\ninterpreter speedup (no tracers): {speedup:.2f}x")
    assert speedup >= 3.0

    slow_traced = _time_best_of(
        lambda: _run_with_edge_profile(Machine, module, n)
    )
    fast_traced = _time_best_of(
        lambda: _run_with_edge_profile(_block_machine, module, n)
    )
    traced_speedup = slow_traced / fast_traced
    print(f"interpreter speedup (EdgeProfile): {traced_speedup:.2f}x")
    assert traced_speedup >= 1.5


def _run_with_edge_profile(new_machine, module, n):
    machine = new_machine(module)
    machine.add_tracer(EdgeProfile())
    return machine.run("main", [n])


def test_noop_telemetry_overhead():
    """Observability acceptance: with no sink attached the telemetry
    layer must add less than 5% to compile_spt. The default path runs
    the NULL_TELEMETRY no-op singleton; an enabled-but-sinkless
    Telemetry must also stay within budget."""
    from repro.core import Workload, compile_spt
    from repro.obs import Telemetry

    config = best_config()
    workload = Workload(entry="main", args=(4000,))

    def compile_null():
        return compile_spt(compile_minic(SOURCE), config, workload)

    def compile_observed():
        telemetry = Telemetry()
        result = compile_spt(
            compile_minic(SOURCE), config, workload, telemetry=telemetry
        )
        telemetry.close()
        return result

    compile_null(), compile_observed()  # warm caches before timing

    # Interleave the two variants so clock-speed drift and allocator
    # state affect both equally; best-of cancels the remaining noise.
    # GC is paused so collection pauses don't land on one variant.
    import gc

    baseline = observed = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(9):
            start = time.perf_counter()
            compile_null()
            baseline = min(baseline, time.perf_counter() - start)
            start = time.perf_counter()
            compile_observed()
            observed = min(observed, time.perf_counter() - start)
    finally:
        gc.enable()
    overhead = observed / baseline - 1.0
    print(
        f"\ntelemetry overhead: baseline={baseline * 1e3:.1f}ms"
        f" observed={observed * 1e3:.1f}ms ({overhead:+.1%})"
    )
    assert overhead < 0.05


def _random_cost_graph(n_vcs: int, n_ops: int) -> CostGraph:
    rng = bench_rng("cost-graph", n_vcs, n_ops)
    cg = CostGraph()
    vcs = [f"vc{i}" for i in range(n_vcs)]
    ops = [f"op{i}" for i in range(n_ops)]
    for vc in vcs:
        cg.add_pseudo(vc, rng.random())
    for op in ops:
        cg.add_node(op, rng.uniform(0.5, 4.0))
    for vc in vcs:
        for op in rng.sample(ops, k=min(4, n_ops)):
            cg.add_edge_from_pseudo(vc, op, rng.random())
    for i in range(n_ops):
        for j in rng.sample(range(i + 1, n_ops), k=min(3, n_ops - i - 1)):
            cg.add_edge(ops[i], ops[j], rng.random())
    return cg


def test_cost_model_evaluation(benchmark):
    cg = _random_cost_graph(n_vcs=20, n_ops=300)
    prefork = {f"vc{i}" for i in range(0, 20, 2)}
    cost = benchmark(lambda: misspeculation_cost(cg, prefork))
    assert cost >= 0


def test_depgraph_construction(benchmark):
    module = _module()
    func = module.function("main")
    nest = LoopNest.build(func)
    loop = nest.loops[0]

    graph = benchmark(lambda: build_dep_graph(module, func, loop))
    assert graph.nodes


def _benchsuite_cost_graphs():
    """Yield (bench, func, candidates, cost_graph) for every
    transformable benchsuite loop with a non-trivial candidate set."""
    config = best_config()
    for bench in SUITE:
        module = compile_minic(bench.source, name=bench.name)
        for func in module.functions.values():
            unroll_function(func, config)
        for func in module.functions.values():
            build_ssa(func)
            optimize(func)
        edge = EdgeProfile()
        machine = CompiledMachine(module)
        machine.add_tracer(edge)
        machine.run("main", [bench.train_n])
        for func in module.functions.values():
            nest = LoopNest.build(func)
            cfg = CFG.build(func)
            for loop in nest.loops:
                try:
                    check_transformable(func, loop, cfg)
                except TransformError:
                    continue
                graph = build_dep_graph(module, func, loop, edge_profile=edge)
                candidates = find_violation_candidates(graph)
                if not candidates or len(candidates) > 30:
                    continue
                cg = build_cost_graph(graph, candidates)
                yield bench, func, graph, candidates, cg


def test_partition_search_node_visits():
    """Tentpole acceptance: the incremental evaluator must visit at
    least 5x fewer cost-graph nodes than full recomputation on
    search-heavy benchsuite loops, with identical optimal partitions
    everywhere. Fully deterministic (counts, not timings)."""
    config = best_config()
    total_full = total_incr = 0
    heavy_full = heavy_incr = 0
    loops = 0
    for bench, func, graph, candidates, cg in _benchsuite_cost_graphs():
        full = find_optimal_partition(
            graph,
            config.with_overrides(incremental_cost=False),
            candidates=candidates,
            cost_graph=cg,
        )
        incr = find_optimal_partition(
            graph,
            config.with_overrides(incremental_cost=True),
            candidates=candidates,
            cost_graph=cg,
        )
        # Identical decisions: bitwise-equal cost, same prefork set.
        assert incr.cost == full.cost, (bench.name, func.name)
        assert [id(vc.instr) for vc in incr.prefork_vcs] == [
            id(vc.instr) for vc in full.prefork_vcs
        ]
        loops += 1
        total_full += full.cost_node_visits
        total_incr += incr.cost_node_visits
        if full.evaluations >= 10:
            heavy_full += full.cost_node_visits
            heavy_incr += incr.cost_node_visits
    assert loops >= 10  # the suite exercises a real population of loops
    total_ratio = total_full / max(total_incr, 1)
    heavy_ratio = heavy_full / max(heavy_incr, 1)
    print(
        f"\ncost-graph node visits: full={total_full} incremental={total_incr}"
        f" ({total_ratio:.2f}x overall, {heavy_ratio:.2f}x on"
        f" search-heavy loops)"
    )
    assert total_ratio >= 2.0
    assert heavy_ratio >= 5.0


# -- batch driver: cold vs warm cache, jobs=1 vs jobs=N ---------------------

_BATCH_TEMPLATE = """
global int data[256];
global int out[256];

int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int x = data[i & 255];
        int a = x * MULT + i;
        int b = (a << 2) ^ (x >> 1);
        out[i & 255] = b & MASK;
        s += b & 31;
    }
    return s;
}
"""


def test_batch_driver_trajectory(tmp_path):
    """The batch-compilation trajectory: emits BENCH_batch.json with
    cold vs warm-cache wall time and jobs=1 vs jobs=N speedup, so
    future PRs can track both axes.  Only the warm-cache speedup is
    gated; the parallel speedup depends on the runner's core count, so
    it is recorded with ``cpu_count`` and is null (no jobs=N run) on a
    1-CPU host, where jobs=N would be another jobs=1 run."""
    from repro.batch import run_batch

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for index in range(8):
        source = _BATCH_TEMPLATE.replace("MULT", str(3 + 2 * index))
        source = source.replace("MASK", str(1023 - index))
        (corpus / f"bench{index}.c").write_text(source)
    args = (3000,)
    cpu_count = os.cpu_count() or 1
    jobs_n = min(4, cpu_count)

    def run(jobs, cache_dir):
        start = time.perf_counter()
        result = run_batch(
            [str(corpus)], args=args, jobs=jobs, cache_dir=str(cache_dir)
        )
        assert result.ok
        return time.perf_counter() - start, result

    cold_jobs1, _ = run(1, tmp_path / "cache-j1")
    cold_jobsn = None
    if jobs_n >= 2:
        cold_jobsn, _ = run(jobs_n, tmp_path / "cache-jn")
    warm_jobs1, warm_result = run(1, tmp_path / "cache-j1")

    hit_rate = warm_result.stats["cache"]["hit_rate"]
    trajectory = {
        "programs": 8,
        "args": list(args),
        "cpu_count": cpu_count,
        "jobs_n": jobs_n,
        "cold_jobs1_seconds": round(cold_jobs1, 4),
        "cold_jobsn_seconds": (
            None if cold_jobsn is None else round(cold_jobsn, 4)
        ),
        "warm_jobs1_seconds": round(warm_jobs1, 4),
        "parallel_speedup": (
            None if cold_jobsn is None else round(cold_jobs1 / cold_jobsn, 3)
        ),
        "warm_cache_speedup": round(cold_jobs1 / warm_jobs1, 3),
        "warm_hit_rate": round(hit_rate, 4),
    }
    emit_json("BENCH_batch", trajectory)
    print(f"\nbatch trajectory: {trajectory}")

    assert hit_rate >= 0.9
    assert trajectory["warm_cache_speedup"] > 1.0
    if trajectory["parallel_speedup"] is not None:
        assert trajectory["parallel_speedup"] > 0.0


def test_trace_interp_speedup():
    """Tentpole acceptance for the trace-compiled simulator: on the
    paper's evaluation workloads (the fig14-fig19 suite), hot-trace
    execution with the vectorized timing engine must produce bitwise-
    identical cycles/instructions to the block-compiled fast path with
    a per-op ``TimingTracer`` -- and be at least 5x faster in aggregate
    (target 10x).  Emits BENCH_interp.json so future PRs can track the
    trajectory per benchmark."""
    from repro.benchsuite.runner import _build_clean_module
    from repro.machine.timing import TimingModel, TimingTracer
    from repro.machine.vector_timing import VectorTimingEngine

    per_bench = {}
    total_base = 0.0
    total_trace = 0.0
    for bench in SUITE:
        module = _build_clean_module(bench)
        n = bench.eval_n

        def run_base():
            tracer = TimingTracer(TimingModel())
            machine = CompiledMachine(module)
            machine.add_tracer(tracer)
            machine.run("main", [n])
            return tracer

        def run_trace():
            engine = VectorTimingEngine(TimingModel())
            machine = make_machine(module, timing_engine=engine)
            machine.run("main", [n])
            engine.flush()
            return engine

        base = run_base()
        trace = run_trace()
        assert trace.ticks == base.ticks, bench.name
        assert trace.instructions == base.instructions, bench.name
        assert trace.loop_cycles == base.loop_cycles, bench.name

        # Interleave base/trace rounds so slow drift in machine load
        # hits both sides equally; best-of-N per side.
        base_s = trace_s = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            run_base()
            base_s = min(base_s, time.perf_counter() - start)
            start = time.perf_counter()
            run_trace()
            trace_s = min(trace_s, time.perf_counter() - start)
        total_base += base_s
        total_trace += trace_s
        per_bench[bench.name] = {
            "block_tracer_seconds": round(base_s, 4),
            "trace_engine_seconds": round(trace_s, 4),
            "speedup": round(base_s / trace_s, 2),
        }

    aggregate = total_base / total_trace
    payload = {
        "benchmarks": per_bench,
        "aggregate_speedup": round(aggregate, 2),
        "baseline": "CompiledMachine + per-op TimingTracer",
        "contender": "CompiledMachine (hot traces) + VectorTimingEngine",
    }
    emit_json("BENCH_interp", payload)
    print(f"\ntrace-interp trajectory: {payload}")
    assert aggregate >= 5.0


def _suite_eval_excluded():
    """The suite programs perfbench's suite-eval workload leaves out
    (``perfbench/workloads.py``'s ``SUITE_EXCLUDED``)."""
    import importlib.util

    path = os.path.join(
        os.path.dirname(__file__), "..", "perfbench", "workloads.py"
    )
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.SUITE_EXCLUDED


def test_spt_run_trajectory():
    """The SPT-run trajectory: the evaluation run (``simulate_program``)
    of the eight suite-eval programs under best, on the fast tier and on
    the reference tier.  The fast tier's ``SimOutcome`` must equal the
    reference tier's bit for bit.  Emits BENCH_sptsim.json with
    per-program seconds (best of three fast runs, one reference run);
    no speed floor is asserted."""
    from repro.core.pipeline import Workload, compile_spt
    from repro.perf.runner import simulate_program

    excluded = _suite_eval_excluded()
    per_bench = {}
    for bench in SUITE:
        if bench.name in excluded:
            continue
        module = compile_minic(bench.source, name=bench.name)
        compilation = compile_spt(
            module, best_config(), Workload(args=(bench.train_n,))
        )

        def run(fast):
            start = time.perf_counter()
            outcome = simulate_program(
                module, compilation, args=[bench.eval_n], fast=fast
            )
            return outcome, time.perf_counter() - start

        reference, reference_s = run(fast=False)
        fast_s = float("inf")
        for _ in range(3):
            fast, seconds = run(fast=True)
            fast_s = min(fast_s, seconds)
            assert fast == reference, bench.name
        per_bench[bench.name] = {
            "spt_loops": len(reference.loops),
            "fast_seconds": round(fast_s, 4),
            "reference_seconds": round(reference_s, 4),
        }

    payload = {
        "config": "best",
        "cpu_count": os.cpu_count() or 1,
        "benchmarks": per_bench,
        "fast_seconds_total": round(
            sum(b["fast_seconds"] for b in per_bench.values()), 4
        ),
        "reference_seconds_total": round(
            sum(b["reference_seconds"] for b in per_bench.values()), 4
        ),
    }
    emit_json("BENCH_sptsim", payload)
    print(f"\nspt-run trajectory: {payload}")


#: The compile phases ``compile_spt`` opens spans for, as
#: BENCH_compile.json reports their self seconds.
COMPILE_PHASES = (
    "unroll", "ssa", "profile", "depgraph", "search", "svp", "transform",
)


def _generated_compile_golden():
    import importlib.util

    path = os.path.join(
        os.path.dirname(__file__), "..", "tests", "golden",
        "test_generated_compile.py",
    )
    spec = importlib.util.spec_from_file_location("generated_compile", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compile_trajectory():
    """The compile trajectory: the generated-compile golden's programs
    compiled under best in one process.  Emits BENCH_compile.json with
    the total seconds, per-phase self seconds aggregated from the
    compilation spans as ``--metrics-out`` aggregates them, and the
    time ``repro.cli`` takes to parse one ``simulate`` command line
    (best of 20); no speed floor is asserted."""
    from repro.cli import parse_args
    from repro.core.pipeline import Workload, compile_spt
    from repro.obs.telemetry import Telemetry, self_durations

    golden = _generated_compile_golden()
    phase_s = dict.fromkeys(COMPILE_PHASES, 0.0)
    total_s = 0.0
    for index in range(golden.PROGRAM_COUNT):
        tag, source, train = golden.program(index)
        telemetry = Telemetry()
        start = time.perf_counter()
        module = compile_minic(source, name=tag)
        compile_spt(module, best_config(), Workload(args=(train,)),
                    telemetry=telemetry)
        total_s += time.perf_counter() - start
        for name, seconds in self_durations(telemetry.spans).items():
            if name in phase_s:
                phase_s[name] += seconds

    argv = ["simulate", "prog.c", "--args", "200", "--train-args", "20"]
    parse_s = float("inf")
    for _ in range(20):
        start = time.perf_counter()
        assert parse_args(argv).command == "simulate"
        parse_s = min(parse_s, time.perf_counter() - start)

    payload = {
        "config": "best",
        "programs": golden.PROGRAM_COUNT,
        "cpu_count": os.cpu_count() or 1,
        "total_seconds": round(total_s, 4),
        "phase_self_seconds": {
            name: round(seconds, 4) for name, seconds in phase_s.items()
        },
        "parse_simulate_ms": round(parse_s * 1e3, 3),
    }
    emit_json("BENCH_compile", payload)
    print(f"\ncompile trajectory: {payload}")

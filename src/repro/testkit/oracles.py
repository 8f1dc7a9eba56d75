"""The differential oracle battery.

Each oracle takes one generated program plus a private RNG (used only
for workload arguments and edit sequences, so a re-run with the same
RNG state replays exactly) and returns ``None`` on success or a short
failure-detail string.  The four oracles cross-check every pair of
implementations the framework keeps:

``interp``
    Reference interpreter vs the fast tier (block-compiled, with hot
    traces spliced in once a path runs hot): identical results, final
    memory, fuel accounting (``executed``) and block/edge trace
    streams.
``cost``
    Full (:class:`~repro.core.costmodel.CostEvaluator`) vs incremental
    (:class:`~repro.core.costmodel.IncrementalCostEvaluator`) cost
    propagation over a random partition-edit walk -- **bitwise** equal
    costs and probability vectors, the documented contract.
``partition``
    Branch-and-bound (:func:`~repro.core.partition.find_optimal_partition`)
    vs exhaustive enumeration on loops with few violation candidates:
    equal optimal cost, and a legal (downward-closed, size-bounded)
    reported partition whose cost recomputes from scratch.
``spt``
    Sequential vs SPT-transformed execution (the transformed module must
    be semantically identical under the reference interpreter), plus the
    misspeculation replay of :mod:`repro.machine.spt_sim` against an
    independent reimplementation of the rollback rule on every round
    (iterations retained by :class:`RetainingCollector`), the streamed
    per-loop totals against the sum over those rounds, and the
    simulation driver's fast tier against its reference tier: **bitwise**
    equal outcomes.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.depgraph import build_dep_graph
from repro.analysis.loops import LoopNest
from repro.core.config import SptConfig
from repro.core.costgraph import build_cost_graph
from repro.core.costmodel import (
    CostEvaluator,
    IncrementalCostEvaluator,
    reexecution_probabilities,
)
from repro.core.partition import (
    PartitionResult,
    brute_force_partition,
    find_optimal_partition,
)
from repro.core.pipeline import Workload, compile_spt
from repro.core.transform import (
    TransformError,
    check_transformable,
    transform_loop,
)
from repro.core.vcdep import VCDepGraph
from repro.core.violation import find_violation_candidates
from repro.frontend import compile_minic
from repro.machine.spt_sim import (
    COMMIT_TICKS,
    FORK_TICKS,
    IterationTrace,
    SptLoopStats,
    SptTraceCollector,
    _post_fork_stale,
    _replay_speculative,
)
from repro.perf.runner import (
    build_simulation,
    finalize_simulation,
    run_machine,
    spt_loop_sites,
)
from repro.profiling.compiled import make_machine
from repro.profiling.interp import Machine, Tracer
from repro.ssa.construct import build_ssa
from repro.ssa.optimize import optimize

__all__ = ["ORACLE_NAMES", "ORACLES", "RetainingCollector", "run_oracle"]


def _source_of(spec) -> str:
    """Oracles accept a ProgramSpec or raw MiniC source (corpus replay)."""
    return spec if isinstance(spec, str) else spec.source()

#: Fuel for differential runs; generated programs are bounded far below.
FUEL = 4_000_000


class _TraceRecorder(Tracer):
    """Flat record of the block/edge/function event stream."""

    def __init__(self):
        self.events: List[Tuple] = []

    def on_enter_function(self, func, args) -> None:
        self.events.append(("enter", func.name, tuple(args)))

    def on_exit_function(self, func, result) -> None:
        self.events.append(("exit", func.name, result))

    def on_block(self, func, block, prev_label) -> None:
        self.events.append(("block", func.name, block.label, prev_label))

    def on_edge(self, func, src_label, dst_label) -> None:
        self.events.append(("edge", func.name, src_label, dst_label))


def _run(module, n: int, fast: bool):
    machine = make_machine(module, fuel=FUEL, fast=fast)
    recorder = _TraceRecorder()
    machine.add_tracer(recorder)
    result = machine.run("main", [n])
    return result, machine, recorder


def _workload_args(rng: random.Random) -> List[int]:
    return [rng.randint(0, 40), rng.randint(41, 400)]


# -- oracle 1: reference interpreter vs the fast tier -----------------------


def oracle_interp(spec, rng: random.Random) -> Optional[str]:
    source = _source_of(spec)
    for n in _workload_args(rng):
        ref_module = compile_minic(source)
        fast_module = compile_minic(source)
        ref_result, ref_machine, ref_trace = _run(ref_module, n, fast=False)
        fast_result, fast_machine, fast_trace = _run(fast_module, n, fast=True)
        if ref_result != fast_result:
            return (
                f"n={n}: result mismatch "
                f"(reference {ref_result!r}, compiled {fast_result!r})"
            )
        if ref_machine.executed != fast_machine.executed:
            return (
                f"n={n}: fuel accounting mismatch "
                f"(reference executed {ref_machine.executed}, "
                f"compiled {fast_machine.executed})"
            )
        if ref_machine.memory != fast_machine.memory:
            return f"n={n}: final memory image differs"
        if ref_machine.symbols != fast_machine.symbols:
            return f"n={n}: global symbol layout differs"
        if ref_trace.events != fast_trace.events:
            for index, (a, b) in enumerate(
                zip(ref_trace.events, fast_trace.events)
            ):
                if a != b:
                    return (
                        f"n={n}: trace diverges at event {index}: "
                        f"reference {a!r} vs compiled {b!r}"
                    )
            return (
                f"n={n}: trace length differs "
                f"({len(ref_trace.events)} vs {len(fast_trace.events)})"
            )
    return None


# -- static analysis shared by the cost and partition oracles ---------------


def _analyzable_loops(source: str):
    """(module, func, loop, depgraph) for every transformable loop."""
    module = compile_minic(source)
    for name in sorted(module.functions):
        func = module.functions[name]
        build_ssa(func)
        optimize(func)
    for name in sorted(module.functions):
        func = module.functions[name]
        cfg = CFG.build(func)
        nest = LoopNest.build(func)
        for loop in nest.loops:
            try:
                check_transformable(func, loop, cfg)
            except TransformError:
                continue
            graph = build_dep_graph(module, func, loop)
            yield module, func, loop, graph


# -- oracle 2: full vs incremental cost propagation -------------------------


def oracle_cost(spec, rng: random.Random) -> Optional[str]:
    for _module, func, loop, graph in _analyzable_loops(_source_of(spec)):
        candidates = find_violation_candidates(graph)
        if not candidates:
            continue
        cg = build_cost_graph(graph, candidates)
        full = CostEvaluator(cg)
        incremental = IncrementalCostEvaluator(cg)
        keys = [vc.instr for vc in candidates]
        prefork: Set = set()
        for step in range(40):
            toggled = rng.choice(keys)
            if toggled in prefork:
                prefork.discard(toggled)
            else:
                prefork.add(toggled)
            reference = full.cost(prefork)
            fast = incremental.cost(prefork)
            if reference != fast:
                return (
                    f"{func.name}:{loop.header} step {step}: cost "
                    f"{reference!r} (full) != {fast!r} (incremental), "
                    f"|prefork|={len(prefork)}"
                )
            if step % 8 == 0:
                expected = reexecution_probabilities(cg, prefork)
                actual = incremental.probabilities(prefork)
                if expected != actual:
                    return (
                        f"{func.name}:{loop.header} step {step}: "
                        f"re-execution probability vectors differ"
                    )
    return None


# -- oracle 3: branch-and-bound vs brute force ------------------------------

#: Loops with more searchable VCs than this are left to the b&b-only
#: path (2^n brute force would dominate the campaign).
MAX_BRUTE_FORCE_VCS = 8


def oracle_partition(spec, rng: random.Random) -> Optional[str]:
    config = SptConfig()
    for _module, func, loop, graph in _analyzable_loops(_source_of(spec)):
        candidates = find_violation_candidates(graph)
        if not candidates:
            continue
        forced = {
            vc.instr
            for vc in candidates
            if graph.info[vc.instr].block == loop.header
        }
        searchable = [vc for vc in candidates if vc.instr not in forced]
        if len(searchable) > MAX_BRUTE_FORCE_VCS:
            continue
        where = f"{func.name}:{loop.header}"
        result = find_optimal_partition(graph, config)
        if result.skipped_too_many_vcs:
            continue
        exhaustive = brute_force_partition(graph, config)
        if exhaustive is None:
            continue
        if not (abs(result.cost - exhaustive.cost) <= 1e-9):
            return (
                f"{where}: branch-and-bound cost {result.cost!r} != "
                f"brute-force optimum {exhaustive.cost!r}"
            )
        # Legality of the reported partition.
        vcdep = VCDepGraph(graph, searchable)
        index_of = {id(vc.instr): i for i, vc in enumerate(vcdep.candidates)}
        selected = set()
        for vc in result.prefork_vcs:
            index = index_of.get(id(vc.instr))
            if index is None:
                return f"{where}: pre-fork VC not among searchable candidates"
            selected.add(index)
        if not vcdep.downward_closed(selected):
            return f"{where}: reported partition is not downward-closed"
        threshold = config.prefork_size_threshold(result.body_size)
        if selected and result.prefork_size > threshold + 1e-9:
            return (
                f"{where}: pre-fork size {result.prefork_size} exceeds "
                f"threshold {threshold}"
            )
        # The reported cost must recompute from scratch.
        cg = build_cost_graph(graph, candidates)
        keys = {vc.instr for vc in result.prefork_vcs} | forced
        recomputed = CostEvaluator(cg).cost(keys)
        if not (abs(recomputed - result.cost) <= 1e-12):
            return (
                f"{where}: reported cost {result.cost!r} does not match "
                f"recomputation {recomputed!r}"
            )
    return None


# -- oracle 4: sequential vs SPT-simulated execution ------------------------


def _independent_replay(main_trace, spec_trace) -> Tuple[float, int]:
    """Clean-room reimplementation of the misspeculation replay rule.

    A speculative op re-executes iff it observes a value the main thread
    changes after the fork (register or memory, and only if the final
    value actually differs from the at-fork value -- silent re-stores do
    not violate), or any of its inputs was produced by an op that itself
    re-executed.  Structured as a value-state map rather than
    taint/clean sets so a bug in one formulation cannot hide in both.
    """
    # What the main thread's post-fork region leaves behind:
    # location -> (value at fork time, final value).
    changed_regs: Dict[str, Tuple] = {}
    changed_addrs: Dict[int, Tuple] = {}
    for op in main_trace.ops:
        if op.pre_fork:
            continue
        if op.def_name is not None:
            first = changed_regs.get(op.def_name)
            if first is None:
                changed_regs[op.def_name] = (op.def_old, op.def_new)
            else:
                changed_regs[op.def_name] = (first[0], op.def_new)
        writes = dict(op.mem_writes or {})
        if op.store_addr is not None:
            writes[op.store_addr] = (op.store_old, op.store_new)
        for addr, (old, new) in writes.items():
            first = changed_addrs.get(addr)
            if first is None:
                changed_addrs[addr] = (old, new)
            else:
                changed_addrs[addr] = (first[0], new)

    stale_regs = {
        name for name, (old, new) in changed_regs.items() if old != new
    }
    stale_addrs = {
        addr for addr, (old, new) in changed_addrs.items() if old != new
    }

    # Replay: per-location state, "ok" once locally (re)defined cleanly.
    reg_state: Dict[str, str] = {}
    addr_state: Dict[int, str] = {}
    ticks = 0
    count = 0
    for op in spec_trace.ops:
        reads_regs = list(op.uses)
        reads_addrs = list(op.mem_reads or ())
        if op.load_addr is not None:
            reads_addrs.append(op.load_addr)
        bad = False
        for name in reads_regs:
            state = reg_state.get(name)
            if state == "bad" or (state is None and name in stale_regs):
                bad = True
        for addr in reads_addrs:
            state = addr_state.get(addr)
            if state == "bad" or (state is None and addr in stale_addrs):
                bad = True
        if bad:
            ticks += op.ticks
            count += 1
        verdict = "bad" if bad else "ok"
        if op.def_name is not None:
            reg_state[op.def_name] = verdict
        if op.store_addr is not None:
            addr_state[op.store_addr] = verdict
        for addr in op.mem_writes or ():
            addr_state[addr] = verdict
    return ticks, count


def _eager_config() -> SptConfig:
    return SptConfig(
        prefork_fraction=0.95,
        cost_fraction=0.9,
        min_body_size=2,
        selection_margin=2.0,
    )


def _stress_transform(module) -> List[Tuple[str, str, int]]:
    """Apply the SPT transform with a deliberately *empty* pre-fork
    region to every transformable loop that has violation candidates.

    The optimal partition usually hoists every violation source
    pre-fork, so speculation on well-partitioned loops rarely misses;
    this worst-case partition forces real misspeculation and rollback
    into the traces the oracle checks.  Returns (func_name, header,
    loop_id) for every transformed loop.
    """
    for name in sorted(module.functions):
        func = module.functions[name]
        build_ssa(func)
        optimize(func)
    transformed: List[Tuple[str, str, int]] = []
    for name in sorted(module.functions):
        func = module.functions[name]
        nest = LoopNest.build(func)
        taken: Set[str] = set()
        for loop in nest.loops:
            if loop.body & taken:
                continue  # no nested SPT loops, like the real pipeline
            cfg = CFG.build(func)
            try:
                check_transformable(func, loop, cfg)
            except TransformError:
                continue
            graph = build_dep_graph(module, func, loop)
            candidates = find_violation_candidates(graph)
            if not candidates:
                continue
            partition = PartitionResult(
                loop,
                candidates,
                prefork_vcs=[],
                prefork_stmts=set(),
                cost=0.0,
                prefork_size=0.0,
                body_size=loop.body_size(func),
                search_nodes=0,
            )
            try:
                info = transform_loop(module, func, loop, partition, graph)
            except TransformError:
                continue
            taken |= loop.body
            transformed.append((name, loop.header, info.loop_id))
    return transformed


def oracle_spt(spec, rng: random.Random) -> Optional[str]:
    source = _source_of(spec)
    train, n = _workload_args(rng)

    seq_module = compile_minic(source)
    seq_machine = Machine(seq_module, fuel=FUEL)
    seq_result = seq_machine.run("main", [n])

    # Arm 1: the real pipeline with an eager selection config -- checks
    # the end-to-end transform plus traces of well-partitioned loops.
    spt_module = compile_minic(source)
    compiled = compile_spt(
        spt_module, _eager_config(), Workload(args=(train,))
    )
    detail = _check_spt_equivalence(
        seq_machine, seq_result, spt_module, spt_loop_sites(compiled), n,
        arm="pipeline",
    )
    if detail is not None:
        return detail

    # Arm 2: worst-case empty-prefork partitions, so misspeculation and
    # rollback actually happen in the traces being cross-checked.
    stress_module = compile_minic(source)
    stress_loops = _stress_transform(stress_module)
    return _check_spt_equivalence(
        seq_machine, seq_result, stress_module, stress_loops, n, arm="stress"
    )


class RetainingCollector(SptTraceCollector):
    """An SPT collector that also keeps every iteration it folds, one
    list per loop invocation, in the grouping the rounds pair them in.

    The library folds each round as it completes and drops its
    iterations; checkers that replay rounds clean-room keep them here.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.invocations: List[List[IterationTrace]] = []

    def _start_invocation(self) -> None:
        super()._start_invocation()
        self.invocations.append([])

    def _finish_invocation(self) -> None:
        super()._finish_invocation()
        if self.invocations and not self.invocations[-1]:
            self.invocations.pop()

    def _complete(self, trace: IterationTrace) -> None:
        super()._complete(trace)
        if not self.invocations:
            self.invocations.append([])
        self.invocations[-1].append(trace)


def _check_rounds(
    collector: RetainingCollector, stats: SptLoopStats, where: str
) -> Optional[str]:
    """Replay every round of ``collector``'s retained iterations: the
    library's misspeculation replay must match the independent one, and
    the streamed ``stats`` must equal the sum over the rounds."""
    def ticks(trace, pre_fork=None) -> int:
        return sum(
            op.ticks for op in trace.ops
            if pre_fork is None or op.pre_fork == pre_fork
        )

    expected = SptLoopStats(collector.func_name, collector.header)
    for iterations in collector.invocations:
        expected.invocations += 1
        for trace in iterations:
            expected.iterations += 1
            expected.seq_ticks += ticks(trace)
            expected.total_ops += len(trace.ops)
            expected.prefork_ticks += ticks(trace, pre_fork=True)
        for index in range(0, len(iterations), 2):
            main_trace = iterations[index]
            if index + 1 == len(iterations):
                expected.spt_ticks += ticks(main_trace) + FORK_TICKS
                continue
            spec_trace = iterations[index + 1]
            lib = _replay_speculative(
                spec_trace.rows, *_post_fork_stale(main_trace)
            )
            ours = _independent_replay(main_trace, spec_trace)
            if lib != ours:
                return (
                    f"{where}: misspeculation replay disagrees at "
                    f"round {index // 2}: library {lib!r} vs "
                    f"independent {ours!r}"
                )
            reexec_ticks, reexec_ops = ours
            expected.spt_ticks += (
                ticks(main_trace, pre_fork=True) + FORK_TICKS
                + max(ticks(main_trace, pre_fork=False), ticks(spec_trace))
                + COMMIT_TICKS + reexec_ticks
            )
            expected.spec_ops += len(spec_trace.ops)
            expected.spec_ticks += ticks(spec_trace)
            expected.reexec_ops += reexec_ops
            expected.reexec_ticks += reexec_ticks
    if stats != expected:
        return (
            f"{where}: streamed totals {vars(stats)} != sum over "
            f"rounds {vars(expected)}"
        )
    return None


def _check_spt_equivalence(
    seq_machine, seq_result, spt_module, loops, n: int, arm: str
) -> Optional[str]:
    spt_machine, accounting, collectors = build_simulation(
        spt_module, loops, fuel=FUEL, fast=False,
        collector_type=RetainingCollector,
    )
    spt_result = spt_machine.run("main", [n])

    if spt_result != seq_result:
        return (
            f"[{arm}] n={n}: transformed module result {spt_result!r} != "
            f"sequential result {seq_result!r}"
        )
    if spt_machine.memory != seq_machine.memory:
        return (
            f"[{arm}] n={n}: transformed module leaves a different "
            f"memory image"
        )

    reference = finalize_simulation(spt_result, accounting, collectors)
    for collector, stats in zip(collectors, reference.loops):
        where = f"[{arm}] {collector.func_name}:{collector.header}"
        detail = _check_rounds(collector, stats, where)
        if detail is not None:
            return detail
        if stats.reexec_ops > stats.spec_ops:
            return (
                f"{where}: re-executed more ops ({stats.reexec_ops}) than "
                f"were speculated ({stats.spec_ops})"
            )
        if stats.reexec_cycles > stats.spec_cycles + 1e-9:
            return (
                f"{where}: re-executed more cycles than were speculated"
            )
        if stats.iterations and stats.spt_cycles <= 0:
            return f"{where}: {stats.iterations} iterations but no SPT cycles"

    machine, accounting, collectors = build_simulation(
        spt_module, loops, fuel=FUEL
    )
    fast = finalize_simulation(
        run_machine(machine, "main", [n]), accounting, collectors
    )
    if fast != reference:
        return (
            f"[{arm}] n={n}: fast-tier simulation {fast!r} != "
            f"reference tier {reference!r}"
        )
    return None


ORACLES = {
    "interp": oracle_interp,
    "cost": oracle_cost,
    "partition": oracle_partition,
    "spt": oracle_spt,
}

ORACLE_NAMES = tuple(sorted(ORACLES))


def run_oracle(name: str, spec, rng: random.Random) -> Optional[str]:
    """Run one oracle; returns None on pass, a detail string on failure."""
    return ORACLES[name](spec, rng)

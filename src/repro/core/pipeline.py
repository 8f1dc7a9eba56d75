"""The two-pass SPT compilation driver (paper §3.2, Figure 4).

Pass 1 ("explore"): unroll, build SSA, profile, and for every loop of
every function -- at every nesting level -- build the annotated
dependence graph, identify violation candidates, and search the optimal
SPT partition.  Nothing is transformed yet; the result is a list of
:class:`~repro.core.selection.LoopCandidate` records.

An optional SVP round sits between the passes: loops rejected for high
misspeculation cost get their critical violation candidates value-
profiled, and predictable ones are rewritten with software value
prediction (§7.2), after which the affected loops are re-analyzed.

Pass 2 ("commit"): select the good SPT loops globally (§6.1) and apply
the SPT transformation (§6.2) to exactly those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.depgraph import (
    LoopDepGraph,
    build_dep_graph,
    expected_size,
)
from repro.analysis.loops import Loop, LoopNest
from repro.analysis.modref import ModRefSummaries
from repro.core.config import SptConfig
from repro.core.costgraph import build_cost_graph
from repro.core.partition import PartitionResult, find_optimal_partition
from repro.core.privatize import privatize
from repro.core.selection import (
    LoopCandidate,
    RejectionReason,
    category_histogram,
    select_spt_loops,
)
from repro.core.svp import SvpInfo, apply_svp, critical_candidates
from repro.core.transform import (
    SptLoopInfo,
    TransformError,
    check_transformable,
    transform_loop,
)
from repro.core.unroll import UnrollReport, unroll_function
from repro.core.violation import find_violation_candidates
from repro.ir.function import Module
from repro.obs.telemetry import NULL_TELEMETRY
from repro.profiling.compiled import make_machine
from repro.resilience.containment import run_contained
from repro.resilience.degradation import DegradationRecord, KIND_SEARCH_BUDGET
from repro.resilience.ladder import RUNG_FULL, RUNG_SKIP, ladder_rungs
from repro.profiling.dep_profile import DependenceProfile
from repro.profiling.edge_profile import EdgeProfile
from repro.profiling.interp import Machine
from repro.profiling.value_profile import ValueProfile
from repro.ssa.construct import build_ssa
from repro.ssa.optimize import optimize


@dataclass
class Workload:
    """How to run the program for profiling."""

    entry: str = "main"
    args: tuple = ()
    intrinsics: Dict[str, Callable] = field(default_factory=dict)
    fuel: int = 50_000_000


class WorkloadError(ValueError):
    """The workload does not fit the program: no such entry function,
    the wrong number of arguments, or a fault in the CLI's run of it.
    A user mistake, reported as a usage error -- never contained as a
    profiling degradation."""


def check_workload(module: Module, workload: Workload) -> None:
    """Raise :class:`WorkloadError` unless ``workload`` can call its
    entry function in ``module``."""
    func = module.functions.get(workload.entry)
    if func is None:
        raise WorkloadError(
            f"entry function {workload.entry!r} not found in the program"
        )
    if len(workload.args) != len(func.params):
        raise WorkloadError(
            f"{workload.entry} expects {len(func.params)} argument(s), "
            f"got {len(workload.args)}"
        )


class CompilationResult:
    """Everything the two-pass compilation produced."""

    def __init__(self, module: Module, config: SptConfig):
        self.module = module
        self.config = config
        #: Every loop candidate, classified.
        self.candidates: List[LoopCandidate] = []
        #: The selected (and successfully transformed) SPT loops.
        self.selected: List[LoopCandidate] = []
        self.spt_loops: List[SptLoopInfo] = []
        self.unroll_reports: Dict[str, UnrollReport] = {}
        self.svp_infos: List[SvpInfo] = []
        self.edge_profile: Optional[EdgeProfile] = None
        self.dep_profile: Optional[DependenceProfile] = None
        #: §9 future work: beneficial intra-iteration splits found for
        #: loops whose bodies exceeded the SPT size limit.
        self.region_splits: List = []
        #: (func_name, header) -> PartitionResult for the final analysis.
        self.partitions: Dict[Tuple[str, str], PartitionResult] = {}
        #: Every fault the phase firewalls contained (and every budget
        #: the anytime machinery exhausted), in pipeline order.  A
        #: non-empty list means the compilation degraded somewhere but
        #: still completed.
        self.degradations: List[DegradationRecord] = []
        #: Trace-compilation statistics of the profiling run
        #: ("func:entry" -> counters) on the fast interpreter.
        #: Deliberately NOT part of :meth:`to_dict`: the batch manifest
        #: embeds that dict, and manifests must stay byte-identical
        #: whether or not hot traces were engaged.
        self.trace_stats: Dict[str, Dict] = {}

    def category_histogram(self) -> Dict[str, int]:
        return category_histogram(self.candidates)

    def spt_loop_keys(self) -> List[Tuple[str, str]]:
        return [(c.func_name, c.loop.header) for c in self.selected]

    @staticmethod
    def candidate_dict(c: LoopCandidate) -> Dict:
        """The JSON-serializable record for one loop candidate.

        Batch manifests and result-cache entries embed it, so it must be
        deterministic: floats are rounded, all collections are emitted
        in a fixed order."""
        entry = {
            "function": c.func_name,
            "header": c.loop.header,
            "category": c.category,
            "dynamic_body_size": round(c.dynamic_body_size, 2),
            "trip_count": round(c.trip_count, 2),
            "selected": c.selected,
            "svp_applied": c.svp_applied,
        }
        if c.rejection is not None:
            entry["rejection"] = c.rejection.to_dict()
        if c.transform_error is not None:
            entry["transform_error"] = c.transform_error
        if c.degradation is not None:
            entry["degradation"] = c.degradation.to_dict()
        if c.partition is not None and not c.partition.skipped_too_many_vcs:
            entry["misspeculation_cost"] = round(c.partition.cost, 4)
            entry["prefork_size"] = round(c.partition.prefork_size, 2)
            entry["violation_candidates"] = len(c.partition.candidates)
            entry["search_nodes"] = c.partition.search_nodes
            entry["cost_evaluations"] = c.partition.evaluations
            entry["cost_cache_hit_rate"] = round(
                c.partition.cache_hit_rate, 4
            )
            entry["cost_node_visits"] = c.partition.cost_node_visits
            entry["optimal"] = c.partition.optimal
        return entry

    def to_dict(self) -> Dict:
        """A JSON-serializable summary (for tooling and the CLI)."""
        candidates = [self.candidate_dict(c) for c in self.candidates]
        return {
            "candidates": candidates,
            "selected": [
                {"function": f, "header": h} for f, h in self.spt_loop_keys()
            ],
            "categories": self.category_histogram(),
            "svp": [
                {
                    "variable": info.var_base,
                    "stride": info.stride,
                    "hit_rate": round(info.hit_rate, 4),
                }
                for info in self.svp_infos
            ],
            "region_splits": [split.to_dict() for split in self.region_splits],
            "degradations": [d.to_dict() for d in self.degradations],
            "unrolled": {
                name: report.unrolled
                for name, report in self.unroll_reports.items()
                if report.unrolled
            },
        }

    def __repr__(self) -> str:
        return (
            f"CompilationResult({len(self.selected)}/"
            f"{len(self.candidates)} loops selected)"
        )


def _profile(
    module: Module, workload: Workload, tracers, fast: bool = True,
    telemetry=NULL_TELEMETRY, watchdog=None,
) -> Dict[str, Dict]:
    """Run one profiling workload; returns the trace-compilation report
    (empty when hot traces never engaged)."""
    machine = make_machine(
        module, fuel=workload.fuel, fast=fast, telemetry=telemetry,
        watchdog=watchdog,
    )
    for name, fn in workload.intrinsics.items():
        machine.register_intrinsic(name, fn)
    for tracer in tracers:
        machine.add_tracer(tracer)
    try:
        machine.run(workload.entry, list(workload.args))
    finally:
        if fast:  # otherwise the machine lives until the cyclic GC runs
            machine.release_code()
    report = getattr(machine, "trace_report", None)
    traces = report() if report is not None else {}
    if not traces:
        return {}
    return {"executed": machine.executed, "traces": traces}


def _analyze_loop(
    module: Module,
    func,
    loop: Loop,
    config: SptConfig,
    edge_profile: EdgeProfile,
    dep_profile: Optional[DependenceProfile],
    modref: Optional[ModRefSummaries],
    telemetry=NULL_TELEMETRY,
    rung: str = RUNG_FULL,
    phase_checkpoints=None,
    prebuilt_graph: Optional[LoopDepGraph] = None,
    program_key: Optional[str] = None,
) -> Tuple[Optional[LoopCandidate], Optional[LoopDepGraph],
           Optional[DegradationRecord]]:
    """Run the pass-1 core (Figure 3) on one loop.

    Returns ``(candidate, graph, None)`` on success or
    ``(None, graph-or-None, record)`` when a phase firewall contained a
    fault -- the ladder driver decides whether to retry cheaper.

    ``prebuilt_graph`` is a dependence graph a previous (faulted) rung
    already built for this loop: the dep-graph phase is then skipped --
    sound because ladder rungs only vary search-phase knobs.
    ``phase_checkpoints`` is an optional :class:`repro.batch.cache.
    ResultCache`; when set, a completed search restores from its
    ``search`` entry under ``program_key`` and a fresh search is durably
    recorded into it."""
    with telemetry.span("analyze_loop", function=func.name, loop=loop.header):
        return _analyze_loop_inner(
            module, func, loop, config, edge_profile, dep_profile, modref,
            telemetry, rung, phase_checkpoints, prebuilt_graph, program_key,
        )


def _analyze_loop_inner(
    module: Module,
    func,
    loop: Loop,
    config: SptConfig,
    edge_profile: EdgeProfile,
    dep_profile: Optional[DependenceProfile],
    modref: Optional[ModRefSummaries],
    telemetry=NULL_TELEMETRY,
    rung: str = RUNG_FULL,
    phase_checkpoints=None,
    prebuilt_graph: Optional[LoopDepGraph] = None,
    program_key: Optional[str] = None,
) -> Tuple[Optional[LoopCandidate], Optional[LoopDepGraph],
           Optional[DegradationRecord]]:
    loop_key = f"{func.name}:{loop.header}"
    rung_label = None if rung == RUNG_FULL else rung

    # -- dep-graph phase (firewalled): CFG, trip counts, the
    # transformability check, and the annotated dependence graph.
    def _build(watchdog):
        cfg = CFG.build(func)
        trip = edge_profile.trip_count(func, loop, cfg)
        iterations = edge_profile.loop_iterations(func, loop, cfg)
        if prebuilt_graph is not None:
            # A previous rung already built (and transformability-
            # checked) this loop's graph; only the trip statistics are
            # recomputed.
            return prebuilt_graph, trip, iterations, None
        try:
            check_transformable(func, loop, cfg)
        except TransformError as exc:
            # An untransformable loop is an expected §6.1 category, not
            # a fault -- report it as data, don't let the firewall
            # degrade it.
            return None, trip, iterations, str(exc)
        dep_view = dep_profile.view(func.name, loop) if dep_profile else None
        graph = build_dep_graph(
            module,
            func,
            loop,
            edge_profile=edge_profile,
            dep_profile=dep_view,
            static_mem_prob=config.static_mem_prob,
            static_call_prob=config.static_call_prob,
            modref=modref,
        )
        if config.enable_privatization:
            privatize(graph)
        return graph, trip, iterations, None

    built, record = run_contained(
        "depgraph", _build, telemetry=telemetry,
        deadline_ms=config.phase_deadline_ms, loop=loop_key, rung=rung,
    )
    if record is not None:
        return None, None, record
    graph, trip, iterations, transform_error = built
    if graph is None:
        candidate = LoopCandidate(
            func.name,
            loop,
            partition=None,
            dynamic_body_size=loop.body_size(func),
            trip_count=trip,
            total_iterations=iterations,
            irregular=True,
        )
        candidate.transform_error = transform_error
        if telemetry.enabled:
            telemetry.count("pipeline.loops_irregular")
            telemetry.event(
                "transform.rejected",
                function=func.name,
                loop=loop.header,
                stage="check_transformable",
                error=transform_error,
            )
        return candidate, None, None

    # -- cost-graph + partition-search phase (firewalled) ----------------
    def _search(watchdog):
        dynamic_size = expected_size(graph.info.values())
        if phase_checkpoints is not None:
            from repro.checkpoint.phases import load_search

            restored = load_search(
                phase_checkpoints, program_key, func, loop.header, config,
                graph,
            )
            if restored is not None:
                return dynamic_size, restored, True
        partition = find_optimal_partition(graph, config, telemetry=telemetry)
        return dynamic_size, partition, False

    searched, record = run_contained(
        "search", _search, telemetry=telemetry,
        deadline_ms=config.phase_deadline_ms, loop=loop_key, rung=rung,
    )
    if record is not None:
        return None, graph, record
    dynamic_size, partition, restored = searched
    if phase_checkpoints is not None and not restored:
        # Durably record the completed search (outside the firewall:
        # save suppresses its own failures) so a crashed/killed compile
        # resumes here instead of searching this loop again.
        from repro.checkpoint.phases import save_search

        save_search(
            phase_checkpoints, program_key, func, loop.header, config,
            graph, partition,
        )

    candidate = LoopCandidate(
        func.name,
        loop,
        partition=partition,
        dynamic_body_size=dynamic_size,
        trip_count=trip,
        total_iterations=iterations,
    )
    if partition.budget_exhausted or partition.deadline_exhausted:
        # The anytime machinery truncated the search: the partition is
        # legal but possibly sub-optimal.  Surface that as a
        # search_budget degradation without changing the candidate's
        # selection category.
        budget_record = DegradationRecord(
            phase="search",
            kind=KIND_SEARCH_BUDGET,
            message=(
                "anytime deadline expired; best-so-far partition kept"
                if partition.deadline_exhausted
                else "node budget exhausted; best-so-far partition kept"
            ),
            loop=loop_key,
            rung=rung_label,
        )
        candidate.degradation = budget_record
        telemetry.record_degradation(budget_record)
    if telemetry.enabled:
        telemetry.count("pipeline.loops_analyzed")
    return candidate, graph, None


def _analyze_loop_resilient(
    module: Module,
    func,
    loop: Loop,
    config: SptConfig,
    edge_profile: EdgeProfile,
    dep_profile: Optional[DependenceProfile],
    modref: Optional[ModRefSummaries],
    telemetry=NULL_TELEMETRY,
    phase_checkpoints=None,
    program_key: Optional[str] = None,
) -> Tuple[LoopCandidate, Optional[LoopDepGraph], List[DegradationRecord]]:
    """The degradation-ladder driver around :func:`_analyze_loop`.

    Retries a faulted loop analysis on successively cheaper rungs
    (full → no_incremental → small_budget) and finally skips the loop
    -- the sequential fallback the SPT model guarantees is always
    legal.  Never raises (:data:`~repro.resilience.containment.
    PASSTHROUGH` excepted); always returns a candidate, plus every
    degradation record the attempts produced.

    Phase outputs checkpoint across rungs: a dependence graph built by
    a rung whose *search* then faulted is handed to the next rung
    instead of being rebuilt, and (with ``phase_checkpoints``) a
    completed search is durably recorded so a crashed process resumes
    past it."""
    loop_key = f"{func.name}:{loop.header}"
    records: List[DegradationRecord] = []
    built_graph: Optional[LoopDepGraph] = None
    for rung, rung_config in ladder_rungs(config):
        candidate, graph, record = _analyze_loop(
            module, func, loop, rung_config, edge_profile, dep_profile,
            modref, telemetry, rung=rung,
            phase_checkpoints=phase_checkpoints, prebuilt_graph=built_graph,
            program_key=program_key,
        )
        if graph is not None and built_graph is None:
            built_graph = graph
            if record is not None and telemetry.enabled:
                telemetry.count("resilience.ladder.graph_reused")
        if record is None:
            if candidate.degradation is not None:
                records.append(candidate.degradation)
            elif rung != RUNG_FULL:
                candidate.degradation = records[-1] if records else None
            if rung != RUNG_FULL and telemetry.enabled:
                telemetry.count("resilience.ladder.recovered")
                telemetry.event(
                    "resilience.ladder",
                    loop=loop_key,
                    rung=rung,
                    outcome="recovered",
                )
            return candidate, graph, records
        records.append(record)
        if telemetry.enabled:
            telemetry.count(f"resilience.ladder.{rung}")
            telemetry.event(
                "resilience.ladder",
                loop=loop_key,
                rung=rung,
                outcome="faulted",
                kind=record.kind,
            )
    # Every rung faulted: the loop stays sequential.
    if telemetry.enabled:
        telemetry.count(f"resilience.ladder.{RUNG_SKIP}")
        telemetry.event(
            "resilience.ladder", loop=loop_key, rung=RUNG_SKIP,
            outcome="skipped",
        )
    try:
        cfg = CFG.build(func)
        trip = edge_profile.trip_count(func, loop, cfg)
        iterations = edge_profile.loop_iterations(func, loop, cfg)
        body = float(loop.body_size(func))
    except Exception:  # noqa: BLE001 - last-resort fallback values
        trip, iterations, body = 0.0, 0, 0.0
    candidate = LoopCandidate(
        func.name,
        loop,
        partition=None,
        dynamic_body_size=body,
        trip_count=trip,
        total_iterations=iterations,
    )
    candidate.degradation = records[-1] if records else None
    return candidate, None, records


def compile_spt(
    module: Module, config: SptConfig, workload: Workload, telemetry=None,
    phase_checkpoints=None,
) -> CompilationResult:
    """Run the full two-pass SPT compilation on ``module`` in place.

    ``telemetry`` is an optional :class:`repro.obs.Telemetry`; every
    phase opens a span on it, each analyzed loop gets a child span, and
    the search/profiling layers below report counters.  The caller owns
    the telemetry lifecycle (``close()`` flushes the sinks).

    ``phase_checkpoints`` is an optional :class:`repro.batch.cache.
    ResultCache`: completed partition searches are durably recorded
    there as ``search`` entries keyed by this module, config and
    workload, and restored on a re-run, so a compile that crashed or
    hung mid-search resumes from its last finished phase (see
    docs/checkpointing.md).

    Raises :class:`WorkloadError` before any work when the workload
    cannot call its entry function."""
    check_workload(module, workload)
    telemetry = telemetry or NULL_TELEMETRY
    result = CompilationResult(module, config)
    program_key = None
    if phase_checkpoints is not None:
        from repro.checkpoint.phases import module_key

        program_key = module_key(module, config, workload)

    # -- loop preprocessing: unrolling (pre-SSA, §7.1) -------------------
    with telemetry.span("unroll"):
        for func in module.functions.values():
            result.unroll_reports[func.name] = unroll_function(func, config)
        if telemetry.enabled:
            telemetry.count(
                "unroll.loops_unrolled",
                sum(
                    len(r.unrolled) for r in result.unroll_reports.values()
                ),
            )

    # -- SSA construction + cleanup (our WOPT stand-in) -----------------
    with telemetry.span("ssa"):
        for func in module.functions.values():
            build_ssa(func)
            optimize(func)

    # -- profiling runs -----------------------------------------------------
    with telemetry.span(
        "profile", entry=workload.entry, fast=config.fast_interp
    ):
        edge_profile = EdgeProfile()
        tracers = [edge_profile]
        dep_profile = None
        if config.enable_dep_profiling:
            dep_profile = DependenceProfile(module)
            tracers.append(dep_profile)
        # Firewalled: a profiling fault (fuel exhaustion, interpreter
        # error, injected chaos) leaves partial profiles behind -- loops
        # the run never reached profile as never-entered, which the
        # selection criteria reject safely -- instead of aborting.
        trace_stats, record = run_contained(
            "profile",
            lambda wd: _profile(
                module, workload, tracers, fast=config.fast_interp,
                telemetry=telemetry, watchdog=wd,
            ),
            telemetry=telemetry,
            deadline_ms=config.phase_deadline_ms,
            span=False,
        )
        if record is not None:
            result.degradations.append(record)
        if trace_stats:
            result.trace_stats = trace_stats
        result.edge_profile = edge_profile
        result.dep_profile = dep_profile

    modref = ModRefSummaries(module) if config.enable_modref_summaries else None

    # -- pass 1: evaluate every nesting level of every loop ------------------
    graphs: Dict[Tuple[str, str], LoopDepGraph] = {}
    candidates: List[LoopCandidate] = []
    with telemetry.span("pass1"):
        for func in module.functions.values():
            nest = LoopNest.build(func)
            for loop in nest.loops:
                candidate, graph, records = _analyze_loop_resilient(
                    module, func, loop, config, edge_profile, dep_profile,
                    modref, telemetry, phase_checkpoints=phase_checkpoints,
                    program_key=program_key,
                )
                result.degradations.extend(records)
                candidates.append(candidate)
                if graph is not None:
                    graphs[(func.name, loop.header)] = graph

    # -- SVP round (§7.2) ------------------------------------------------------
    if config.enable_svp:
        with telemetry.span("svp"):
            # Firewalled as a whole: an SVP-round fault keeps the
            # pass-1 candidates (already legal) instead of aborting.
            svp_out, record = run_contained(
                "svp",
                lambda wd: _svp_round(
                    module,
                    config,
                    workload,
                    candidates,
                    graphs,
                    edge_profile,
                    dep_profile,
                    modref,
                    result,
                    telemetry,
                    phase_checkpoints,
                    program_key,
                ),
                telemetry=telemetry,
                deadline_ms=config.phase_deadline_ms,
                span=False,
            )
            if record is not None:
                result.degradations.append(record)
            else:
                candidates, graphs = svp_out

    result.candidates = candidates
    for candidate in candidates:
        if candidate.partition is not None:
            result.partitions[
                (candidate.func_name, candidate.loop.header)
            ] = candidate.partition

    # -- §9 future work: region splits for too-large bodies ------------------
    if config.enable_region_speculation:
        from repro.core.regions import choose_region_split
        from repro.core.selection import CATEGORY_BODY_TOO_LARGE, classify

        with telemetry.span("region_splits"):
            for candidate in candidates:
                if candidate.partition is None or candidate.irregular:
                    continue
                if classify(candidate, config) != CATEGORY_BODY_TOO_LARGE:
                    continue
                graph = graphs.get((candidate.func_name, candidate.loop.header))
                if graph is None:
                    continue
                func = module.function(candidate.func_name)
                split, record = run_contained(
                    "region_splits",
                    lambda wd, f=func, c=candidate, g=graph:
                        choose_region_split(f, c.loop, g, config),
                    telemetry=telemetry,
                    deadline_ms=config.phase_deadline_ms,
                    loop=candidate.key,
                    span=False,
                )
                if record is not None:
                    result.degradations.append(record)
                    continue
                if split is not None:
                    result.region_splits.append(split)
                    if telemetry.enabled:
                        telemetry.count("regions.splits_found")

    # -- pass 2: global selection + transformation -----------------------------
    with telemetry.span("selection"):
        selected = select_spt_loops(candidates, config)
        if telemetry.enabled:
            telemetry.count("selection.candidates", len(candidates))
            telemetry.count("selection.selected", len(selected))
            for candidate in candidates:
                if candidate.rejection is not None:
                    telemetry.event(
                        "selection.rejected",
                        function=candidate.func_name,
                        loop=candidate.loop.header,
                        category=candidate.category,
                        **candidate.rejection.to_dict(),
                    )

    with telemetry.span("transform"):
        for candidate in selected:
            func = module.function(candidate.func_name)
            graph = graphs.get((candidate.func_name, candidate.loop.header))
            # Firewalled per loop: any transform failure -- the
            # expected TransformError or anything else -- deselects
            # exactly this loop.  The loop keeps its pass-1 category
            # (the histogram still reflects the selection decision);
            # the failure itself is recorded on the candidate.
            info, record = run_contained(
                "transform",
                lambda wd, f=func, c=candidate, g=graph: transform_loop(
                    module, f, c.loop, c.partition, g
                ),
                telemetry=telemetry,
                deadline_ms=config.phase_deadline_ms,
                loop=candidate.key,
                span=False,
            )
            if record is not None:
                candidate.selected = False
                candidate.transform_error = record.message
                candidate.rejection = RejectionReason(
                    "transform_error", detail=record.message
                )
                candidate.degradation = record
                result.degradations.append(record)
                if telemetry.enabled:
                    telemetry.count("transform.failed")
                    telemetry.event(
                        "transform.rejected",
                        function=candidate.func_name,
                        loop=candidate.loop.header,
                        stage="transform_loop",
                        error=record.message,
                    )
                continue
            result.spt_loops.append(info)
            result.selected.append(candidate)
        if telemetry.enabled:
            telemetry.count("transform.loops_transformed", len(result.selected))

    return result


def _svp_round(
    module,
    config,
    workload,
    candidates,
    graphs,
    edge_profile,
    dep_profile,
    modref,
    result,
    telemetry=NULL_TELEMETRY,
    phase_checkpoints=None,
    program_key=None,
):
    """Value-profile critical VCs of high-cost loops, apply SVP, and
    re-analyze the loops that changed."""
    from repro.core.selection import CATEGORY_HIGH_COST, classify

    svp_targets = []  # (candidate, vc)
    for candidate in candidates:
        if candidate.partition is None or candidate.irregular:
            continue
        if classify(candidate, config) != CATEGORY_HIGH_COST:
            continue
        graph = graphs.get((candidate.func_name, candidate.loop.header))
        if graph is None:
            continue
        cost_graph = build_cost_graph(graph, candidate.partition.candidates)
        for vc, _contribution in critical_candidates(
            candidate.partition, cost_graph
        ):
            if vc.instr.dest is not None:
                svp_targets.append((candidate, vc))

    if not svp_targets:
        return candidates, graphs

    value_profile = ValueProfile([vc.instr for _, vc in svp_targets])
    _profile(
        module, workload, [value_profile], fast=config.fast_interp,
        telemetry=telemetry,
    )

    changed_funcs = set()
    for candidate, vc in svp_targets:
        pattern = value_profile.pattern_for(vc.instr)
        if not pattern.predictable or pattern.hit_rate < config.svp_min_hit_rate:
            continue
        func = module.function(candidate.func_name)
        info = apply_svp(module, func, candidate.loop, vc, pattern)
        if info is not None:
            result.svp_infos.append(info)
            changed_funcs.add(candidate.func_name)
            if telemetry.enabled:
                telemetry.count("svp.predictions_applied")
                telemetry.event(
                    "svp.applied",
                    function=candidate.func_name,
                    loop=candidate.loop.header,
                    variable=info.var_base,
                    hit_rate=round(info.hit_rate, 4),
                )

    if not changed_funcs:
        return candidates, graphs

    # Re-analyze every loop in the functions SVP touched.
    new_candidates = []
    for candidate in candidates:
        if candidate.func_name not in changed_funcs:
            new_candidates.append(candidate)
            continue
        func = module.function(candidate.func_name)
        nest = LoopNest.build(func)
        matching = [l for l in nest.loops if l.header == candidate.loop.header]
        if not matching:
            new_candidates.append(candidate)
            continue
        refreshed, graph, records = _analyze_loop_resilient(
            module, func, matching[0], config, edge_profile, dep_profile,
            modref, telemetry, phase_checkpoints=phase_checkpoints,
            program_key=program_key,
        )
        result.degradations.extend(records)
        refreshed.svp_applied = True
        new_candidates.append(refreshed)
        if graph is not None:
            graphs[(candidate.func_name, matching[0].header)] = graph
    return new_candidates, graphs

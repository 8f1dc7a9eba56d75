"""Optimal SPT loop partitioning by branch-and-bound (paper §5.2).

The search enumerates downward-closed subsets of the VC-dep graph in
canonical order (only candidates with a larger topological number than
anything already selected may be added, so each subset is visited once)
and prunes with the two heuristics of §5.2.1:

1. a subset whose pre-fork region size already exceeds the threshold is
   not expanded (size grows monotonically along a search path);
2. the cost of the best possible offspring of a subset ``S`` at cursor
   position ``k`` is bounded below by the cost of ``S`` plus *every*
   candidate with topological number above ``k`` moved pre-fork
   (misspeculation cost decreases monotonically in the pre-fork set);
   when that bound cannot beat the incumbent, the subtree is cut.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.analysis.depgraph import LoopDepGraph
from repro.core.config import SptConfig
from repro.core.costgraph import CostGraph, build_cost_graph
from repro.core.costmodel import CostEvaluator, make_cost_evaluator
from repro.core.vcdep import VCDepGraph
from repro.core.violation import ViolationCandidate, find_violation_candidates
from repro.ir.instr import Instr
from repro.obs.telemetry import NULL_TELEMETRY
from repro.resilience.watchdog import Watchdog


class PartitionResult:
    """Outcome of the optimal-partition search for one loop."""

    def __init__(
        self,
        loop,
        candidates: List[ViolationCandidate],
        prefork_vcs: List[ViolationCandidate],
        prefork_stmts: Set[Instr],
        cost: float,
        prefork_size: float,
        body_size: float,
        search_nodes: int,
        skipped_too_many_vcs: bool = False,
        evaluations: int = 0,
        cache_hits: int = 0,
        cost_node_visits: int = 0,
        pruned_size: int = 0,
        pruned_bound: int = 0,
        budget_exhausted: bool = False,
        deadline_exhausted: bool = False,
    ):
        self.loop = loop
        self.candidates = candidates
        #: Violation candidates assigned to the pre-fork region.
        self.prefork_vcs = prefork_vcs
        #: Full statement set of the pre-fork region (legality closure).
        self.prefork_stmts = prefork_stmts
        #: Optimal misspeculation cost (§4.2.4 units).
        self.cost = cost
        #: Pre-fork region size in elementary operations.
        self.prefork_size = prefork_size
        self.body_size = body_size
        #: Number of subsets the branch-and-bound evaluated.
        self.search_nodes = search_nodes
        #: True when the loop had too many VCs and was skipped (§5.2).
        self.skipped_too_many_vcs = skipped_too_many_vcs
        #: Cost evaluations performed (evaluator cache misses).
        self.evaluations = evaluations
        #: Cost evaluations answered from the evaluator cache.
        self.cache_hits = cache_hits
        #: Cost-graph nodes visited by probability propagation.
        self.cost_node_visits = cost_node_visits
        #: Subtrees cut by pruning heuristic 1 (size monotone) / 2
        #: (cost lower bound) of §5.2.1.
        self.pruned_size = pruned_size
        self.pruned_bound = pruned_bound
        #: True when the node budget (``max_search_nodes``) actually
        #: suppressed an expansion: the result is best-so-far, not
        #: proven optimal.
        self.budget_exhausted = budget_exhausted
        #: True when the anytime deadline (``search_deadline_ms``)
        #: stopped the search early.
        self.deadline_exhausted = deadline_exhausted
        #: Per-candidate cost breakdown: (vc, in_prefork, marginal)
        #: where ``marginal`` is the cost increase of evicting a
        #: pre-fork candidate / the saving of admitting a post-fork one.
        self.vc_breakdown: List[Tuple[ViolationCandidate, bool, float]] = []

    @property
    def cost_ratio(self) -> float:
        """Misspeculation cost relative to loop body size."""
        return self.cost / self.body_size if self.body_size else float("inf")

    @property
    def cache_hit_rate(self) -> float:
        requests = self.evaluations + self.cache_hits
        return self.cache_hits / requests if requests else 0.0

    @property
    def optimal(self) -> bool:
        """True when the search ran to completion: the returned
        partition is the proven optimum, not an anytime best-so-far."""
        return not (
            self.skipped_too_many_vcs
            or self.budget_exhausted
            or self.deadline_exhausted
        )

    def to_dict(self) -> dict:
        """A JSON-serializable summary of the search outcome."""
        return {
            "cost": round(self.cost, 6) if self.cost != float("inf") else None,
            "prefork_vcs": len(self.prefork_vcs),
            "violation_candidates": len(self.candidates),
            "prefork_size": round(self.prefork_size, 2),
            "body_size": round(self.body_size, 2),
            "search_nodes": self.search_nodes,
            "skipped_too_many_vcs": self.skipped_too_many_vcs,
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "cost_node_visits": self.cost_node_visits,
            "pruned_size": self.pruned_size,
            "pruned_bound": self.pruned_bound,
            "optimal": self.optimal,
            "budget_exhausted": self.budget_exhausted,
            "deadline_exhausted": self.deadline_exhausted,
        }

    def __repr__(self) -> str:
        return (
            f"PartitionResult(cost={self.cost:.3f}, "
            f"prefork={len(self.prefork_vcs)}/{len(self.candidates)} VCs, "
            f"size={self.prefork_size:.1f}/{self.body_size:.1f})"
        )


def find_optimal_partition(
    graph: LoopDepGraph,
    config: SptConfig = None,
    candidates: List[ViolationCandidate] = None,
    cost_graph: CostGraph = None,
    use_pruning: bool = True,
    telemetry=None,
) -> PartitionResult:
    """Search the optimal SPT partition for one loop.

    ``use_pruning=False`` disables heuristic 2 (for the ablation bench;
    the canonical-order constraint and the size bound stay, as without
    them the enumeration would revisit subsets).
    """
    config = config or SptConfig()
    telemetry = telemetry or NULL_TELEMETRY
    loop = graph.loop
    body_size = loop.body_size(graph.func)

    if candidates is None:
        candidates = find_violation_candidates(graph)

    if len(candidates) > config.max_violation_candidates:
        if telemetry.enabled:
            telemetry.count("partition.skipped_too_many_vcs")
        return PartitionResult(
            loop,
            candidates,
            prefork_vcs=[],
            prefork_stmts=set(),
            cost=float("inf"),
            prefork_size=0.0,
            body_size=body_size,
            search_nodes=0,
            skipped_too_many_vcs=True,
        )

    if cost_graph is None:
        cost_graph = build_cost_graph(graph, candidates)
    evaluator = make_cost_evaluator(cost_graph, config)

    # Candidates already in the header block execute before the fork by
    # construction (the fork sits after the header); they are pre-fork
    # for free and are not searched.
    forced = {
        vc.instr
        for vc in candidates
        if graph.info[vc.instr].block == graph.loop.header
    }
    searchable = [vc for vc in candidates if vc.instr not in forced]

    vcdep = VCDepGraph(graph, searchable)
    size_threshold = config.prefork_size_threshold(body_size)

    # The search carries the evaluator's pre-fork mask next to the
    # selection: bits[i] is candidate i's bit, suffix[i] the bits of
    # candidates i and later, so a child's mask is its parent's OR one
    # bit and its lower bound ORs a suffix in.
    forced_mask = evaluator.mask_of(forced)
    bits = [evaluator.mask_of((vc.instr,)) for vc in vcdep.candidates]
    suffix = [0] * (len(bits) + 1)
    for i in reversed(range(len(bits))):
        suffix[i] = suffix[i + 1] | bits[i]

    best_cost = evaluator.cost_mask(forced_mask)
    best_set: Set[int] = set()
    best_prefork = forced_mask
    search_nodes = 1
    node_budget = config.max_search_nodes
    pruned_size = 0
    pruned_bound = 0
    budget_exhausted = False
    deadline_exhausted = False
    # Anytime protocol: the search polls this watchdog once per node
    # and keeps the incumbent (the empty pre-fork set is always a legal
    # seed, costed above) when the deadline passes.
    deadline = (
        Watchdog(deadline_ms=config.search_deadline_ms)
        if config.search_deadline_ms is not None
        else None
    )

    def search(
        selected: Set[int], cursor: int, mask: int, prefork: int
    ) -> None:
        nonlocal best_cost, best_set, best_prefork, search_nodes, \
            pruned_size, pruned_bound, budget_exhausted, deadline_exhausted
        for index in vcdep.addable(selected, cursor):
            if search_nodes >= node_budget:
                # The flag marks an actually-suppressed expansion, so a
                # search that finished with exactly budget-many nodes
                # still counts as proven optimal.
                budget_exhausted = True
                return
            if deadline_exhausted or (
                deadline is not None and deadline.expired()
            ):
                deadline_exhausted = True
                return
            # Trap against the innermost phase watchdog (if any), so a
            # containment deadline can break a runaway search too.
            Watchdog.poll_current()
            child = selected | {index}
            child_mask = mask | vcdep.masks[index]
            size = vcdep.mask_size(child_mask)
            if size > size_threshold:
                # Pruning heuristic 1: size is monotone along the path.
                pruned_size += 1
                continue
            search_nodes += 1
            child_prefork = prefork | bits[index]
            cost = evaluator.cost_mask(child_prefork)
            if cost < best_cost - 1e-12 or (
                abs(cost - best_cost) <= 1e-12 and len(child) < len(best_set)
            ):
                best_cost = cost
                best_set = set(child)
                best_prefork = child_prefork
            # Pruning heuristic 2: no offspring can improve on the cost
            # with every candidate beyond ``index`` also moved pre-fork.
            if use_pruning and evaluator.cost_mask(
                child_prefork | suffix[index + 1]
            ) >= best_cost - 1e-12:
                pruned_bound += 1
                continue
            search(child, index, child_mask, child_prefork)

    search(set(), -1, 0, forced_mask)

    prefork_vcs = [vcdep.candidates[i] for i in sorted(best_set)]
    prefork_stmts = vcdep.union_closure(best_set)
    result = PartitionResult(
        loop,
        candidates,
        prefork_vcs=prefork_vcs,
        prefork_stmts=prefork_stmts,
        cost=best_cost,
        prefork_size=vcdep.partition_size(best_set),
        body_size=body_size,
        search_nodes=search_nodes,
        evaluations=evaluator.evaluations,
        cache_hits=evaluator.cache_hits,
        cost_node_visits=evaluator.node_visits,
        pruned_size=pruned_size,
        pruned_bound=pruned_bound,
        budget_exhausted=budget_exhausted,
        deadline_exhausted=deadline_exhausted,
    )
    result.vc_breakdown = _vc_breakdown(
        candidates, best_prefork, best_cost, evaluator
    )
    if telemetry.enabled:
        telemetry.count("partition.loops_searched")
        telemetry.count("partition.search_nodes", search_nodes)
        # The search's own queries, as on the result: the breakdown's
        # attribution queries above are not search work.
        telemetry.count("partition.cost_evaluations", result.evaluations)
        telemetry.count("partition.cost_cache_hits", result.cache_hits)
        telemetry.count("partition.cost_node_visits", result.cost_node_visits)
        telemetry.count("partition.pruned_size", pruned_size)
        telemetry.count("partition.pruned_bound", pruned_bound)
        if budget_exhausted:
            telemetry.count("partition.budget_exhausted")
        if deadline_exhausted:
            telemetry.count("partition.deadline_exhausted")
    return result


def _vc_breakdown(
    candidates, best_prefork, best_cost, evaluator
) -> List[Tuple[ViolationCandidate, bool, float]]:
    """Marginal misspeculation-cost attribution per violation candidate.

    Relative to the optimal pre-fork set (``best_prefork``, an evaluator
    mask): for a pre-fork candidate the cost increase of evicting it,
    for a post-fork candidate the saving of admitting it (the legality
    closure is ignored here -- this is an attribution, not a feasibility
    statement).  The evaluator's memo makes these |VC| extra evaluations
    cheap next to the search.
    """
    if best_cost == float("inf"):
        return [(vc, False, 0.0) for vc in candidates]
    breakdown: List[Tuple[ViolationCandidate, bool, float]] = []
    for vc in candidates:
        bit = evaluator.mask_of((vc.instr,))
        in_prefork = bool(best_prefork & bit)
        if in_prefork:
            marginal = evaluator.cost_mask(best_prefork ^ bit) - best_cost
        else:
            marginal = best_cost - evaluator.cost_mask(best_prefork | bit)
        breakdown.append((vc, in_prefork, marginal))
    return breakdown


def brute_force_partition(
    graph: LoopDepGraph,
    config: SptConfig = None,
    candidates: List[ViolationCandidate] = None,
) -> Optional[PartitionResult]:
    """Exhaustive reference implementation for testing: enumerate every
    downward-closed subset within the size threshold."""
    config = config or SptConfig()
    loop = graph.loop
    body_size = loop.body_size(graph.func)
    if candidates is None:
        candidates = find_violation_candidates(graph)
    cost_graph = build_cost_graph(graph, candidates)
    evaluator = CostEvaluator(cost_graph)
    forced = {
        vc.instr
        for vc in candidates
        if graph.info[vc.instr].block == graph.loop.header
    }
    searchable = [vc for vc in candidates if vc.instr not in forced]
    vcdep = VCDepGraph(graph, searchable)
    threshold = config.prefork_size_threshold(body_size)

    n = len(vcdep)
    best_cost = float("inf")
    best_set: Set[int] = set()
    explored = 0
    for mask in range(1 << n):
        selected = {i for i in range(n) if mask & (1 << i)}
        if not vcdep.downward_closed(selected):
            continue
        if vcdep.partition_size(selected) > threshold:
            continue
        explored += 1
        cost = evaluator.cost(
            {vcdep.candidates[i].instr for i in selected} | forced
        )
        if cost < best_cost - 1e-12 or (
            abs(cost - best_cost) <= 1e-12 and len(selected) < len(best_set)
        ):
            best_cost = cost
            best_set = selected
    return PartitionResult(
        loop,
        candidates,
        prefork_vcs=[vcdep.candidates[i] for i in sorted(best_set)],
        prefork_stmts=vcdep.union_closure(best_set),
        cost=best_cost,
        prefork_size=vcdep.partition_size(best_set),
        body_size=body_size,
        search_nodes=explored,
        evaluations=evaluator.evaluations,
        cache_hits=evaluator.cache_hits,
        cost_node_visits=evaluator.node_visits,
    )

"""Misspeculation cost computation (paper §4.2.3-4.2.4).

Given a cost graph and an SPT loop partition (the set of violation
candidates placed in the pre-fork region), compute:

1. each pseudo node's initial re-execution probability: 0 when its
   candidate is pre-fork, its violation ratio otherwise;
2. each operation node's re-execution probability in topological order,
   folding predecessors under an independence assumption::

       x = 1 - (1 - x) * (1 - r * v(p))

3. the misspeculation cost ``sum v(c) * Cost(c)`` over operation nodes
   (pseudo nodes excluded).

The cost is monotonically non-increasing in the pre-fork set -- adding a
candidate to the pre-fork region can only zero one pseudo node's
probability -- which is the property the branch-and-bound partition
search exploits (§5).

Two evaluators serve the search:

* :class:`CostEvaluator` -- the reference oracle: a bounded-LRU memo
  over full-graph recomputation;
* :class:`IncrementalCostEvaluator` -- the fast path: when the search
  moves from a cached pre-fork set to a nearby one, only the nodes
  downstream of the pseudo nodes that actually changed are
  re-propagated (precomputed reachability + per-state memo).  The
  propagated probabilities are bitwise identical to a full recompute,
  so both evaluators drive the search to the same optimum.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.costgraph import CostGraph

#: Default bound on memoized entries/states per evaluator.
DEFAULT_CACHE_SIZE = 4096


class _Propagation:
    """The one full-graph propagation (steps 1-2), the one cost sum
    (step 3) and the counters every evaluator reports.

    :func:`misspeculation_cost` and :func:`reexecution_probabilities`
    run it once and both evaluators inherit it, so the incremental
    evaluator is held bit for bit to this one routine, not a copy."""

    def __init__(self, cg: CostGraph):
        self.cg = cg
        #: Number of cost computations actually performed (cache misses).
        self.evaluations = 0
        #: Number of cache hits.
        self.cache_hits = 0
        #: Cost-graph nodes visited by propagation.
        self.node_visits = 0

    @property
    def hit_rate(self) -> float:
        requests = self.evaluations + self.cache_hits
        return self.cache_hits / requests if requests else 0.0

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for telemetry and diagnostics."""
        return {
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "hit_rate": self.hit_rate,
            "node_visits": self.node_visits,
        }

    def _propagate(self, prefork: AbstractSet[Hashable]) -> Dict[object, float]:
        """Every node's re-execution probability, pseudo nodes keyed by
        their :class:`~repro.core.costgraph.PseudoNode`."""
        cg = self.cg
        v: Dict[object, float] = {}
        for key, pseudo in cg.pseudos.items():
            v[pseudo] = 0.0 if key in prefork else pseudo.violation_prob
        for node in cg.topo_nodes:
            x = 0.0
            for pred, r in cg.in_edges.get(node, ()):
                x = 1.0 - (1.0 - x) * (1.0 - r * v.get(pred, 0.0))
            v[node] = x
        self.node_visits += cg.size
        return v

    def _total(self, v: Dict) -> float:
        # Summed in one fixed (topological) order, so every evaluator's
        # cost of the same vector agrees bitwise.
        cg = self.cg
        total = 0.0
        for node in cg.topo_nodes:
            total += v[node] * cg.costs[node]
        return total

    def _rekeyed(self, v: Dict) -> Dict[Hashable, float]:
        """``v`` for external consumption: pseudo entries re-keyed as
        ``("pseudo", candidate key)``."""
        result: Dict[Hashable, float] = {}
        for node in self.cg.topo_nodes:
            result[node] = v[node]
        for key, pseudo in self.cg.pseudos.items():
            result[("pseudo", key)] = v[pseudo]
        return result


def reexecution_probabilities(
    cg: CostGraph, prefork: Iterable[Hashable]
) -> Dict[Hashable, float]:
    """Re-execution probability of every node (pseudo keys included).

    ``prefork`` holds the keys of violation candidates assigned to the
    pre-fork region.
    """
    propagation = _Propagation(cg)
    return propagation._rekeyed(propagation._propagate(set(prefork)))


def misspeculation_cost(cg: CostGraph, prefork: Iterable[Hashable]) -> float:
    """Expected re-executed computation per speculative iteration
    (§4.2.4)."""
    propagation = _Propagation(cg)
    return propagation._total(propagation._propagate(set(prefork)))


class CostEvaluator(_Propagation):
    """Memoized full-recompute misspeculation-cost evaluation.

    The branch-and-bound search evaluates many nearby partitions; the
    evaluator caches results by frozen pre-fork set.  The cache is
    LRU-bounded so large VC sets cannot grow it without limit.
    """

    def __init__(self, cg: CostGraph, max_size: int = DEFAULT_CACHE_SIZE):
        super().__init__(cg)
        self.max_size = max_size
        self._cache: "OrderedDict[FrozenSet, float]" = OrderedDict()

    def cost(self, prefork: Iterable[Hashable]) -> float:
        key = frozenset(prefork)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            self._cache.move_to_end(key)
            return cached
        self.evaluations += 1
        value = self._total(self._propagate(key))
        self._cache[key] = value
        if len(self._cache) > self.max_size:
            self._cache.popitem(last=False)
        return value


class IncrementalCostEvaluator(_Propagation):
    """Incremental misspeculation-cost evaluation over nearby subsets.

    The search's moves are tiny: a child subset adds one VC to the
    pre-fork set, and ``lower_bound`` sweeps a suffix in.  Zeroing a
    pseudo node's probability can only change nodes *downstream* of
    that pseudo, so the evaluator keeps, per cached pre-fork set, the
    full probability vector, and re-propagates only the union of the
    changed pseudos' downstream cones (precomputed per pseudo) relative
    to the nearest cached state.

    Because un-affected nodes keep their exact values and affected
    nodes are recomputed in topological order from them, every cached
    probability vector -- and therefore every returned cost -- is
    bitwise identical to :func:`misspeculation_cost` on the same set.
    """

    def __init__(self, cg: CostGraph, max_states: int = DEFAULT_CACHE_SIZE):
        super().__init__(cg)
        self.max_states = max_states
        #: frozen pre-fork set -> (probability vector, cost)
        self._states: "OrderedDict[FrozenSet, Tuple[Dict, float]]" = OrderedDict()

        #: successor adjacency: PseudoNode or node key -> [op nodes]
        self._succs: Dict[object, List[Hashable]] = {}
        for node, edges in cg.in_edges.items():
            for pred, _r in edges:
                self._succs.setdefault(pred, []).append(node)
        self._topo_index: Dict[Hashable, int] = {
            node: i for i, node in enumerate(cg.topo_nodes)
        }
        #: vc key -> topo-sorted list of operation nodes downstream of
        #: its pseudo node (computed lazily, memoized).
        self._downstream: Dict[Hashable, List[Hashable]] = {}

    # -- reachability ---------------------------------------------------

    def _downstream_of(self, vc_key: Hashable) -> List[Hashable]:
        cached = self._downstream.get(vc_key)
        if cached is not None:
            return cached
        pseudo = self.cg.pseudos[vc_key]
        seen: Set[Hashable] = set()
        stack = list(self._succs.get(pseudo, ()))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._succs.get(node, ()))
        ordered = sorted(seen, key=self._topo_index.__getitem__)
        self._downstream[vc_key] = ordered
        return ordered

    # -- state construction ---------------------------------------------

    def _incremental_state(
        self, parent: Tuple[Dict, float], parent_key: FrozenSet, key: FrozenSet
    ) -> Tuple[Dict, float]:
        """Change-driven re-propagation from ``parent``'s vector.

        A node is recomputed only when a predecessor's value actually
        changed; the frontier pops in topological order, so every
        predecessor is final by the time a node is visited.  Nodes
        whose inputs are bitwise unchanged keep bitwise-unchanged
        values, which is what makes skipping them sound.
        """
        from heapq import heappop, heappush

        cg = self.cg
        topo_nodes = cg.topo_nodes
        topo_index = self._topo_index
        v = dict(parent[0])

        heap: List[int] = []
        queued: Set[int] = set()

        def enqueue_succs(obj) -> None:
            for succ in self._succs.get(obj, ()):
                index = topo_index[succ]
                if index not in queued:
                    queued.add(index)
                    heappush(heap, index)

        for vc_key in parent_key ^ key:
            pseudo = cg.pseudos.get(vc_key)
            if pseudo is None:
                continue
            value = 0.0 if vc_key in key else pseudo.violation_prob
            if value != v[pseudo]:
                v[pseudo] = value
                enqueue_succs(pseudo)

        visits = 0
        while heap:
            node = topo_nodes[heappop(heap)]
            x = 0.0
            for pred, r in cg.in_edges.get(node, ()):
                x = 1.0 - (1.0 - x) * (1.0 - r * v.get(pred, 0.0))
            visits += 1
            if x != v[node]:
                v[node] = x
                enqueue_succs(node)
        self.node_visits += visits
        return v, self._total(v)

    # -- parent selection ------------------------------------------------

    def _estimate(self, parent_key: FrozenSet, key: FrozenSet) -> int:
        """Upper bound on nodes re-propagated from ``parent_key``."""
        total = 0
        for k in parent_key ^ key:
            if k in self.cg.pseudos:
                total += len(self._downstream_of(k))
        return total

    def _find_parent(
        self, key: FrozenSet
    ) -> Optional[Tuple[FrozenSet, Tuple[Dict, float]]]:
        states = self._states
        if not states:
            return None
        best: Optional[Tuple[int, FrozenSet]] = None

        def consider(candidate: FrozenSet) -> None:
            nonlocal best
            estimate = self._estimate(candidate, key)
            if best is None or estimate < best[0]:
                best = (estimate, candidate)

        # One-removed parents (the search's child moves), one-added
        # parents (consecutive lower_bound suffixes), and the
        # most-recently-used state (whatever the search just touched).
        for element in key:
            parent = key - {element}
            if parent in states:
                consider(parent)
        for vc_key in self.cg.pseudos:
            if vc_key not in key:
                parent = key | {vc_key}
                if parent in states:
                    consider(parent)
        consider(next(reversed(states)))
        return best[1], states[best[1]]

    # -- the public evaluation API ---------------------------------------

    def cost(self, prefork: Iterable[Hashable]) -> float:
        key = frozenset(prefork)
        state = self._states.get(key)
        if state is not None:
            self.cache_hits += 1
            self._states.move_to_end(key)
            return state[1]
        self.evaluations += 1
        parent = self._find_parent(key)
        if parent is None:
            v = self._propagate(key)
            state = v, self._total(v)
        else:
            parent_key, parent_state = parent
            state = self._incremental_state(parent_state, parent_key, key)
        self._states[key] = state
        if len(self._states) > self.max_states:
            self._states.popitem(last=False)
        return state[1]

    def probabilities(self, prefork: Iterable[Hashable]) -> Dict[Hashable, float]:
        """The re-execution probability vector behind :meth:`cost`
        (re-keyed like :func:`reexecution_probabilities`)."""
        key = frozenset(prefork)
        self.cost(key)
        return self._rekeyed(self._states[key][0])


def make_cost_evaluator(cg: CostGraph, config=None):
    """The evaluator the partition search should use under ``config``.

    Falls back to the incremental fast path when no config is given;
    ``SptConfig.incremental_cost=False`` selects the reference oracle.
    """
    if config is None:
        return IncrementalCostEvaluator(cg)
    if getattr(config, "incremental_cost", True):
        return IncrementalCostEvaluator(cg, max_states=config.cost_cache_size)
    return CostEvaluator(cg, max_size=config.cost_cache_size)

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

Both take a pre-fork set either as candidate keys (:meth:`cost`) or as
an int bitmask over the graph's pseudo nodes (:meth:`cost_mask`, what
the search carries); :meth:`mask_of` converts the one into the other.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import reduce
from heapq import heappop, heappush
from operator import add, mul
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.costgraph import CostGraph

#: Default bound on memoized entries/states per evaluator.
DEFAULT_CACHE_SIZE = 4096


class _Propagation:
    """The one full-graph propagation (steps 1-2), the one cost sum
    (step 3) and the counters every evaluator reports.

    :func:`misspeculation_cost` and :func:`reexecution_probabilities`
    run it once and both evaluators inherit it, so the incremental
    evaluator is held bit for bit to this one routine, not a copy.

    The graph is numbered once into flat vectors: slot ``i < N`` is the
    ``i``-th operation node in topological order, slot ``N + j`` the
    pseudo node of the graph's ``j``-th candidate (bit ``j`` of a
    pre-fork mask), and the last slot stays 0.0 for predecessors the
    graph does not hold."""

    def __init__(self, cg: CostGraph):
        self.cg = cg
        #: Number of cost computations actually performed (cache misses).
        self.evaluations = 0
        #: Number of cache hits.
        self.cache_hits = 0
        #: Cost-graph nodes visited by propagation.
        self.node_visits = 0

        topo = cg.topo_nodes
        slot: Dict[object, int] = {node: i for i, node in enumerate(topo)}
        for j, pseudo in enumerate(cg.pseudos.values(), len(topo)):
            slot[pseudo] = j
        unknown = len(topo) + len(cg.pseudos)
        #: per operation node: its in-edges as (predecessor slot, r)
        self._in_edges: List[List[Tuple[int, float]]] = [
            [
                (slot.get(pred, unknown), r)
                for pred, r in cg.in_edges.get(node, ())
            ]
            for node in topo
        ]
        self._costs: List[float] = [cg.costs[node] for node in topo]
        self._violation: List[float] = [
            pseudo.violation_prob for pseudo in cg.pseudos.values()
        ]
        #: candidate key -> its bit in a pre-fork mask
        self._bits: Dict[Hashable, int] = {
            key: 1 << j for j, key in enumerate(cg.pseudos)
        }

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

    def mask_of(self, prefork: Iterable[Hashable]) -> int:
        """The pre-fork mask of a set of candidate keys.  A key without
        a pseudo node gets a bit of its own above the graph's, so it
        keys its own states as a set element would, but moves no
        probability."""
        bits = self._bits
        mask = 0
        for key in prefork:
            bit = bits.get(key)
            if bit is None:
                bit = bits[key] = 1 << len(bits)
            mask |= bit
        return mask

    def cost(self, prefork: Iterable[Hashable]) -> float:
        """The misspeculation cost of a set of pre-fork candidate keys."""
        return self.cost_mask(self.mask_of(prefork))

    def cost_mask(self, mask: int) -> float:
        """The misspeculation cost of a pre-fork mask (see
        :meth:`mask_of`); each evaluator memoizes it its own way."""
        raise NotImplementedError

    def _propagate(self, mask: int) -> List[float]:
        """Every slot's re-execution probability under ``mask``."""
        v = [0.0] * len(self._costs)
        v.extend(
            0.0 if mask >> j & 1 else prob
            for j, prob in enumerate(self._violation)
        )
        v.append(0.0)
        for i, edges in enumerate(self._in_edges):
            x = 0.0
            for pred, r in edges:
                x = 1.0 - (1.0 - x) * (1.0 - r * v[pred])
            v[i] = x
        self.node_visits += len(self._costs)
        return v

    def _total(self, v: List[float]) -> float:
        # A left fold in topological order, so every evaluator's cost of
        # the same vector agrees bitwise.  Never builtin sum(): from
        # Python 3.12 on it compensates float rounding, so its result
        # would differ from this fold and from earlier Pythons.
        return reduce(add, map(mul, v, self._costs), 0.0)

    def _rekeyed(self, v: List[float]) -> Dict[Hashable, float]:
        """``v`` for external consumption: operation nodes under their
        own keys, pseudo entries as ``("pseudo", candidate key)``."""
        result: Dict[Hashable, float] = dict(zip(self.cg.topo_nodes, v))
        for j, key in enumerate(self.cg.pseudos, len(self._costs)):
            result[("pseudo", key)] = v[j]
        return result


def reexecution_probabilities(
    cg: CostGraph, prefork: Iterable[Hashable]
) -> Dict[Hashable, float]:
    """Re-execution probability of every node (pseudo keys included).

    ``prefork`` holds the keys of violation candidates assigned to the
    pre-fork region.
    """
    propagation = _Propagation(cg)
    return propagation._rekeyed(
        propagation._propagate(propagation.mask_of(prefork))
    )


def misspeculation_cost(cg: CostGraph, prefork: Iterable[Hashable]) -> float:
    """Expected re-executed computation per speculative iteration
    (§4.2.4)."""
    propagation = _Propagation(cg)
    return propagation._total(
        propagation._propagate(propagation.mask_of(prefork))
    )


class CostEvaluator(_Propagation):
    """Memoized full-recompute misspeculation-cost evaluation.

    The branch-and-bound search evaluates many nearby partitions; the
    evaluator caches results by pre-fork mask.  The cache is
    LRU-bounded so large VC sets cannot grow it without limit.
    """

    def __init__(self, cg: CostGraph, max_size: int = DEFAULT_CACHE_SIZE):
        super().__init__(cg)
        self.max_size = max_size
        self._cache: "OrderedDict[int, float]" = OrderedDict()

    def cost_mask(self, mask: int) -> float:
        cached = self._cache.get(mask)
        if cached is not None:
            self.cache_hits += 1
            self._cache.move_to_end(mask)
            return cached
        self.evaluations += 1
        value = self._total(self._propagate(mask))
        self._cache[mask] = value
        if len(self._cache) > self.max_size:
            self._cache.popitem(last=False)
        return value


class IncrementalCostEvaluator(_Propagation):
    """Incremental misspeculation-cost evaluation over nearby subsets.

    The search's moves are tiny: a child subset adds one VC to the
    pre-fork set, and the lower bound sweeps a suffix in.  Zeroing a
    pseudo node's probability can only change nodes *downstream* of
    that pseudo, so the evaluator keeps, per cached pre-fork mask, the
    flat probability vector and its cost, and re-propagates from the
    nearest cached state only where a changed pseudo's value actually
    moves something.

    The nearest state is found by a probe over parents one candidate
    away, walked in a fixed order: by the size of the changed pseudo's
    downstream cone, then one-removed before one-added, then by
    candidate order; the first parent present wins.  The most recently
    used state is considered last and wins only when its estimate (the
    summed cones of every pseudo it differs in) is strictly smaller.

    Because un-affected nodes keep their exact values and affected
    nodes are recomputed in topological order from them, every cached
    probability vector -- and therefore every returned cost -- is
    bitwise identical to :func:`misspeculation_cost` on the same set.
    """

    def __init__(self, cg: CostGraph, max_states: int = DEFAULT_CACHE_SIZE):
        super().__init__(cg)
        self.max_states = max_states
        #: pre-fork mask -> (probability vector, cost)
        self._states: "OrderedDict[int, Tuple[List[float], float]]" = (
            OrderedDict()
        )
        n = len(self._costs)
        pseudos = len(self._violation)
        self._pseudo_mask = (1 << pseudos) - 1
        #: slot -> the operation-node slots it feeds
        self._succs: List[List[int]] = [[] for _ in range(n + pseudos + 1)]
        for i, edges in enumerate(self._in_edges):
            for pred, _r in edges:
                self._succs[pred].append(i)
        #: per pseudo: the number of operation nodes downstream of it
        self._cones = [self._cone_size(n + j) for j in range(pseudos)]
        self._probe = self._probe_order()

    def _cone_size(self, slot: int) -> int:
        succs = self._succs
        seen: Set[int] = set()
        stack = list(succs[slot])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(succs[node])
        return len(seen)

    def _probe_order(self) -> List[Tuple[int, Tuple, Tuple]]:
        """``(cone size, removable bits, addable bits)`` groups by
        ascending cone size, bits in candidate order.  Bits without a
        pseudo node have an empty cone and are only ever removed."""
        groups: Dict[int, List[int]] = {}
        for j, cone in enumerate(self._cones):
            groups.setdefault(cone, []).append(1 << j)
        extra = [
            bit for bit in self._bits.values() if not bit & self._pseudo_mask
        ]
        if extra:
            groups.setdefault(0, [])
        return [
            (cone, tuple(bits + extra) if cone == 0 else tuple(bits),
             tuple(bits))
            for cone, bits in sorted(groups.items())
        ]

    def mask_of(self, prefork: Iterable[Hashable]) -> int:
        # A key without a pseudo node joins the probe as a new bit.
        known = len(self._bits)
        mask = super().mask_of(prefork)
        if len(self._bits) != known:
            self._probe = self._probe_order()
        return mask

    # -- state construction ---------------------------------------------

    def _incremental_state(
        self, parent: Tuple[List[float], float], changed: int, mask: int
    ) -> Tuple[List[float], float]:
        """Change-driven re-propagation from ``parent``'s vector.

        A node is recomputed only when a predecessor's value actually
        changed; the frontier pops in topological order, so every
        predecessor is final by the time a node is visited.  Nodes
        whose inputs are bitwise unchanged keep bitwise-unchanged
        values, which is what makes skipping them sound.
        """
        v = parent[0][:]
        succs = self._succs
        in_edges = self._in_edges
        violation = self._violation
        n = len(self._costs)

        heap: List[int] = []
        queued: Set[int] = set()

        def enqueue_succs(slot: int) -> None:
            for succ in succs[slot]:
                if succ not in queued:
                    queued.add(succ)
                    heappush(heap, succ)

        changed &= self._pseudo_mask
        while changed:
            low = changed & -changed
            changed ^= low
            j = low.bit_length() - 1
            value = 0.0 if mask & low else violation[j]
            if value != v[n + j]:
                v[n + j] = value
                enqueue_succs(n + j)

        visits = 0
        while heap:
            i = heappop(heap)
            x = 0.0
            for pred, r in in_edges[i]:
                x = 1.0 - (1.0 - x) * (1.0 - r * v[pred])
            visits += 1
            if x != v[i]:
                v[i] = x
                enqueue_succs(i)
        self.node_visits += visits
        return v, self._total(v)

    # -- parent selection ------------------------------------------------

    def _estimate(self, changed: int, bound: int) -> int:
        """Summed cones of the pseudos in ``changed`` (an upper bound on
        the nodes re-propagated), or any value >= ``bound`` once it
        reaches ``bound``."""
        cones = self._cones
        total = 0
        changed &= self._pseudo_mask
        while changed and total < bound:
            low = changed & -changed
            changed ^= low
            total += cones[low.bit_length() - 1]
        return total

    def _find_parent(self, mask: int) -> Optional[int]:
        states = self._states
        if not states:
            return None
        parent = None
        for cone, removable, addable in self._probe:
            for bit in removable:
                if mask & bit and mask ^ bit in states:
                    parent = mask ^ bit
                    break
            if parent is None:
                for bit in addable:
                    if not mask & bit and mask | bit in states:
                        parent = mask | bit
                        break
            if parent is not None:
                break
        recent = next(reversed(states))
        if parent is None or (
            recent != parent and self._estimate(recent ^ mask, cone) < cone
        ):
            return recent
        return parent

    # -- the public evaluation API ---------------------------------------

    def cost_mask(self, mask: int) -> float:
        states = self._states
        state = states.get(mask)
        if state is not None:
            self.cache_hits += 1
            states.move_to_end(mask)
            return state[1]
        self.evaluations += 1
        parent = self._find_parent(mask)
        if parent is None:
            v = self._propagate(mask)
            state = v, self._total(v)
        else:
            state = self._incremental_state(
                states[parent], parent ^ mask, mask
            )
        states[mask] = state
        if len(states) > self.max_states:
            states.popitem(last=False)
        return state[1]

    def probabilities(self, prefork: Iterable[Hashable]) -> Dict[Hashable, float]:
        """The re-execution probability vector behind :meth:`cost`
        (re-keyed like :func:`reexecution_probabilities`)."""
        mask = self.mask_of(prefork)
        self.cost_mask(mask)
        return self._rekeyed(self._states[mask][0])


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

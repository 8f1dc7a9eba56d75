"""Cost-graph construction (paper §4.2.2).

The cost graph models how a misspeculation propagates re-execution
through one speculative iteration:

* one **pseudo node** per violation candidate (the paper's D', E', F'),
  whose re-execution probability is initialized by the partition (0 when
  the candidate sits in the pre-fork region, its violation ratio
  otherwise);
* **operation nodes** -- every statement reachable from a pseudo node
  through its cross-iteration edges followed by intra-iteration true
  dependences, plus the violation-candidate statements themselves;
* each edge carries ``r``, the conditional probability that re-execution
  of the source misspeculates the destination.

The graph is a DAG: pseudo nodes are roots and intra-iteration true
dependences always point forward in the iteration's topological order.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.analysis.depgraph import LoopDepGraph
from repro.core.violation import ViolationCandidate
from repro.ir.instr import Instr


class PseudoNode:
    """The pseudo node of one violation candidate (D' in the paper)."""

    __slots__ = ("key", "violation_prob")

    def __init__(self, key: Hashable, violation_prob: float):
        self.key = key
        self.violation_prob = violation_prob

    def __repr__(self) -> str:
        return f"Pseudo({self.key!r}, {self.violation_prob:.2f})"


class CostGraph:
    """A DAG of pseudo nodes and operation nodes with edge probabilities.

    Node keys are arbitrary hashables: IR instructions in production,
    plain strings in tests reproducing the paper's worked example.
    """

    def __init__(self):
        #: vc key -> PseudoNode
        self.pseudos: Dict[Hashable, PseudoNode] = {}
        #: operation nodes in topological order
        self.topo_nodes: List[Hashable] = []
        self._node_set: set = set()
        #: node key -> list of (pred, r) where pred is a PseudoNode or a key
        self.in_edges: Dict[Hashable, List[Tuple[object, float]]] = {}
        #: node key -> computation amount (Cost(c) in §4.2.4)
        self.costs: Dict[Hashable, float] = {}

    # -- construction API ---------------------------------------------------

    def add_pseudo(self, key: Hashable, violation_prob: float) -> PseudoNode:
        pseudo = PseudoNode(key, violation_prob)
        self.pseudos[key] = pseudo
        return pseudo

    def add_node(self, key: Hashable, cost: float) -> None:
        """Append an operation node; call in topological order."""
        if key in self._node_set:
            return
        self._node_set.add(key)
        self.topo_nodes.append(key)
        self.costs[key] = cost

    def has_node(self, key: Hashable) -> bool:
        return key in self._node_set

    def add_edge_from_pseudo(self, vc_key: Hashable, dst: Hashable, r: float) -> None:
        self.in_edges.setdefault(dst, []).append((self.pseudos[vc_key], r))

    def add_edge(self, src: Hashable, dst: Hashable, r: float) -> None:
        self.in_edges.setdefault(dst, []).append((src, r))

    @property
    def size(self) -> int:
        return len(self.topo_nodes)


def build_cost_graph(
    graph: LoopDepGraph, candidates: List[ViolationCandidate]
) -> CostGraph:
    """Build the cost graph of a loop from its dependence graph.

    Starts with the violation candidates' pseudo nodes and cross-
    iteration edges, then closes over intra-iteration true dependences
    (§4.2.2: "nodes ... reached by the dependence edges and their
    intra-iteration dependence edges are added to the cost graph
    recursively").
    """
    cg = CostGraph()
    for vc in candidates:
        cg.add_pseudo(vc.instr, vc.violation_prob)

    # Collect the reachable node set first (worklist over intra true
    # successors), then materialize in global topological order.
    reached: Dict[int, Instr] = {}
    worklist: List[Instr] = []

    def reach_node(instr: Instr) -> None:
        if id(instr) not in reached:
            reached[id(instr)] = instr
            worklist.append(instr)

    for vc in candidates:
        reach_node(vc.instr)  # VC statements appear as ordinary nodes too
        for reader, _ in vc.readers:
            reach_node(reader)

    while worklist:
        instr = worklist.pop()
        for edge in graph.intra_succs(instr, kinds=("true",)):
            reach_node(edge.dst)

    ordered = sorted(reached.values(), key=graph.order)
    for instr in ordered:
        cg.add_node(instr, instr.cost)

    # Pseudo edges: violation candidate -> its cross-iteration readers.
    for vc in candidates:
        for reader, prob in vc.readers:
            if cg.has_node(reader):
                cg.add_edge_from_pseudo(vc.instr, reader, prob)

    # Intra-iteration propagation edges among reached nodes.
    for instr in ordered:
        for edge in graph.intra_succs(instr, kinds=("true",)):
            if cg.has_node(edge.dst):
                cg.add_edge(instr, edge.dst, edge.prob)

    return cg

"""Intra-iteration region speculation (the paper's §9 future work).

The paper notes that loops rejected for *too-large bodies* "can be
handled if we generalize our work to perform speculative
parallelization for general code regions.  For example, a speculative
thread may be forked for a section of the loop body within the same
iteration."

This module implements that generalization for loop bodies: the body is
split at a *spine block* S (a block on the dominator chain from the
header to the latch, so every iteration passes through it) into a
prefix region A and a suffix region B.  Each iteration, the main core
runs A while the speculative core runs B against the iteration-start
context; at the join, B's operations that consumed values A redefined
are re-executed.

The misspeculation cost machinery is reused wholesale: the "violation
candidates" are A-resident definitions feeding B through
*intra-iteration* true dependences (instead of cross-iteration ones),
and the same topological probability propagation prices each candidate
split.  The best split balances |t(A) - t(B)| (overlap) against the
re-execution cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.depgraph import LoopDepGraph, expected_size
from repro.analysis.dominators import DominatorTree
from repro.analysis.loops import Loop
from repro.core.config import SptConfig
from repro.core.costgraph import CostGraph
from repro.core.costmodel import misspeculation_cost
from repro.ir.function import Function
from repro.ir.instr import Phi


class RegionSplit:
    """One candidate split of a loop body into regions A and B."""

    def __init__(
        self,
        loop: Loop,
        split_label: str,
        b_labels: Set[str],
        size_a: float,
        size_b: float,
        cost: float,
        func_name: str = None,
    ):
        self.loop = loop
        #: Name of the function owning the loop (for reports).
        self.func_name = func_name
        #: First block of region B (every iteration passes through it).
        self.split_label = split_label
        #: All block labels belonging to region B.
        self.b_labels = b_labels
        #: Expected per-iteration work in each region (elementary ops).
        self.size_a = size_a
        self.size_b = size_b
        #: Expected re-executed B computation per iteration.
        self.cost = cost

    @property
    def balance(self) -> float:
        """1.0 = perfectly balanced halves, 0.0 = everything on one side."""
        total = self.size_a + self.size_b
        if total <= 0:
            return 0.0
        return 1.0 - abs(self.size_a - self.size_b) / total

    def to_dict(self) -> dict:
        """A JSON-serializable summary of the split."""
        return {
            "function": self.func_name,
            "header": self.loop.header,
            "split_label": self.split_label,
            "b_labels": sorted(self.b_labels),
            "size_a": round(self.size_a, 2),
            "size_b": round(self.size_b, 2),
            "cost": round(self.cost, 4),
            "balance": round(self.balance, 4),
        }

    def estimated_round(self, config: SptConfig) -> float:
        """Predicted cycles for one iteration under region speculation."""
        cpo = config.cycles_per_op
        overhead = config.fork_overhead_cycles + config.commit_overhead_cycles
        return (
            max(self.size_a, self.size_b) * cpo
            + self.cost * cpo
            + overhead
        )

    def estimated_benefit(self, config: SptConfig) -> float:
        """Predicted cycles saved per iteration (<= 0 means don't)."""
        sequential = (self.size_a + self.size_b) * config.cycles_per_op
        return sequential - self.estimated_round(config)

    def __repr__(self) -> str:
        return (
            f"RegionSplit(at={self.split_label}, "
            f"A={self.size_a:.0f} B={self.size_b:.0f}, cost={self.cost:.2f})"
        )


def spine_blocks(func: Function, loop: Loop, cfg: CFG = None) -> List[str]:
    """Blocks on the dominator chain from the body entry to the latch.

    Every iteration passes through each of them, so each is a legal
    region boundary.  The header itself is excluded (splitting there
    puts everything in B).
    """
    cfg = cfg or CFG.build(func)
    latches = loop.latches(cfg)
    if len(latches) != 1:
        return []
    domtree = DominatorTree.build(func, cfg=cfg)
    chain: List[str] = []
    cursor: Optional[str] = latches[0]
    while cursor is not None and cursor != loop.header:
        if cursor in loop.body:
            chain.append(cursor)
        cursor = domtree.idom.get(cursor)
    chain.reverse()
    return chain


def _region_b_labels(
    func: Function, loop: Loop, split_label: str, domtree: DominatorTree
) -> Set[str]:
    """Region B = body blocks dominated by the split block."""
    return {
        label
        for label in loop.body
        if domtree.dominates(split_label, label)
    }


def _split_cost(graph: LoopDepGraph, b_instrs: Set[int]) -> float:
    """Expected re-executed B computation when B runs against the
    iteration-start context while A executes concurrently.

    Pseudo nodes: A-resident sources of intra-iteration true edges into
    B, initialized with their reaching probability; propagation through
    B's intra-iteration true dependences."""
    cg = CostGraph()
    sources: Dict[int, float] = {}
    header = graph.loop.header
    b_nodes = [
        instr for instr in graph.nodes if id(instr) in b_instrs
    ]
    for instr in b_nodes:
        cg.add_node(instr, instr.cost)
    for instr in b_nodes:
        for edge in graph.intra_preds(instr, kinds=("true",)):
            if id(edge.src) in b_instrs:
                cg.add_edge(edge.src, instr, edge.prob)
            else:
                src_info = graph.info.get(edge.src)
                if src_info is not None and src_info.block == header:
                    # Header values (phis, the exit test) resolve before
                    # the fork: B receives them in its start context.
                    continue
                key = id(edge.src)
                if key not in sources:
                    sources[key] = graph.reach(edge.src)
                    cg.add_pseudo(edge.src, graph.reach(edge.src))
                cg.add_edge_from_pseudo(edge.src, instr, edge.prob)
    # No candidate moves pre-fork here: all pseudo nodes stay live.
    return misspeculation_cost(cg, prefork=set())


def find_region_splits(
    func: Function,
    loop: Loop,
    graph: LoopDepGraph,
    config: SptConfig,
) -> List[RegionSplit]:
    """Evaluate every spine split of the loop body, best first."""
    cfg = CFG.build(func)
    domtree = DominatorTree.build(func, cfg=cfg)
    total_size = expected_size(graph.info.values())

    splits: List[RegionSplit] = []
    for split_label in spine_blocks(func, loop, cfg):
        b_labels = _region_b_labels(func, loop, split_label, domtree)
        if not b_labels or b_labels >= loop.body - {loop.header}:
            continue
        b_instrs = {
            id(info.instr)
            for info in graph.info.values()
            if info.block in b_labels
        }
        size_b = expected_size(
            info for info in graph.info.values() if id(info.instr) in b_instrs
        )
        size_a = total_size - size_b
        if size_a <= 0 or size_b <= 0:
            continue
        cost = _split_cost(graph, b_instrs)
        splits.append(
            RegionSplit(
                loop, split_label, b_labels, size_a, size_b, cost,
                func_name=func.name,
            )
        )

    splits.sort(key=lambda s: -s.estimated_benefit(config))
    return splits


def choose_region_split(
    func: Function,
    loop: Loop,
    graph: LoopDepGraph,
    config: SptConfig,
) -> Optional[RegionSplit]:
    """The best beneficial split, or None when no split pays off."""
    splits = find_region_splits(func, loop, graph, config)
    for split in splits:
        if split.estimated_benefit(config) > 0:
            return split
    return None

"""Control-flow graph utilities over :class:`~repro.ir.function.Function`.

The IR stores control flow implicitly in block terminators; this module
derives the explicit graph plus the orderings (reverse postorder) that
the dominator and loop analyses need.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.block import Block
from repro.ir.function import Function
from repro.ir.instr import Branch, Jump

Edge = Tuple[str, str]


class CFG:
    """An explicit CFG snapshot of a function.

    The snapshot does not auto-update; rebuild after mutating control
    flow (`CFG.build(func)` is cheap).
    """

    def __init__(
        self,
        func: Function,
        succs: Dict[str, List[str]],
        preds: Dict[str, List[str]],
    ):
        self.func = func
        self.succs = succs
        self.preds = preds

    @classmethod
    def build(cls, func: Function) -> "CFG":
        succs: Dict[str, List[str]] = {blk.label: [] for blk in func.blocks}
        preds: Dict[str, List[str]] = {blk.label: [] for blk in func.blocks}
        for blk in func.blocks:
            for target in blk.successors():
                succs[blk.label].append(target)
                preds[target].append(blk.label)
        return cls(func, succs, preds)

    # -- orderings -----------------------------------------------------

    def reverse_postorder(self) -> List[str]:
        """Block labels in reverse postorder from the entry."""
        visited: Set[str] = set()
        order: List[str] = []

        def visit(label: str) -> None:
            # Iterative DFS to avoid recursion limits on long chains.
            stack: List[Tuple[str, int]] = [(label, 0)]
            visited.add(label)
            while stack:
                current, index = stack[-1]
                succs = self.succs[current]
                if index < len(succs):
                    stack[-1] = (current, index + 1)
                    nxt = succs[index]
                    if nxt not in visited:
                        visited.add(nxt)
                        stack.append((nxt, 0))
                else:
                    order.append(current)
                    stack.pop()

        visit(self.func.entry.label)
        order.reverse()
        return order

    def reachable(self) -> Set[str]:
        """Labels reachable from the entry block."""
        return set(self.reverse_postorder())

    def edges(self) -> List[Edge]:
        return [(src, dst) for src, targets in self.succs.items() for dst in targets]

    # -- edge classification --------------------------------------------

    def back_edges(self) -> List[Edge]:
        """Edges ``u -> v`` where ``v`` dominates ``u`` (natural back edges)."""
        from repro.analysis.dominators import DominatorTree

        domtree = DominatorTree.build(self.func, cfg=self)
        result = []
        for src, dst in self.edges():
            if domtree.dominates(dst, src):
                result.append((src, dst))
        return result


def split_edge(func: Function, src_label: str, dst_label: str, label_hint: str = None) -> Block:
    """Insert a fresh block on the edge ``src -> dst``.

    Updates the source terminator and the destination's phi incomings.
    Returns the new block (already terminated with a jump to ``dst``).
    """
    src = func.block(src_label)
    dst = func.block(dst_label)
    new_label = func.fresh_label(label_hint or f"{src_label}_{dst_label}")
    # Insert the new block right before the destination to keep a
    # roughly topological textual order.
    new_block = Block(new_label)
    new_block.append(Jump(dst_label))
    dst_index = func.blocks.index(dst)
    func.blocks.insert(dst_index, new_block)

    term = src.terminator
    if isinstance(term, Jump):
        if term.target != dst_label:
            raise ValueError(f"{src_label} does not jump to {dst_label}")
        term.target = new_label
    elif isinstance(term, Branch):
        hit = False
        if term.iftrue == dst_label:
            term.iftrue = new_label
            hit = True
        if term.iffalse == dst_label:
            term.iffalse = new_label
            hit = True
        if not hit:
            raise ValueError(f"{src_label} does not branch to {dst_label}")
    else:
        raise ValueError(f"{src_label} has no edge to redirect")

    for phi in dst.phis():
        if src_label in phi.incomings:
            phi.incomings[new_label] = phi.incomings.pop(src_label)
    return new_block

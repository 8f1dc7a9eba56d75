"""Dominator tree and dominance frontiers.

Implements the Cooper-Harvey-Kennedy iterative algorithm ("A Simple,
Fast Dominance Algorithm"), which is near-linear in practice and easy to
audit -- a good fit for the loop-scale functions this framework handles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.cfg import CFG
from repro.ir.function import Function


class DominatorTree:
    """Immediate dominators, dominance queries, and frontiers."""

    def __init__(self, func: Function, cfg: CFG, idom: Dict[str, Optional[str]]):
        self.func = func
        self.cfg = cfg
        #: Immediate dominator per label (entry maps to None).
        self.idom = idom
        self._depth: Dict[str, int] = {}
        self._children: Dict[str, List[str]] = {label: [] for label in idom}
        self._compute_depths()

    @classmethod
    def build(cls, func: Function, cfg: CFG = None) -> "DominatorTree":
        cfg = cfg or CFG.build(func)
        rpo = cfg.reverse_postorder()
        order_index = {label: i for i, label in enumerate(rpo)}
        entry = func.entry.label

        idom: Dict[str, Optional[str]] = {label: None for label in rpo}
        idom[entry] = entry

        def intersect(a: str, b: str) -> str:
            while a != b:
                while order_index[a] > order_index[b]:
                    a = idom[a]
                while order_index[b] > order_index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for label in rpo:
                if label == entry:
                    continue
                preds = [p for p in cfg.preds[label] if idom.get(p) is not None]
                if not preds:
                    continue
                new_idom = preds[0]
                for pred in preds[1:]:
                    new_idom = intersect(pred, new_idom)
                if idom[label] != new_idom:
                    idom[label] = new_idom
                    changed = True

        idom[entry] = None
        return cls(func, cfg, idom)

    def _compute_depths(self) -> None:
        # ``build`` fills ``idom`` in reverse postorder, where a
        # dominator always precedes the blocks it dominates: one pass
        # derives every depth from the parent's.
        depth = self._depth
        for label, parent in self.idom.items():
            if parent is None:
                depth[label] = 0
            else:
                depth[label] = depth[parent] + 1
                self._children[parent].append(label)

    # -- queries ---------------------------------------------------------

    def dominates(self, a: str, b: str) -> bool:
        """Whether block ``a`` dominates block ``b`` (reflexive).

        Only ``a`` itself dominates a label outside the tree, and such
        a label dominates only itself."""
        if a == b:
            return True
        depth_a = self._depth.get(a)
        depth_b = self._depth.get(b)
        if depth_a is None or depth_b is None or depth_a >= depth_b:
            return False
        idom = self.idom
        for _ in range(depth_b - depth_a):
            b = idom[b]
        return a == b

    def strictly_dominates(self, a: str, b: str) -> bool:
        return a != b and self.dominates(a, b)

    def children(self, label: str) -> List[str]:
        """Dominator-tree children of ``label``."""
        return list(self._children.get(label, ()))

    def depth(self, label: str) -> int:
        return self._depth[label]

    # -- frontiers ---------------------------------------------------------

    def dominance_frontiers(self) -> Dict[str, Set[str]]:
        """Dominance frontier per block (Cooper-Harvey-Kennedy)."""
        frontiers: Dict[str, Set[str]] = {label: set() for label in self.idom}
        for label in self.idom:
            preds = self.cfg.preds.get(label, [])
            if len(preds) < 2:
                continue
            for pred in preds:
                if self.idom.get(pred) is None and pred != self.func.entry.label:
                    continue  # unreachable predecessor
                runner = pred
                while runner is not None and runner != self.idom[label]:
                    frontiers[runner].add(label)
                    runner = self.idom.get(runner)
        return frontiers

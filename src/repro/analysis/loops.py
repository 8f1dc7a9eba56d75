"""Natural loop detection and the loop-nest tree.

The SPT framework works per loop: pass 1 evaluates *every* nesting level
of every loop nest as a speculative-parallelization candidate (paper
§3.2), so this module provides the full nest tree plus the per-loop
structural facts later phases need (header, latches, exits, preheader,
basic induction variables).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG, split_edge
from repro.analysis.dominators import DominatorTree
from repro.ir.block import Block
from repro.ir.function import Function
from repro.ir.instr import BinOp, Copy, Jump, Phi
from repro.ir.values import Const, Var


class Loop:
    """A natural loop: header plus the set of body blocks."""

    def __init__(self, header: str, body: Set[str]):
        self.header = header
        #: All block labels in the loop, including the header.
        self.body = body
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []
        #: Stable identifier assigned by :class:`LoopNest` (outer-first).
        self.loop_id: int = -1

    # -- structure -------------------------------------------------------

    def contains(self, label: str) -> bool:
        return label in self.body

    @property
    def depth(self) -> int:
        depth = 1
        cursor = self.parent
        while cursor is not None:
            depth += 1
            cursor = cursor.parent
        return depth

    def latches(self, cfg: CFG) -> List[str]:
        """Blocks inside the loop that branch back to the header."""
        return [p for p in cfg.preds[self.header] if p in self.body]

    def exit_edges(self, cfg: CFG) -> List[Tuple[str, str]]:
        """Edges leaving the loop (source inside, target outside)."""
        edges = []
        for label in sorted(self.body):
            for succ in cfg.succs[label]:
                if succ not in self.body:
                    edges.append((label, succ))
        return edges

    def entry_edges(self, cfg: CFG) -> List[Tuple[str, str]]:
        """Edges entering the header from outside the loop."""
        return [
            (p, self.header)
            for p in cfg.preds[self.header]
            if p not in self.body
        ]

    def blocks(self, func: Function) -> List[Block]:
        """Body blocks in function order."""
        return [blk for blk in func.blocks if blk.label in self.body]

    def body_size(self, func: Function) -> int:
        """Static loop body size in non-trivial instructions.

        This is the "loop body size" of the paper's selection criteria
        (§6.1): phis, jumps and SPT markers cost nothing.
        """
        return sum(
            instr.cost for blk in self.blocks(func) for instr in blk.instrs
        )

    def __repr__(self) -> str:
        return f"Loop(header={self.header}, blocks={len(self.body)})"


class LoopNest:
    """All natural loops of a function, arranged into a nest tree."""

    def __init__(self, func: Function, loops: List[Loop], cfg: CFG):
        self.func = func
        self.loops = loops
        self.cfg = cfg

    @classmethod
    def build(cls, func: Function) -> "LoopNest":
        cfg = CFG.build(func)
        domtree = DominatorTree.build(func, cfg=cfg)

        # Collect natural loops per header (merging multiple back edges).
        by_header: Dict[str, Set[str]] = {}
        for src, dst in cfg.edges():
            if domtree.dominates(dst, src):
                body = _natural_loop_body(cfg, src, dst)
                by_header.setdefault(dst, set()).update(body)

        loops = [Loop(header, body) for header, body in by_header.items()]

        # Nest: a loop is a child of the smallest strictly-containing loop.
        loops.sort(key=lambda lp: len(lp.body))
        for inner_index, inner in enumerate(loops):
            for outer in loops[inner_index + 1:]:
                if inner.header in outer.body and inner.body <= outer.body:
                    inner.parent = outer
                    outer.children.append(inner)
                    break

        # Deterministic outer-first ordering and ids.
        loops.sort(key=lambda lp: (lp.depth, lp.header))
        for loop_id, loop in enumerate(loops):
            loop.loop_id = loop_id
        return cls(func, loops, cfg)

    def loop_of_block(self, label: str) -> Optional[Loop]:
        """The innermost loop containing ``label``, if any."""
        best: Optional[Loop] = None
        for loop in self.loops:
            if label in loop.body:
                if best is None or len(loop.body) < len(best.body):
                    best = loop
        return best

    def innermost(self) -> List[Loop]:
        return [loop for loop in self.loops if not loop.children]


def _natural_loop_body(cfg: CFG, latch: str, header: str) -> Set[str]:
    """The natural loop of back edge ``latch -> header``."""
    body = {header, latch}
    stack = [latch]
    while stack:
        label = stack.pop()
        if label == header:
            continue
        for pred in cfg.preds[label]:
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body


def ensure_preheader(func: Function, loop: Loop) -> str:
    """Guarantee the loop has a unique preheader block; return its label.

    A preheader is the single out-of-loop predecessor of the header whose
    only successor is the header.  The SPT transformation and loop
    unrolling both need one as an insertion point.
    """
    cfg = CFG.build(func)
    entries = loop.entry_edges(cfg)
    if len(entries) == 1:
        pred_label = entries[0][0]
        pred = func.block(pred_label)
        if cfg.succs[pred_label] == [loop.header] and isinstance(
            pred.terminator, Jump
        ):
            return pred_label
    if not entries:
        raise ValueError(f"loop at {loop.header} has no entry edge")

    # Split each entry edge onto a common new preheader.
    preheader = split_edge(func, entries[0][0], loop.header, "preheader")
    header_block = func.block(loop.header)
    for src, _ in entries[1:]:
        src_block = func.block(src)
        term = src_block.terminator
        for attr in ("target", "iftrue", "iffalse"):
            if getattr(term, attr, None) == loop.header:
                setattr(term, attr, preheader.label)
        for phi in header_block.phis():
            if src in phi.incomings:
                # Multiple entries funneling through one preheader need a
                # phi there; this framework only requires single-entry
                # loops (the frontend emits them), so reject instead.
                raise ValueError(
                    f"loop at {loop.header} has multiple entries with phis"
                )
    return preheader.label


class InductionVariable:
    """A basic induction variable ``iv = phi(init, iv + step)``."""

    def __init__(self, phi: Phi, init, step, update: BinOp):
        self.phi = phi
        self.init = init
        self.step = step
        self.update = update

    @property
    def var(self) -> Var:
        return self.phi.dest

    def __repr__(self) -> str:
        return f"IV({self.var} += {self.step})"


def find_basic_induction_variables(
    func: Function, loop: Loop, cfg: CFG = None
) -> List[InductionVariable]:
    """Find ``i = phi(init, i +/- const)`` patterns in the loop header.

    These are the variables the SPT transformation most wants in the
    pre-fork region (the paper's Figure 2 example moves the induction
    update of ``i`` before the fork).
    """
    cfg = cfg or CFG.build(func)
    header = func.block(loop.header)
    latch_labels = set(loop.latches(cfg))
    defs: Dict[Var, object] = {}
    for blk in loop.blocks(func):
        for instr in blk.instrs:
            if instr.dest is not None:
                defs[instr.dest] = instr

    ivs: List[InductionVariable] = []
    for phi in header.phis():
        inits = [v for lbl, v in phi.incomings.items() if lbl not in latch_labels]
        updates = [v for lbl, v in phi.incomings.items() if lbl in latch_labels]
        if len(inits) != 1 or len(set(map(str, updates))) != 1:
            continue
        update_val = updates[0]
        if not isinstance(update_val, Var):
            continue
        update = defs.get(update_val)
        # Chase a trailing copy (SSA cleanup can leave one).
        while isinstance(update, Copy) and isinstance(update.src, Var):
            update = defs.get(update.src)
        if not isinstance(update, BinOp) or update.op not in ("add", "sub"):
            continue
        lhs, rhs = update.lhs, update.rhs
        if lhs == phi.dest and isinstance(rhs, Const):
            step = rhs.value if update.op == "add" else -rhs.value
        elif rhs == phi.dest and isinstance(lhs, Const) and update.op == "add":
            step = lhs.value
        else:
            continue
        ivs.append(InductionVariable(phi, inits[0], step, update))
    return ivs

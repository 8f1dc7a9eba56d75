"""SSA repair after code motion.

The SPT transformation physically moves statements into the pre-fork
region, which can break the SSA dominance property: a definition moved
into a conditional arm of the replicated pre-fork CFG no longer
dominates its post-fork uses (the paper hits the same issue as
overlapping live ranges, Figures 10/11, and fixes it with temporaries
followed by SSA renaming).  This module is our equivalent of that
"immediately cleaned and optimized by applying SSA renaming" step: a
per-variable SSA reconstruction in the style of LLVM's ``SSAUpdater``.

For each broken variable we insert fresh phi nodes at the iterated
dominance frontier of its definition sites and rewrite the uses to the
nearest reaching definition.  Paths on which the variable is dynamically
dead receive an explicit zero (they are never read).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.cfg import CFG
from repro.analysis.dominators import DominatorTree
from repro.ir.function import Function
from repro.ir.instr import Phi
from repro.ir.values import Const, Value, Var


def broken_variables(func: Function) -> List[Var]:
    """Registers with a *reachable* use not dominated by their definition.

    Unreachable blocks are ignored entirely: their uses can never
    execute, and dominance is undefined for them.
    """
    cfg = CFG.build(func)
    reachable = cfg.reachable()
    domtree = DominatorTree.build(func, cfg=cfg)
    # Keyed by register name (``Var`` equality is by name).
    defs: Dict[str, tuple] = {}
    for param in func.params:
        defs[param.name] = (func.entry.label, -1)
    for blk in func.blocks:
        for index, instr in enumerate(blk.instrs):
            if instr.dest is not None:
                defs[instr.dest.name] = (blk.label, index)

    broken: List[Var] = []
    seen: Set[str] = set()
    for blk in func.blocks:
        if blk.label not in reachable:
            continue
        for index, instr in enumerate(blk.instrs):
            if isinstance(instr, Phi):
                for pred_label, value in instr.incomings.items():
                    if not isinstance(value, Var):
                        continue
                    if value.name in seen or value.name not in defs:
                        continue
                    if pred_label not in reachable:
                        continue  # dead incoming path
                    def_block, def_index = defs[value.name]
                    ok = def_block == pred_label or domtree.dominates(
                        def_block, pred_label
                    )
                    if not ok:
                        seen.add(value.name)
                        broken.append(value)
            else:
                for value in instr.uses():
                    if not isinstance(value, Var) or value.name in seen:
                        continue
                    if value.name not in defs:
                        continue
                    def_block, def_index = defs[value.name]
                    if def_block == blk.label:
                        ok = def_index < index
                    else:
                        ok = domtree.dominates(def_block, blk.label)
                    if not ok:
                        seen.add(value.name)
                        broken.append(value)
    return broken


class _Updater:
    """Per-variable SSA reconstruction."""

    def __init__(self, func: Function, cfg: CFG, domtree: DominatorTree, var: Var):
        self.func = func
        self.cfg = cfg
        self.domtree = domtree
        self.var = var
        #: value available at the *end* of each block.
        self.value_out: Dict[str, Value] = {}
        self._counter = 0

    def fresh_name(self) -> Var:
        self._counter += 1
        return Var(f"{self.var.name}.r{self._counter}", self.var.type, base=self.var.base)

    def run(self) -> None:
        var = self.var
        def_blocks: Set[str] = set()
        for blk in self.func.blocks:
            for instr in blk.instrs:
                if instr.dest == var:
                    def_blocks.add(blk.label)
        if var in self.func.params:
            def_blocks.add(self.func.entry.label)
        if not def_blocks:
            return

        frontiers = self.domtree.dominance_frontiers()
        phi_blocks: Set[str] = set()
        worklist = list(def_blocks)
        while worklist:
            label = worklist.pop()
            for frontier in frontiers.get(label, ()):
                if frontier not in phi_blocks:
                    phi_blocks.add(frontier)
                    if frontier not in def_blocks:
                        worklist.append(frontier)

        # Insert repair phis with fresh destination names.  A block that
        # already defines the variable needs no additional merge there.
        inserted: Dict[str, Phi] = {}
        for label in phi_blocks:
            if label in def_blocks:
                continue
            phi = Phi(self.fresh_name(), {})
            self.func.block(label).add_phi(phi)
            inserted[label] = phi

        # Compute the reaching value at the end of every block.
        def value_at_end(label: str, visiting: Set[str]) -> Value:
            if label in self.value_out:
                return self.value_out[label]
            if label in visiting:
                return Const(0)
            visiting.add(label)
            blk = self.func.block(label)
            result: Optional[Value] = None
            for instr in reversed(blk.instrs):
                if instr.dest == var:
                    result = var
                    break
                if (
                    isinstance(instr, Phi)
                    and instr.dest is not None
                    and inserted.get(label) is instr
                ):
                    result = instr.dest
                    break
            if result is None:
                if label in inserted:
                    result = inserted[label].dest
                elif label == self.func.entry.label:
                    result = var if var in self.func.params else Const(0)
                else:
                    idom = self.domtree.idom.get(label)
                    result = (
                        value_at_end(idom, visiting) if idom is not None else Const(0)
                    )
            self.value_out[label] = result
            return result

        # Fill phi incomings.
        for label, phi in inserted.items():
            for pred in self.cfg.preds[label]:
                phi.incomings[pred] = value_at_end(pred, set())

        # Rewrite uses to the nearest reaching definition.
        def value_at(label: str, index: int) -> Value:
            blk = self.func.block(label)
            for prior in reversed(blk.instrs[:index]):
                if prior.dest == var:
                    return var
                if isinstance(prior, Phi) and inserted.get(label) is prior:
                    return prior.dest
            if label in inserted:
                return inserted[label].dest
            if label == self.func.entry.label:
                return var if var in self.func.params else Const(0)
            idom = self.domtree.idom.get(label)
            return value_at_end(idom, set()) if idom is not None else Const(0)

        for blk in self.func.blocks:
            for index, instr in enumerate(blk.instrs):
                if isinstance(instr, Phi):
                    if blk.label in inserted and inserted[blk.label] is instr:
                        continue
                    for pred_label, value in list(instr.incomings.items()):
                        if value == var:
                            pred = self.func.block(pred_label)
                            replacement = value_at_end(pred_label, set())
                            if replacement != var:
                                instr.incomings[pred_label] = replacement
                else:
                    for value in list(instr.uses()):
                        if value == var:
                            replacement = value_at(blk.label, index)
                            if replacement != var:
                                instr.replace_use(var, replacement)


def repair_ssa(func: Function, variables: List[Var] = None) -> List[Var]:
    """Re-establish SSA dominance for ``variables`` (or autodetect).

    Returns the list of variables repaired.
    """
    if variables is None:
        variables = broken_variables(func)
    if not variables:
        return []
    cfg = CFG.build(func)
    domtree = DominatorTree.build(func, cfg=cfg)
    for var in variables:
        _Updater(func, cfg, domtree, var).run()
    return variables

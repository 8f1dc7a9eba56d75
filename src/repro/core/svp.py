"""Software value prediction (paper §7.2, Figure 13).

When the optimal partition still carries an unacceptably high
misspeculation cost, the compiler looks at the *critical* violation
candidates -- the ones whose staleness causes most of the cost -- and, if
profiling shows their values follow a stride (or last-value) pattern,
rewrites the loop to carry a software *prediction* instead:

* a new header phi ``x_p`` holds the (always correct) iteration value;
* the prediction ``p_next = x_p + stride`` is computed in the loop
  header -- i.e. before any fork, so it is never stale;
* the original update stays where it was; a check-and-recovery diamond
  at the latch corrects the carried value on misprediction.

After the rewrite the cross-iteration carrier is fed by ``p_next``
(violation probability 0: it lives in the header) and by the recovery
value with probability = the *misprediction rate*, so the cost model
naturally prices the loop as speculation-friendly.  The transformation
is semantics-preserving regardless of prediction quality.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.dominators import DominatorTree
from repro.analysis.loops import Loop
from repro.core.costgraph import CostGraph
from repro.core.costmodel import misspeculation_cost
from repro.core.partition import PartitionResult
from repro.core.violation import ViolationCandidate
from repro.ir.block import Block
from repro.ir.function import Function, Module
from repro.ir.instr import BinOp, Branch, Jump, Phi
from repro.ir.values import Const
from repro.ir.verify import verify_function
from repro.profiling.value_profile import ValuePattern


class SvpInfo:
    """Record of one applied software value prediction."""

    def __init__(self, var_base: str, stride, hit_rate: float, check_label: str):
        self.var_base = var_base
        self.stride = stride
        self.hit_rate = hit_rate
        self.check_label = check_label

    def __repr__(self) -> str:
        return f"SvpInfo({self.var_base} += {self.stride}, hit={self.hit_rate:.2f})"


def critical_candidates(
    partition: PartitionResult, cost_graph: CostGraph, top_k: int = 3
) -> List[Tuple[ViolationCandidate, float]]:
    """Candidates outside the optimal pre-fork region, ranked by how
    much cost their staleness contributes (§7.2: "the compiler
    identifies critical dependences that cause unacceptably high
    misspeculation cost")."""
    prefork_keys = {vc.instr for vc in partition.prefork_vcs}
    base_cost = misspeculation_cost(cost_graph, prefork_keys)
    ranked = []
    for vc in partition.candidates:
        if vc.instr in prefork_keys:
            continue
        relieved = misspeculation_cost(cost_graph, prefork_keys | {vc.instr})
        contribution = base_cost - relieved
        if contribution > 0:
            ranked.append((vc, contribution))
    ranked.sort(key=lambda pair: -pair[1])
    return ranked[:top_k]


def _carried_phi_for(
    func: Function, loop: Loop, vc: ViolationCandidate, cfg: CFG
) -> Optional[Phi]:
    """The header phi whose latch incoming is exactly the candidate's
    destination (the directly-carried pattern Figure 13 shows)."""
    if vc.instr.dest is None:
        return None
    latches = set(loop.latches(cfg))
    for phi in func.block(loop.header).phis():
        for pred_label, value in phi.incomings.items():
            if pred_label in latches and value == vc.instr.dest:
                return phi
    return None


def apply_svp(
    module: Module,
    func: Function,
    loop: Loop,
    vc: ViolationCandidate,
    pattern: ValuePattern,
) -> Optional[SvpInfo]:
    """Rewrite the loop to predict ``vc``'s value; returns None when the
    candidate's shape is unsupported."""
    if not pattern.predictable or pattern.stride is None:
        return None
    cfg = CFG.build(func)
    latches = loop.latches(cfg)
    if len(latches) != 1:
        return None
    latch_label = latches[0]
    phi = _carried_phi_for(func, loop, vc, cfg)
    if phi is None:
        return None

    update = vc.instr
    updated_var = update.dest
    domtree = DominatorTree.build(func, cfg=cfg)
    update_block = None
    for blk in loop.blocks(func):
        if update in blk.instrs:
            update_block = blk.label
            break
    if update_block is None or not domtree.dominates(update_block, latch_label):
        return None  # conditional updates are out of scope for SVP

    header_block = func.block(loop.header)
    entry_incomings = {
        label: value
        for label, value in phi.incomings.items()
        if label not in latches
    }
    if len(entry_incomings) != 1:
        return None
    entry_label, init_value = next(iter(entry_incomings.items()))

    base = phi.dest.base
    predicted = func.fresh_var(f"{base}_pred")
    next_pred = func.fresh_var(f"{base}_nextpred")
    fixed = func.fresh_var(f"{base}_fix")
    mispredict = func.fresh_var(f"{base}_bad")

    # 1. The prediction chain replaces the original carrier.
    pred_phi = Phi(predicted, {entry_label: init_value, latch_label: fixed})
    header_block.add_phi(pred_phi)
    header_block.insert_before_terminator(
        BinOp("add", next_pred, predicted, Const(pattern.stride))
    )

    # 2. All uses of the old carried value read the prediction (at the
    # loop exit the prediction equals the old carried value, so
    # function-wide replacement is sound).
    for blk in func.blocks:
        for instr in blk.instrs:
            if instr is pred_phi:
                continue
            instr.replace_use(phi.dest, predicted)
    header_block.instrs.remove(phi)

    # 3. Check-and-recovery diamond before the back edge.
    latch_block = func.block(latch_label)
    back_jump = latch_block.terminator
    if not isinstance(back_jump, Jump) or back_jump.target != loop.header:
        return None
    latch_block.instrs.pop()  # remove the jump; re-attached below

    check_label = latch_label  # the check lives at the end of the latch
    fixup_label = func.fresh_label(f"svp_fix_{base}")
    merge_label = func.fresh_label(f"svp_merge_{base}")

    latch_block.append(BinOp("ne", mispredict, updated_var, next_pred))
    latch_block.append(Branch(mispredict, fixup_label, merge_label))
    # Hint the cost model: mispredictions are rare.
    latch_block.annotations["branch_hint"] = {
        fixup_label: max(0.0, 1.0 - pattern.hit_rate),
        merge_label: pattern.hit_rate,
    }

    latch_index = func.blocks.index(latch_block)
    fixup_block = Block(fixup_label)
    fixup_block.append(Jump(merge_label))
    merge_block = Block(merge_label)
    merge_block.add_phi(
        Phi(fixed, {check_label: next_pred, fixup_label: updated_var})
    )
    merge_block.append(Jump(loop.header))
    func.blocks.insert(latch_index + 1, fixup_block)
    func.blocks.insert(latch_index + 2, merge_block)

    # 4. The back edge now comes from the merge block: retarget every
    # header phi incoming accordingly (pred_phi included).
    for header_phi in header_block.phis():
        if latch_label in header_phi.incomings:
            header_phi.incomings[merge_label] = header_phi.incomings.pop(
                latch_label
            )

    verify_function(module, func, ssa=True)
    return SvpInfo(base, pattern.stride, pattern.hit_rate, check_label)

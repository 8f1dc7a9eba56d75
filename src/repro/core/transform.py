"""SPT loop transformation (paper §6.2).

Turns a selected loop plus its optimal partition into an SPT loop:

1. the body CFG is duplicated into an (initially empty) *pre-fork*
   region, exactly as the paper describes ("the CFG of original loop is
   duplicated with empty basic blocks as the initial CFG of the pre-fork
   region");
2. partition statements are physically moved from the original body
   (which becomes the *post-fork* region) into their pre-fork copies;
3. branches guarding moved statements are *replicated* into the
   pre-fork region; the post-fork original keeps branching on the same
   (now pre-computed) condition value -- the paper's ``temp_cond``
   pattern of Figure 12;
4. duplicated branches guarding nothing are elided by jumping straight
   to their immediate post-dominator, and unreachable or empty pre-fork
   blocks are cleaned up;
5. an ``SPT_FORK`` block is placed between the two regions, and
   ``SPT_KILL`` blocks are placed on the loop's exit edges (§1);
6. SSA form is re-established (fresh phis for definitions whose moved
   position no longer dominates their post-fork uses -- our equivalent
   of the temporary-variable insertion of Figures 10/11).

A transformed loop run *sequentially* computes exactly what the
original did (``SPT_FORK``/``SPT_KILL`` are no-ops outside the SPT
machine model), which is how the test suite establishes correctness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.cfg import CFG
from repro.analysis.controldep import immediate_postdominators
from repro.analysis.depgraph import LoopDepGraph
from repro.analysis.loops import Loop
from repro.analysis.loopsummary import LoopSummary
from repro.core.partition import PartitionResult
from repro.ir.block import Block
from repro.ir.function import Function, Module
from repro.ir.instr import Branch, Instr, Jump, Phi, SptFork, SptKill
from repro.ir.values import Const
from repro.ir.verify import verify_function
from repro.ssa.optimize import (
    copy_propagate,
    eliminate_dead_code,
    remove_unreachable_blocks,
)
from repro.ssa.repair import repair_ssa


class TransformError(ValueError):
    """Raised when a loop's shape is outside what the SPT transformation
    handles; pass 2 counts these under "irregular control flow"."""


class SptLoopInfo:
    """Record of one transformed SPT loop."""

    def __init__(
        self,
        loop_id: int,
        header: str,
        fork_label: str,
        pre_labels: List[str],
        moved_count: int,
        replicated_branches: int,
        repaired_vars: int,
    ):
        self.loop_id = loop_id
        self.header = header
        self.fork_label = fork_label
        #: Pre-fork region block labels (fork block excluded).
        self.pre_labels = pre_labels
        self.moved_count = moved_count
        self.replicated_branches = replicated_branches
        #: Variables that needed SSA repair (the paper's temp insertion).
        self.repaired_vars = repaired_vars

    def __repr__(self) -> str:
        return (
            f"SptLoopInfo(loop={self.loop_id}, header={self.header}, "
            f"moved={self.moved_count})"
        )


def check_transformable(func: Function, loop: Loop, cfg: CFG = None) -> str:
    """Return the body-entry label, or raise :class:`TransformError`."""
    cfg = cfg or CFG.build(func)
    latches = loop.latches(cfg)
    if len(latches) != 1:
        raise TransformError(f"loop {loop.header}: {len(latches)} latches")
    for src, _ in loop.exit_edges(cfg):
        if src != loop.header:
            raise TransformError(f"loop {loop.header}: mid-body exit from {src}")
    header_block = func.block(loop.header)
    term = header_block.terminator
    if not isinstance(term, Branch):
        raise TransformError(f"loop {loop.header}: header does not test exit")
    in_body = [t for t in term.targets() if t in loop.body and t != loop.header]
    if len(in_body) != 1:
        raise TransformError(f"loop {loop.header}: irregular header branch")
    return in_body[0]


def transform_loop(
    module: Module,
    func: Function,
    loop: Loop,
    partition: PartitionResult,
    graph: LoopDepGraph,
) -> SptLoopInfo:
    """Apply the SPT transformation in place.  ``func`` must be in SSA
    form; it still is afterwards."""
    cfg = CFG.build(func)
    body_entry = check_transformable(func, loop, cfg)
    header_block = func.block(loop.header)
    header_phi_ids = {id(phi) for phi in header_block.phis()}

    moved: Set[int] = set()
    for instr in partition.prefork_stmts:
        if id(instr) in header_phi_ids:
            continue
        if isinstance(instr, LoopSummary):
            raise TransformError(
                f"loop {loop.header}: partition moves an inner loop"
            )
        info = graph.info.get(instr)
        if info is None or info.block == loop.header:
            continue
        moved.add(id(instr))

    ipdom = immediate_postdominators(func, loop, cfg)
    body_labels = [
        blk.label for blk in func.blocks if blk.label in loop.body
    ]
    non_header_labels = [l for l in body_labels if l != loop.header]

    fork_label = func.fresh_label(f"spt_fork_{loop.loop_id}")
    pre_name: Dict[str, str] = {
        label: func.fresh_label(f"pre_{label}") for label in non_header_labels
    }

    def map_target(label: str) -> str:
        """Where a pre-region copy of an edge to ``label`` goes."""
        if label == loop.header or label not in loop.body:
            return fork_label
        return pre_name[label]

    def elide_target(label: str) -> str:
        """Jump target replacing an elided pre-region branch: the branch
        block's immediate post-dominator (or the fork block when control
        would leave the body)."""
        cursor = ipdom.get(label)
        if cursor is None:
            return fork_label
        return map_target(cursor)

    # -- build the pre-fork region ------------------------------------------
    replicated_branches = 0
    moved_count = 0
    pre_blocks: List[Block] = []
    for label in non_header_labels:
        src_block = func.block(label)
        pre_block = Block(pre_name[label])

        # Moved phis are replicated with remapped incoming labels (the
        # post-fork original is deleted below).
        for instr in list(src_block.instrs):
            if instr.is_terminator:
                continue
            if id(instr) not in moved:
                continue
            if isinstance(instr, Phi):
                remapped = {}
                for pred_label, value in instr.incomings.items():
                    remapped[map_target(pred_label)] = value
                instr.incomings = remapped
            src_block.instrs.remove(instr)
            pre_block.instrs.append(instr)
            moved_count += 1

        term = src_block.terminator
        if isinstance(term, Branch) and id(term) in moved:
            # Replicate the branch; the post-fork original keeps using
            # the same (pre-computed) condition value -- Figure 12.
            pre_block.append(
                Branch(term.cond, map_target(term.iftrue), map_target(term.iffalse))
            )
            replicated_branches += 1
        elif isinstance(term, Branch):
            pre_block.append(Jump(elide_target(label)))
        elif isinstance(term, Jump):
            pre_block.append(Jump(map_target(term.target)))
        else:
            raise TransformError(
                f"loop {loop.header}: unexpected terminator in {label}"
            )
        pre_blocks.append(pre_block)

    fork_block = Block(fork_label)
    fork_block.append(SptFork(loop.loop_id))
    fork_block.append(Jump(body_entry))

    # Insert pre region + fork block right after the header.
    header_index = func.blocks.index(header_block)
    for offset, blk in enumerate(pre_blocks + [fork_block]):
        func.blocks.insert(header_index + 1 + offset, blk)

    # Redirect the header's in-body edge into the pre region.
    header_term = header_block.terminator
    pre_entry = pre_name[body_entry]
    if header_term.iftrue == body_entry:
        header_term.iftrue = pre_entry
    if header_term.iffalse == body_entry:
        header_term.iffalse = pre_entry

    # Phi incomings of the body entry now come from the fork block.
    body_entry_block = func.block(body_entry)
    for phi in body_entry_block.phis():
        if loop.header in phi.incomings:
            phi.incomings[fork_label] = phi.incomings.pop(loop.header)

    _cleanup_pre_region(func, loop, pre_blocks, fork_label)

    # -- SPT_KILL on every loop-exit edge -------------------------------------
    # The loop body has grown: the pre-fork region and fork block are
    # inside the SPT loop now, so exit edges are computed against the
    # extended body (otherwise the header -> pre-region edge would be
    # mistaken for an exit and a kill would land on the hot path).
    cfg = CFG.build(func)
    present = {blk.label for blk in func.blocks}
    extended_body = set(loop.body) | {fork_label}
    extended_body.update(blk.label for blk in pre_blocks if blk.label in present)
    exit_edges = [
        (src, dst)
        for src in sorted(extended_body)
        if src in present
        for dst in cfg.succs.get(src, ())
        if dst not in extended_body
    ]
    for src, dst in exit_edges:
        kill_block = _split_exit_edge(func, src, dst, loop)
        kill_block.instrs.insert(0, SptKill(loop.loop_id))

    # -- restore SSA and tidy up ------------------------------------------------
    remove_unreachable_blocks(func)
    _fix_phi_incomings(func)
    repaired = repair_ssa(func)
    copy_propagate(func)
    eliminate_dead_code(func)
    verify_function(module, func, ssa=True)

    surviving_pre = [
        blk.label for blk in func.blocks if blk.label in {b.label for b in pre_blocks}
    ]
    return SptLoopInfo(
        loop_id=loop.loop_id,
        header=loop.header,
        fork_label=fork_label,
        pre_labels=surviving_pre,
        moved_count=moved_count,
        replicated_branches=replicated_branches,
        repaired_vars=len(repaired),
    )


def _cleanup_pre_region(
    func: Function, loop: Loop, pre_blocks: List[Block], fork_label: str
) -> None:
    """Remove unreachable pre-region blocks and thread empty jumps."""
    pre_labels = {blk.label for blk in pre_blocks}

    # Thread: an empty pre block that just jumps is bypassed.
    forward: Dict[str, str] = {}
    for blk in pre_blocks:
        if len(blk.instrs) == 1 and isinstance(blk.instrs[0], Jump):
            forward[blk.label] = blk.instrs[0].target

    def resolve(label: str) -> str:
        seen = set()
        while label in forward and label not in seen:
            seen.add(label)
            label = forward[label]
        return label

    for blk in func.blocks:
        term = blk.terminator
        if isinstance(term, Jump):
            term.target = resolve(term.target)
        elif isinstance(term, Branch):
            term.iftrue = resolve(term.iftrue)
            term.iffalse = resolve(term.iffalse)

    # Drop now-unreachable pre blocks.
    cfg = CFG.build(func)
    reachable = cfg.reachable()
    func.blocks = [
        blk
        for blk in func.blocks
        if blk.label not in pre_labels or blk.label in reachable
    ]

    # Phi incoming labels that were bypassed must follow the threading:
    # a phi in block B with incoming from a threaded pre block P keeps
    # label P only if P still jumps to B; otherwise the predecessor that
    # now reaches B is whoever jumped over P.  Rebuilding from the CFG in
    # _fix_phi_incomings (called later) handles the general case.


def _split_exit_edge(func: Function, src: str, dst: str, loop: Loop) -> Block:
    """Split the exit edge ``src -> dst`` with a fresh block (for the
    SPT_KILL), updating phis in ``dst``."""
    from repro.analysis.cfg import split_edge

    return split_edge(func, src, dst, f"spt_exit_{loop.loop_id}")


def _fix_phi_incomings(func: Function) -> None:
    """Reconcile phi incoming labels with the actual CFG predecessors.

    Pre-region threading can reroute edges; any phi predecessor that no
    longer exists is dropped, and any new predecessor gets the value the
    old unique incoming supplied (or zero when ambiguous paths carry no
    value -- those paths never read the phi dynamically).
    """
    cfg = CFG.build(func)
    for blk in func.blocks:
        preds = set(cfg.preds[blk.label])
        for phi in blk.phis():
            current = set(phi.incomings)
            stale = current - preds
            missing = preds - current
            if not stale and not missing:
                continue
            if len(stale) == 1 and len(missing) == 1:
                # A single rerouted edge: carry the value over.
                old = stale.pop()
                new = missing.pop()
                phi.incomings[new] = phi.incomings.pop(old)
                continue
            for label in stale:
                phi.incomings.pop(label)
            default = None
            if phi.incomings:
                values = {str(v): v for v in phi.incomings.values()}
                if len(values) == 1:
                    default = next(iter(values.values()))
            for label in missing:
                phi.incomings[label] = default if default is not None else Const(0)

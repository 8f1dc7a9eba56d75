"""SSA cleanup optimizations: copy propagation, constant folding, DCE.

The paper applies exactly this cleanup after the SPT code motion
("the code is immediately cleaned and optimized by applying SSA
renaming, copy propagation and dead code elimination in ORC", §6.2).
The passes here are deliberately simple, fixpoint-iterated versions
that preserve SSA form.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ir.function import Function
from repro.ir.instr import BinOp, Branch, Copy, Jump, Phi, UnOp
from repro.ir.values import Const, Value, Var
from repro.profiling.interp import _BINOPS, InterpError, _div, _mod

#: The interpreter's own operators: a fold computes what a run would.
_OPERATORS = dict(_BINOPS, div=_div, mod=_mod)


def _fold_binop(instr: BinOp) -> Optional[Const]:
    """The constant ``instr`` computes; None (left to run time) when an
    operand is not constant or the operation faults at run time, e.g. a
    division by zero or a negative shift count."""
    if not (isinstance(instr.lhs, Const) and isinstance(instr.rhs, Const)):
        return None
    fold = _OPERATORS.get(instr.op)
    if fold is None:
        return None
    try:
        return Const(fold(instr.lhs.value, instr.rhs.value))
    except InterpError:
        return None


def copy_propagate(func: Function) -> int:
    """Replace uses of copy/single-source-phi destinations by their source.

    Returns the number of rewrites performed.  Safe in SSA form because
    each source value is immutable once defined.
    """
    replacements: Dict[Var, Value] = {}
    for blk in func.blocks:
        for instr in blk.instrs:
            if isinstance(instr, Copy):
                replacements[instr.dest] = instr.src
            elif isinstance(instr, Phi):
                sources = {str(v): v for v in instr.incomings.values()}
                sources.pop(str(instr.dest), None)  # self-reference
                if len(sources) == 1:
                    replacements[instr.dest] = next(iter(sources.values()))

    # Resolve chains (a -> b -> c).
    def resolve(value: Value) -> Value:
        seen = set()
        while isinstance(value, Var) and value in replacements:
            if value in seen:
                break
            seen.add(value)
            value = replacements[value]
        return value

    count = 0
    for blk in func.blocks:
        for instr in blk.instrs:
            for used in list(instr.uses()):
                if isinstance(used, Var):
                    resolved = resolve(used)
                    if resolved != used:
                        instr.replace_use(used, resolved)
                        count += 1
    return count


def fold_constants(func: Function) -> int:
    """Fold constant expressions into copies; returns the fold count."""
    count = 0
    for blk in func.blocks:
        for index, instr in enumerate(blk.instrs):
            folded: Optional[Const] = None
            if isinstance(instr, BinOp):
                folded = _fold_binop(instr)
            elif isinstance(instr, UnOp) and isinstance(instr.src, Const):
                value = instr.src.value
                if instr.op == "neg":
                    folded = Const(-value)
                elif instr.op == "not":
                    folded = Const(not value)
                elif instr.op == "abs":
                    folded = Const(abs(value))
                elif instr.op == "i2f":
                    folded = Const(float(value))
                elif instr.op == "f2i":
                    folded = Const(int(value))
            if folded is not None:
                blk.instrs[index] = Copy(instr.dest, folded)
                count += 1
    return count


def eliminate_dead_code(func: Function) -> int:
    """Remove side-effect-free instructions with unused destinations."""
    removed_total = 0
    while True:
        used = set()
        for blk in func.blocks:
            for instr in blk.instrs:
                for value in instr.uses():
                    if isinstance(value, Var):
                        used.add(value)
        removed = 0
        for blk in func.blocks:
            kept = []
            for instr in blk.instrs:
                dead = (
                    instr.dest is not None
                    and instr.dest not in used
                    and not instr.has_side_effects
                    and not instr.is_terminator
                )
                if dead:
                    removed += 1
                else:
                    kept.append(instr)
            blk.instrs = kept
        removed_total += removed
        if removed == 0:
            return removed_total


def simplify_branches(func: Function) -> int:
    """Turn branches on constants into jumps.

    The blocks this strands are deleted by
    :func:`remove_unreachable_blocks` (run together in :func:`optimize`),
    which also purges the stale phi incomings -- popping incomings here
    would miss dead paths that run through intermediate blocks.
    """
    count = 0
    for blk in func.blocks:
        term = blk.terminator
        if isinstance(term, Branch) and isinstance(term.cond, Const):
            taken = term.iftrue if term.cond.value else term.iffalse
            blk.instrs[-1] = Jump(taken)
            count += 1
    return count


def remove_unreachable_blocks(func: Function) -> int:
    """Delete blocks unreachable from the entry and drop phi incomings
    that referenced them.  Essential hygiene: stale unreachable defs
    confuse every dominance-based pass downstream."""
    from repro.analysis.cfg import CFG

    reachable = CFG.build(func).reachable()
    gone = {blk.label for blk in func.blocks if blk.label not in reachable}
    if not gone:
        return 0
    func.blocks = [blk for blk in func.blocks if blk.label in reachable]
    for blk in func.blocks:
        for phi in blk.phis():
            for label in list(phi.incomings):
                if label in gone:
                    phi.incomings.pop(label)
    return len(gone)


def optimize(func: Function, max_rounds: int = 10) -> None:
    """Run the cleanup pipeline to a fixpoint (bounded)."""
    for _ in range(max_rounds):
        changed = 0
        changed += copy_propagate(func)
        changed += fold_constants(func)
        changed += simplify_branches(func)
        changed += remove_unreachable_blocks(func)
        changed += eliminate_dead_code(func)
        if changed == 0:
            break

"""IR well-formedness verifier.

Checks are split into *structural* checks (always required) and *SSA*
checks (required once a function claims SSA form):

Structural:
  S1. every block ends in exactly one terminator (last instruction);
  S2. every jump/branch target names an existing block;
  S3. phi nodes form a prefix of their block;
  S4. every phi has exactly one incoming per CFG predecessor;
  S5. memory-op ``sym`` hints name declared arrays (when present).

SSA:
  V1. every register is defined at most once;
  V2. every use is dominated by its definition (phi uses are checked at
      the end of the corresponding predecessor).
"""

from __future__ import annotations

from typing import List

from repro.ir.function import Function, Module
from repro.ir.instr import Load, Phi, Store
from repro.ir.values import Const, Var


class VerificationError(ValueError):
    """Raised when an IR function violates a well-formedness rule."""


def _structural_errors(module: Module, func: Function) -> List[str]:
    errors: List[str] = []
    labels = {blk.label for blk in func.blocks}
    preds = {blk.label: [] for blk in func.blocks}

    for blk in func.blocks:
        for index, instr in enumerate(blk.instrs):
            is_last = index == len(blk.instrs) - 1
            if instr.is_terminator and not is_last:
                errors.append(f"{blk.label}: terminator mid-block at {index}")
        term = blk.terminator
        if term is None:
            errors.append(f"{blk.label}: missing terminator")
            continue
        for target in term.targets():
            if target not in labels:
                errors.append(f"{blk.label}: branch to unknown block {target!r}")
            else:
                preds[target].append(blk.label)

    for blk in func.blocks:
        seen_non_phi = False
        for instr in blk.instrs:
            if isinstance(instr, Phi):
                if seen_non_phi:
                    errors.append(f"{blk.label}: phi after non-phi instruction")
                expected = set(preds.get(blk.label, []))
                got = set(instr.incomings)
                if expected != got:
                    errors.append(
                        f"{blk.label}: phi {instr.dest} incomings {sorted(got)} "
                        f"!= preds {sorted(expected)}"
                    )
            else:
                seen_non_phi = True

            if isinstance(instr, (Load, Store)) and instr.sym is not None:
                if module.lookup_array(func, instr.sym) is None:
                    errors.append(
                        f"{blk.label}: memory op names undeclared array "
                        f"{instr.sym!r}"
                    )
    return errors


def _ssa_errors(func: Function) -> List[str]:
    from repro.analysis.dominators import DominatorTree

    errors: List[str] = []
    defs = {}  # register name -> (block, index); Var equality is by name
    for param in func.params:
        defs[param.name] = ("<param>", -1)
    for blk in func.blocks:
        for index, instr in enumerate(blk.instrs):
            dest = instr.dest
            if dest is None:
                continue
            if dest.name in defs:
                errors.append(f"{blk.label}: {dest} redefined (SSA violation)")
            defs[dest.name] = (blk.label, index)

    if errors:
        return errors

    domtree = DominatorTree.build(func)
    block_map = func.block_map()

    def dominates_use(def_site, use_block: str, use_index: int) -> bool:
        def_block, def_index = def_site
        if def_block == "<param>":
            return True
        if def_block == use_block:
            return def_index < use_index
        return domtree.dominates(def_block, use_block)

    for blk in func.blocks:
        for index, instr in enumerate(blk.instrs):
            if isinstance(instr, Phi):
                for pred_label, value in instr.incomings.items():
                    if not isinstance(value, Var):
                        continue
                    if value.name not in defs:
                        errors.append(f"{blk.label}: phi uses undefined {value}")
                        continue
                    pred = block_map.get(pred_label)
                    end = len(pred.instrs) if pred else 0
                    if not dominates_use(defs[value.name], pred_label, end):
                        errors.append(
                            f"{blk.label}: phi incoming {value} from "
                            f"{pred_label} not dominated by its definition"
                        )
            else:
                for value in instr.uses():
                    if not isinstance(value, Var):
                        continue
                    if value.name not in defs:
                        errors.append(
                            f"{blk.label}: use of undefined {value} in "
                            f"{instr!r}"
                        )
                    elif not dominates_use(defs[value.name], blk.label, index):
                        errors.append(
                            f"{blk.label}: use of {value} not dominated "
                            f"by its definition"
                        )
    return errors


def verify_function(module: Module, func: Function, ssa: bool = False) -> None:
    """Raise :class:`VerificationError` if ``func`` is malformed."""
    errors = _structural_errors(module, func)
    if not errors and ssa:
        errors.extend(_ssa_errors(func))
    if errors:
        details = "\n  ".join(errors)
        raise VerificationError(f"function {func.name}:\n  {details}")


def verify_module(module: Module, ssa: bool = False) -> None:
    for func in module.functions.values():
        verify_function(module, func, ssa=ssa)

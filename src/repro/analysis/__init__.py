"""Classic compiler analyses: CFG, dominators, loops, aliasing, and the
loop data-dependence graph used by the SPT cost model."""

from repro.analysis.cfg import CFG, split_edge
from repro.analysis.dominators import DominatorTree
from repro.analysis.loops import (
    InductionVariable,
    Loop,
    LoopNest,
    ensure_preheader,
    find_basic_induction_variables,
)

__all__ = [
    "CFG",
    "DominatorTree",
    "InductionVariable",
    "Loop",
    "LoopNest",
    "ensure_preheader",
    "find_basic_induction_variables",
    "split_edge",
]

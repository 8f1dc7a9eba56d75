"""Inner-loop summary nodes.

When pass 1 evaluates an *outer* loop of a nest as an SPT candidate
(paper §3.2 evaluates "each nested level of a loop nest"), the inner
loops in its body are collapsed into opaque summary nodes so the body's
dependence graph stays acyclic:

* the summary's ``cost`` is the inner loop's static body size times its
  (profiled or assumed) trip count;
* it *uses* every live-in register and *defines* every register that
  escapes the inner loop;
* it reads/writes memory if anything inside does, with the union of the
  accessed symbols for alias queries.

Summary nodes are never moved into the pre-fork region in practice:
their cost makes any closure containing them blow the pre-fork size
threshold immediately.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.analysis.loops import Loop
from repro.ir.function import Function
from repro.ir.instr import Call, Instr, Load, Store
from repro.ir.values import Value, Var

#: Trip count assumed for inner loops with no profile data.
DEFAULT_INNER_TRIP = 10.0


class LoopSummary(Instr):
    """An inner loop collapsed to a single dependence-graph node."""

    opcode = "loop_summary"

    def __init__(self, loop: Loop, func: Function, trip_count: float):
        super().__init__()
        self.loop = loop
        self.trip_count = trip_count
        self.defs: List[Var] = []
        self._uses: List[Var] = []
        self._reads_memory = False
        self._writes_memory = False
        #: Symbols the inner loop may access; ``None`` in the set marks
        #: an unknown access (raw pointer or impure call).
        self.syms: Set[Optional[str]] = set()
        self._static_size = 0.0
        self._collect(func)

    def _collect(self, func: Function) -> None:
        inner_defs: Set[Var] = set()
        inner_instrs: List[Instr] = []
        for blk in self.loop.blocks(func):
            for instr in blk.instrs:
                inner_instrs.append(instr)
                if instr.dest is not None:
                    inner_defs.add(instr.dest)
                self._static_size += instr.cost

        for instr in inner_instrs:
            if instr.reads_memory:
                self._reads_memory = True
            if instr.writes_memory:
                self._writes_memory = True
            if isinstance(instr, (Load, Store)):
                self.syms.add(instr.sym)
            elif isinstance(instr, Call) and not instr.pure:
                self.syms.add(None)
            for value in instr.uses():
                if isinstance(value, Var) and value not in inner_defs:
                    self._uses.append(value)

        self.defs = sorted(inner_defs, key=lambda v: v.name)
        # Deduplicate live-ins, preserving order.
        seen: Set[Var] = set()
        unique: List[Var] = []
        for var in self._uses:
            if var not in seen:
                seen.add(var)
                unique.append(var)
        self._uses = unique

    # -- Instr interface --------------------------------------------------

    @property
    def dest(self) -> None:
        return None  # multiple defs; exposed via self.defs

    def uses(self) -> List[Value]:
        return list(self._uses)

    @property
    def cost(self) -> float:
        return self._static_size * max(self.trip_count, 1.0)

    @property
    def has_side_effects(self) -> bool:
        return True

    @property
    def reads_memory(self) -> bool:
        return self._reads_memory

    @property
    def writes_memory(self) -> bool:
        return self._writes_memory

    def contained_mem_instrs(self, func: Function) -> List[Instr]:
        """Memory-touching instructions inside the inner loop (used by
        the dependence profile to aggregate probabilities)."""
        result = []
        for blk in self.loop.blocks(func):
            for instr in blk.instrs:
                if instr.reads_memory or instr.writes_memory:
                    result.append(instr)
        return result

    def __repr__(self) -> str:
        return f"<loop_summary {self.loop.header} x{self.trip_count:.0f}>"

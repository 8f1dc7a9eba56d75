"""In-order core timing model.

The paper's cores are in-order Itanium2-like (6-wide issue).  We do not
model issue ports; instead, simple operations cost fractional cycles
(0.5 = two ALU ops dual-issue on average), which reproduces the paper's
above-1 IPC range for compute-dense code, while loads, branches and
division carry their real penalties:

* loads pay the shared cache hierarchy's latency;
* conditional branches pay 5 cycles on a bimodal mispredict (§8);
* fork and commit pseudo-ops cost 6 and 5 cycles (§8) -- charged by the
  SPT simulator, not here.

Internally every latency is an integer number of *ticks*
(``TICKS_PER_CYCLE`` ticks per cycle).  Integer addition is associative,
so accumulating a block's or trace's cost as one precomputed sum is
bitwise-identical to charging each op individually -- the property the
vectorized timing engine (:mod:`repro.machine.vector_timing`) relies
on.  Results are still reported in float cycles; every tick constant
is an exact multiple of ``1 / TICKS_PER_CYCLE`` cycles, so the
float conversions are exact.

:class:`TimingTracer` attaches to the interpreter and accumulates
cycles, the retired-instruction count (phis and jumps are free, like
the paper's "IPC excluding nops"), and per-loop cycle attribution for
the coverage statistics of Figure 16.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.loops import LoopNest
from repro.ir.block import Block
from repro.ir.function import Function
from repro.ir.instr import (
    BinOp,
    Branch,
    Call,
    Copy,
    Instr,
    Jump,
    Load,
    LoadAddr,
    Phi,
    Return,
    SptFork,
    SptKill,
    Store,
    UnOp,
)
from repro.machine.branchpred import BranchPredictor
from repro.machine.cache import MemoryHierarchy
from repro.profiling.interp import Tracer

#: Fixed-point resolution of the timing model: 100 ticks per cycle lets
#: every latency constant below be an exact integer.
TICKS_PER_CYCLE = 100

#: Ticks per simple-op class.  Fractions of a cycle model the 6-wide
#: in-order issue of an Itanium2-like core: independent ALU ops overlap,
#: so the *average* retired cost of one simple op is well under a cycle.
ALU_TICKS = 35
MUL_TICKS = 120
DIV_TICKS = 800
COPY_TICKS = 20
LOAD_BASE_TICKS = 30
STORE_TICKS = 35
CALL_OVERHEAD_TICKS = 100
RETURN_TICKS = 35
BRANCH_BASE_TICKS = 35
MISPREDICT_TICKS = 500

#: The same constants in float cycles (exact conversions).
ALU_CYCLES = ALU_TICKS / TICKS_PER_CYCLE
MUL_CYCLES = MUL_TICKS / TICKS_PER_CYCLE
DIV_CYCLES = DIV_TICKS / TICKS_PER_CYCLE
COPY_CYCLES = COPY_TICKS / TICKS_PER_CYCLE
LOAD_BASE_CYCLES = LOAD_BASE_TICKS / TICKS_PER_CYCLE
STORE_CYCLES = STORE_TICKS / TICKS_PER_CYCLE
CALL_OVERHEAD_CYCLES = CALL_OVERHEAD_TICKS / TICKS_PER_CYCLE
RETURN_CYCLES = RETURN_TICKS / TICKS_PER_CYCLE
BRANCH_BASE_CYCLES = BRANCH_BASE_TICKS / TICKS_PER_CYCLE
MISPREDICT_PENALTY = MISPREDICT_TICKS / TICKS_PER_CYCLE


class TimingModel:
    """Stateless-per-op latency computation over shared cache/predictor
    state."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy = None,
        predictor: BranchPredictor = None,
    ):
        self.hierarchy = hierarchy or MemoryHierarchy()
        self.predictor = predictor or BranchPredictor()
        # id(instr) -> (instr, ticks).  Holding the instr reference pins
        # its id, so the cache can never alias a recycled object.
        self._tick_memo: Dict[int, Tuple[Instr, int]] = {}

    def base_ticks(self, instr: Instr) -> int:
        """Ticks excluding cache and branch-prediction effects."""
        entry = self._tick_memo.get(id(instr))
        if entry is not None:
            return entry[1]
        ticks = self._classify_ticks(instr)
        self._tick_memo[id(instr)] = (instr, ticks)
        return ticks

    @staticmethod
    def _classify_ticks(instr: Instr) -> int:
        if isinstance(instr, BinOp):
            if instr.op in ("div", "mod"):
                return DIV_TICKS
            if instr.op == "mul":
                return MUL_TICKS
            return ALU_TICKS
        if isinstance(instr, UnOp):
            return ALU_TICKS
        if isinstance(instr, (Copy, LoadAddr)):
            return COPY_TICKS
        if isinstance(instr, Load):
            return LOAD_BASE_TICKS
        if isinstance(instr, Store):
            return STORE_TICKS
        if isinstance(instr, Call):
            return CALL_OVERHEAD_TICKS
        if isinstance(instr, Return):
            return RETURN_TICKS
        if isinstance(instr, Branch):
            return BRANCH_BASE_TICKS
        if isinstance(instr, (Jump, Phi, SptFork, SptKill)):
            return 0
        return ALU_TICKS

    def load_ticks(self, addr: int) -> int:
        """Extra ticks for a memory read of ``addr``."""
        return self.hierarchy.access_ticks(addr)

    def store_fill(self, addr: int) -> None:
        """Write-allocate a stored line (no cycles charged: the store
        buffer hides the fill latency on an in-order core)."""
        self.hierarchy.fill_for_write(addr)

    def branch_ticks(self, branch_key: int, taken: bool) -> int:
        """Extra ticks for an executed conditional branch."""
        if self.predictor.predict_and_update(branch_key, taken):
            return MISPREDICT_TICKS
        return 0

    @staticmethod
    def counts_as_instruction(instr: Instr) -> bool:
        """Whether the op retires in the IPC denominator ("excluding
        nops"): phis, jumps and SPT markers do not."""
        return not isinstance(instr, (Phi, Jump, SptFork, SptKill))


class TimingTracer(Tracer):
    """Accumulates program cycles, instruction counts, and per-loop
    cycle attribution while the interpreter runs.

    All accounting is in integer ticks; the public ``cycles`` /
    ``loop_cycles`` views convert to float cycles (exactly).
    """

    def __init__(self, model: TimingModel = None):
        self.model = model or TimingModel()
        self._ticks = 0
        self.instructions = 0
        #: (func_name, loop_header) -> attributed ticks.
        self._loop_ticks: Dict[Tuple[str, str], int] = {}
        #: (func_name, loop_header) -> loop-entry count.
        self.loop_entries: Dict[Tuple[str, str], int] = {}
        self._nests: Dict[str, LoopNest] = {}
        #: Stack of (func_name, header) loop contexts (across calls).
        self._loop_stack: List[Tuple[str, str]] = []
        #: Per-frame loop-stack depth at entry, to unwind on return.
        self._frame_depths: List[int] = []
        self._current_branch: Optional[Tuple[int, str]] = None

    # -- helpers ----------------------------------------------------------

    def _nest_for(self, func: Function) -> LoopNest:
        nest = self._nests.get(func.name)
        if nest is None:
            nest = LoopNest.build(func)
            self._nests[func.name] = nest
        return nest

    def _charge(self, ticks: int) -> None:
        self._ticks += ticks
        for key in self._loop_stack:
            self._loop_ticks[key] = self._loop_ticks.get(key, 0) + ticks

    # -- tracer hooks --------------------------------------------------------

    def on_enter_function(self, func: Function, args) -> None:
        self._frame_depths.append(len(self._loop_stack))
        self._nest_for(func)

    def on_exit_function(self, func: Function, result) -> None:
        depth = self._frame_depths.pop()
        del self._loop_stack[depth:]

    def on_block(self, func: Function, block: Block, prev_label) -> None:
        nest = self._nest_for(func)
        frame_depth = self._frame_depths[-1] if self._frame_depths else 0
        # Pop loops (entered in this frame) that no longer contain us.
        while len(self._loop_stack) > frame_depth:
            fn, header = self._loop_stack[-1]
            if fn != func.name:
                break
            loop = next(
                l for l in nest.loops if l.header == header
            )
            if block.label in loop.body:
                break
            self._loop_stack.pop()
        # Push loops whose header we just entered from outside.
        for loop in nest.loops:
            if loop.header != block.label:
                continue
            key = (func.name, loop.header)
            if key in self._loop_stack[frame_depth:]:
                continue
            if prev_label is None or prev_label not in loop.body:
                self.loop_entries[key] = self.loop_entries.get(key, 0) + 1
            self._loop_stack.append(key)

    def on_instr(self, func: Function, block: Block, instr: Instr) -> None:
        self._charge(self.model.base_ticks(instr))
        if self.model.counts_as_instruction(instr):
            self.instructions += 1
        if isinstance(instr, Branch):
            self._current_branch = (id(instr), instr.iftrue)

    def on_load(self, instr: Instr, addr: int, value) -> None:
        self._charge(self.model.load_ticks(addr))

    def on_store(self, instr: Instr, addr: int, value, old_value) -> None:
        self.model.store_fill(addr)

    def on_edge(self, func: Function, src_label: str, dst_label: str) -> None:
        if self._current_branch is not None:
            branch_key, iftrue = self._current_branch
            self._current_branch = None
            taken = dst_label == iftrue
            self._charge(self.model.branch_ticks(branch_key, taken))

    # -- results ----------------------------------------------------------------

    @property
    def ticks(self) -> int:
        """Total accumulated ticks (exact integer)."""
        return self._ticks

    @property
    def cycles(self) -> float:
        return self._ticks / TICKS_PER_CYCLE

    @property
    def loop_cycles(self) -> Dict[Tuple[str, str], float]:
        """(func_name, loop_header) -> attributed cycles (fresh dict)."""
        return {
            key: ticks / TICKS_PER_CYCLE
            for key, ticks in self._loop_ticks.items()
        }

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self._ticks else 0.0

    def coverage(self, key: Tuple[str, str]) -> float:
        """Fraction of total cycles spent inside the given loop."""
        if self._ticks == 0:
            return 0.0
        return self._loop_ticks.get(key, 0) / self._ticks

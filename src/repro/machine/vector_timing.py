"""Vectorized (block-batched) timing accounting.

:class:`~repro.machine.timing.TimingTracer` charges every dynamic
instruction individually through ``on_instr``; attaching it therefore
forces the compiled interpreter off its zero-hook fast path and costs
several Python calls per op.  :class:`VectorTimingEngine` produces the
same accounting from *block-granular* events instead:

* the **static** cost of a block (ALU/mul/div/copy/store/call/return
  base latencies and the branch base cost) is precomputed once per
  block as a single integer tick sum and charged in one addition;
* the **dynamic residual** -- cache hit/miss latency per load and the
  bimodal mispredict penalty per conditional branch -- is charged by
  one call per load/store/branch, in program order, against the same
  shared :class:`~repro.machine.timing.TimingModel` state.

Because the timing model accumulates integer ticks (see
:mod:`repro.machine.timing`), the batched sums are bitwise-identical
to per-op accounting; ``tests/machine/test_vector_timing.py`` asserts
exact equality of cycles, instruction counts, per-loop attribution and
cache/predictor state against a :class:`TimingTracer` run.

The engine is **not** a tracer: it must never be registered via
``add_tracer`` (its inherited per-instr hooks would defeat the point).
The compiled interpreter accepts it through the ``timing_engine``
parameter of :func:`repro.profiling.compiled.make_machine` and drives
it through the block-level API below -- including from inside compiled
hot traces (:mod:`repro.profiling.traces`).

Charging granularity: a block's static cost is attributed when the
*next* block-level event flushes it, which is before the loop-context
stack changes -- exactly where :class:`TimingTracer` attributes the
block's per-op charges.  The only divergence is on runs that abort
mid-block with an interpreter error, where the erroring block's partial
charges are dropped; cycle counts of failed runs are never consumed.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.ir.block import Block
from repro.ir.function import Function
from repro.ir.instr import Branch, Instr, Jump, Return
from repro.machine.timing import TimingModel, TimingTracer


class VectorTimingEngine(TimingTracer):
    """Drop-in replacement for :class:`TimingTracer` results
    (``cycles``/``ticks``/``instructions``/``loop_cycles``/``ipc``/
    ``coverage``) computed from block-batched events."""

    def __init__(self, model: TimingModel = None):
        super().__init__(model)
        #: Ticks accumulated for the current block but not yet
        #: attributed (static block cost + dynamic load/branch ticks).
        self._pending = 0
        # id(block) -> (block, static_ticks, retired_instructions).
        # Holding the block reference pins its id.
        self._static: Dict[int, Tuple[Block, int, int]] = {}
        # Memoized *stack-neutral* transitions: entering the block under
        # the keyed loop-stack state changes neither the stack nor any
        # entry counter, so flush + on_block can be skipped outright
        # (the attribution target set is unchanged and integer tick
        # sums commute).  Key: (id(block), stack top, stack depth,
        # frame depth) -- everything on_block's pop/push phases consult
        # in the no-change case.  Value: the block's static entry.
        self._neutral: Dict[tuple, Tuple[Block, int, int]] = {}
        # func name -> set of loop-header labels (push-phase gate).
        self._header_labels: Dict[str, frozenset] = {}
        # Pass-level memo for block *sequences* (see :meth:`blocks`):
        # (id(seq), stack top, depth, frame depth) -> (ticks, instrs).
        self._pass_memo: Dict[tuple, Tuple[int, int]] = {}
        # Sequences are keyed by id(); pin them so a freed tuple's id
        # can never be recycled into a stale memo hit.
        self._seqs: list = []

    # -- static per-block cost vectors --------------------------------

    def _static_for(self, block: Block) -> Tuple[Block, int, int]:
        entry = self._static.get(id(block))
        if entry is None:
            model = self.model
            ticks = 0
            count = 0
            for instr in block.instrs:
                ticks += model.base_ticks(instr)
                if model.counts_as_instruction(instr):
                    count += 1
                if isinstance(instr, (Jump, Branch, Return)):
                    break  # execution never passes the first terminator
            entry = (block, ticks, count)
            self._static[id(block)] = entry
        return entry

    def _flush(self) -> None:
        pending = self._pending
        if pending:
            self._pending = 0
            self._charge(pending)

    # -- block-level event API ----------------------------------------

    def enter(self, func: Function, args) -> None:
        """A function invocation begins (caller block still pending)."""
        self.on_enter_function(func, args)

    def exit(self, func: Function, result) -> None:
        """A function invocation returns; settle its last block before
        the loop-context stack unwinds."""
        self._flush()
        self.on_exit_function(func, result)

    def _headers(self, func: Function) -> frozenset:
        labels = self._header_labels.get(func.name)
        if labels is None:
            labels = frozenset(l.header for l in self._nest_for(func).loops)
            self._header_labels[func.name] = labels
        return labels

    def block(self, func: Function, block: Block, prev_label) -> None:
        """Control enters ``block``: settle the previous block under its
        own loop context, then charge this block's static cost.

        Steady-state transitions (no loop entered or left) hit the
        ``_neutral`` memo and reduce to two integer additions.
        """
        stack = self._loop_stack
        depth = len(stack)
        top = stack[depth - 1] if depth else None
        frames = self._frame_depths
        fd = frames[-1] if frames else 0
        key = (id(block), top, depth, fd)
        entry = self._neutral.get(key)
        if entry is not None:
            self._pending += entry[1]
            self.instructions += entry[2]
            return
        self._flush()
        self.on_block(func, block, prev_label)
        entry = self._static_for(block)
        self._pending += entry[1]
        self.instructions += entry[2]
        # Memoize iff on_block provably did nothing: the stack is
        # unchanged (identity: re-pushed contexts are fresh tuples, so
        # `is` also rules out a pop+push that bumped an entry counter)
        # and, for loop headers, the header's own context is on top --
        # otherwise `key in stack` deeper down could differ between
        # stacks that share this memo key.
        if (
            len(stack) == depth
            and (stack[depth - 1] if depth else None) is top
            and (
                block.label not in self._headers(func)
                or top == (func.name, block.label)
            )
        ):
            self._neutral[key] = entry

    def register_seq(self, seq) -> None:
        """Pin a block sequence so its ``id()`` stays unique for the
        lifetime of this engine (``blocks`` memoizes by identity)."""
        self._seqs.append(seq)

    def blocks(self, seq) -> None:
        """Control flows through a *constant* run of blocks: ``seq`` is
        a tuple of ``(func, block, prev_label)`` triples separated only
        by unconditional edges, emitted by a compiled trace.

        Once every block in the run has a ``_neutral`` entry under the
        current loop/frame context, the whole run collapses to two
        integer additions per pass.  Soundness mirrors the per-block
        memo: each neutral entry certifies that entering that block
        under (top, depth, fd) changes neither the stack nor any entry
        counter, and since the run itself leaves the stack untouched
        (checked below), the context every block sees is the keyed one.
        """
        stack = self._loop_stack
        depth = len(stack)
        top = stack[depth - 1] if depth else None
        frames = self._frame_depths
        fd = frames[-1] if frames else 0
        key = (id(seq), top, depth, fd)
        agg = self._pass_memo.get(key)
        if agg is not None:
            self._pending += agg[0]
            self.instructions += agg[1]
            return
        for func, block, prev in seq:
            self.block(func, block, prev)
        # Aggregate only if the run was stack-neutral end to end and
        # every step is individually memoized under this same context.
        if len(stack) != depth or (stack[depth - 1] if depth else None) is not top:
            return
        pending = 0
        instructions = 0
        neutral = self._neutral
        for func, block, prev in seq:
            entry = neutral.get((id(block), top, depth, fd))
            if entry is None:
                return
            pending += entry[1]
            instructions += entry[2]
        self._pass_memo[key] = (pending, instructions)

    def load(self, addr: int) -> None:
        """Dynamic residual of one memory read (program order matters:
        the cache hierarchy is stateful)."""
        self._pending += self.model.hierarchy.access_ticks(addr)

    def branch(self, key: int, taken: bool) -> None:
        """Dynamic residual of one executed conditional branch."""
        self._pending += self.model.branch_ticks(key, taken)

    def flush(self) -> None:
        """Force attribution of any pending ticks (end of measurement)."""
        self._flush()

    # -- tracer hooks are not an input channel ------------------------

    def on_instr(self, func: Function, block: Block, instr: Instr) -> None:
        raise RuntimeError(
            "VectorTimingEngine must not be attached as a tracer; pass it "
            "as timing_engine= to the compiled machine instead"
        )

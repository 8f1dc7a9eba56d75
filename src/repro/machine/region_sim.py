"""Machine model for intra-iteration region speculation (§9 future
work; see :mod:`repro.core.regions` for the compiler side).

Per iteration the main core runs region A while the speculative core
runs region B from the iteration-start context:

    t_iter = fork + max(t_A, t_B) + commit + t_reexec(B | A's writes)

Violation detection and re-execution propagation reuse the SPT loop
machinery (:func:`repro.machine.spt_sim._replay_speculative`), with
"post-fork writes" replaced by region A's writes of the same iteration.
Each iteration folds into the totals as soon as it completes.  Like the
SPT collector, the region collector reads load latencies from the run's
own timing model, so it must be attached after the run's accounting.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.ir.block import Block
from repro.ir.function import Function, Module
from repro.machine.spt_sim import (
    COMMIT_TICKS,
    FORK_TICKS,
    IterationTrace,
    SptTraceCollector,
    _replay_speculative,
    _stale,
)
from repro.machine.timing import TICKS_PER_CYCLE, TimingModel


class RegionTraceCollector(SptTraceCollector):
    """Records each dynamic op by its region: an iteration's ``pre``
    rows are region A's (run by the main core), its ``post`` rows region
    B's.  Every finished iteration folds into :attr:`region_stats` as
    one A ∥ B round."""

    def __init__(
        self,
        func_name: str,
        header: str,
        body_labels: Set[str],
        b_labels: Set[str],
        model: TimingModel,
    ):
        super().__init__(func_name, header, body_labels, loop_id=-1, model=model)
        self.b_labels = set(b_labels)
        #: Running totals of every folded A ∥ B iteration.
        self.region_stats = RegionLoopStats(func_name, header, "?")

    def on_block(self, func: Function, block: Block, prev_label) -> None:
        super().on_block(func, block, prev_label)
        if not self._frame_is_target or not self._frame_is_target[-1]:
            return
        if func.name != self.func_name or self._current is None:
            return
        # Region assignment follows the block, not a fork marker.
        current = self._current
        self._rows = (
            current.post if block.label in self.b_labels else current.pre
        )

    def block_scope(self, module: Module) -> Optional[Dict[str, Set[str]]]:
        # This override acts only on body blocks with an iteration open,
        # inside the scope of the one it extends.
        return self._event_blocks(module)

    def _complete(self, trace: IterationTrace) -> None:
        """Fold one finished iteration as its own A ∥ B round."""
        stats = self.region_stats
        t_a = trace.pre_ticks
        t_b = trace.post_ticks
        stats.iterations += 1
        stats.seq_ticks += t_a + t_b
        stats.a_ticks += t_a
        stats.b_ticks += t_b

        # Header ops run before the fork: their defs are part of the
        # context region B starts from, never stale.
        stale_regs, stale_addrs = _stale(
            row for row in trace.pre if not row[0].header_op
        )
        b_rows = trace.post
        reexec_ticks, reexec_ops = _replay_speculative(
            b_rows, stale_regs, stale_addrs
        )

        stats.region_ticks += (
            FORK_TICKS + max(t_a, t_b) + COMMIT_TICKS + reexec_ticks
        )
        stats.reexec_ticks += reexec_ticks
        stats.reexec_ops += reexec_ops
        stats.b_ops += len(b_rows)


class RegionLoopStats:
    """Simulated statistics of one region-speculated loop."""

    def __init__(self, func_name: str, header: str, split_label: str):
        self.func_name = func_name
        self.header = header
        self.split_label = split_label
        self.iterations = 0
        self.seq_ticks = 0
        self.region_ticks = 0
        self.reexec_ticks = 0
        self.reexec_ops = 0
        self.b_ops = 0
        self.a_ticks = 0
        self.b_ticks = 0

    @property
    def seq_cycles(self) -> float:
        return self.seq_ticks / TICKS_PER_CYCLE

    @property
    def reexec_cycles(self) -> float:
        return self.reexec_ticks / TICKS_PER_CYCLE

    @property
    def b_cycles(self) -> float:
        return self.b_ticks / TICKS_PER_CYCLE

    @property
    def loop_speedup(self) -> float:
        return self.seq_ticks / self.region_ticks if self.region_ticks else 1.0

    @property
    def misspeculation_ratio(self) -> float:
        return self.reexec_ops / self.b_ops if self.b_ops else 0.0

    @property
    def balance(self) -> float:
        total = self.a_ticks + self.b_ticks
        if total <= 0:
            return 0.0
        return 1.0 - abs(self.a_ticks - self.b_ticks) / total

    def __repr__(self) -> str:
        return (
            f"RegionLoopStats({self.func_name}:{self.header}@"
            f"{self.split_label}, speedup={self.loop_speedup:.2f})"
        )


def simulate_region_loop(
    collector: RegionTraceCollector, split_label: str = "?"
) -> RegionLoopStats:
    """The A ∥ B totals ``collector`` folded, labelled with the split."""
    collector.region_stats.split_label = split_label
    return collector.region_stats

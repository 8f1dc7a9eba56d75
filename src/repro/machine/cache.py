"""Memory hierarchy model.

The paper's simulator gives both cores a shared memory/cache hierarchy
"with the same configuration and latencies as Intel's Itanium2 systems"
(§8).  We model three inclusive levels with LRU replacement over
word-addressed lines:

=====  ==========  =========  ============
level  capacity    line size  load-use lat
=====  ==========  =========  ============
L1D    16 KB       64 B       1 cycle
L2     256 KB      128 B      5 cycles
L3     3 MB        128 B      12 cycles
mem    --          --         180 cycles
=====  ==========  =========  ============

Addresses are word indices (8-byte words), so a 64-byte line is 8
words.  The model charges the latency of the first level that hits and
fills all levels above it.

Latencies are held internally as integer ticks (see
:data:`repro.machine.timing.TICKS_PER_CYCLE`) so aggregated accounting
stays exact; ``access()`` still returns float cycles, and the
conversion is exact for any latency that is a multiple of 0.01 cycles.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

#: Duplicated from repro.machine.timing to avoid an import cycle
#: (timing imports this module).
_TICKS_PER_CYCLE = 100


def _to_ticks(cycles: float) -> int:
    return int(round(cycles * _TICKS_PER_CYCLE))


class CacheLevel:
    """One cache level: LRU over line tags."""

    def __init__(self, name: str, capacity_lines: int, line_words: int, latency: float):
        self.name = name
        self.capacity_lines = capacity_lines
        self.line_words = line_words
        self.latency = latency
        self.latency_ticks = _to_ticks(latency)
        self._lines: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def line_of(self, addr: int) -> int:
        return addr // self.line_words

    def lookup(self, addr: int) -> bool:
        """Probe (and LRU-touch) the line holding ``addr``."""
        line = self.line_of(addr)
        if line in self._lines:
            self._lines.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, addr: int) -> None:
        line = self.line_of(addr)
        self._lines[line] = True
        self._lines.move_to_end(line)
        while len(self._lines) > self.capacity_lines:
            self._lines.popitem(last=False)

    def reset(self) -> None:
        self._lines.clear()
        self.hits = 0
        self.misses = 0


class MemoryHierarchy:
    """Shared three-level hierarchy (Itanium2-like latencies)."""

    def __init__(
        self,
        l1_lines: int = 256,
        l2_lines: int = 2048,
        l3_lines: int = 24576,
        line_words: int = 8,
        l1_latency: float = 1.0,
        l2_latency: float = 5.0,
        l3_latency: float = 12.0,
        memory_latency: float = 180.0,
    ):
        self.levels = [
            CacheLevel("L1D", l1_lines, line_words, l1_latency),
            CacheLevel("L2", l2_lines, line_words * 2, l2_latency),
            CacheLevel("L3", l3_lines, line_words * 2, l3_latency),
        ]
        self._l1, self._l2, self._l3 = self.levels
        self.memory_latency = memory_latency
        self.memory_ticks = _to_ticks(memory_latency)
        self.accesses = 0
        #: The address and ticks of the most recent :meth:`access_ticks`.
        #: An SPT collector reads a load's latency here after the run's
        #: timing accounting has charged it, instead of simulating a
        #: cache of its own; the address lets it check that it did.
        self.last_addr: Optional[int] = None
        self.last_ticks = 0

    def access(self, addr: int) -> float:
        """Cycles to satisfy a load of ``addr``; updates all levels."""
        return self.access_ticks(addr) / _TICKS_PER_CYCLE

    # The two methods below are the simulator's hottest leaves (one
    # call per dynamic load/store), so the probe/fill walk over the
    # three levels is hand-inlined rather than expressed through
    # CacheLevel.lookup/fill.  Every dict mutation, LRU touch, and
    # hit/miss increment happens in the same order on the same state
    # as the composed form, so timing results are bit-identical.

    def access_ticks(self, addr: int) -> int:
        """Ticks to satisfy a load of ``addr``; updates all levels."""
        self.accesses += 1
        self.last_addr = addr
        l1 = self._l1
        d1 = l1._lines
        line1 = addr // l1.line_words
        if line1 in d1:
            d1.move_to_end(line1)
            l1.hits += 1
            self.last_ticks = ticks = l1.latency_ticks
            return ticks
        l1.misses += 1
        l2 = self._l2
        d2 = l2._lines
        line2 = addr // l2.line_words
        if line2 in d2:
            d2.move_to_end(line2)
            l2.hits += 1
            ticks = l2.latency_ticks
        else:
            l2.misses += 1
            l3 = self._l3
            d3 = l3._lines
            line3 = addr // l3.line_words
            if line3 in d3:
                d3.move_to_end(line3)
                l3.hits += 1
                ticks = l3.latency_ticks
            else:
                l3.misses += 1
                ticks = self.memory_ticks
                d3[line3] = True
                while len(d3) > l3.capacity_lines:
                    d3.popitem(last=False)
            d2[line2] = True
            while len(d2) > l2.capacity_lines:
                d2.popitem(last=False)
        d1[line1] = True
        while len(d1) > l1.capacity_lines:
            d1.popitem(last=False)
        self.last_ticks = ticks
        return ticks

    def fill_for_write(self, addr: int) -> None:
        """Write-allocate: a store brings the line in at every level.

        The latency is not charged to the store -- an in-order core's
        store buffer hides it -- but the fill warms the hierarchy for
        subsequent loads, which is what makes initialize-then-process
        loops behave realistically.
        """
        l1 = self._l1
        d1 = l1._lines
        line1 = addr // l1.line_words
        l2 = self._l2
        d2 = l2._lines
        line2 = addr // l2.line_words
        l3 = self._l3
        d3 = l3._lines
        line3 = addr // l3.line_words
        # Probe until the first level that hits (LRU-touch deferred to
        # the unconditional fill below, which lands on the same line).
        if line1 in d1:
            l1.hits += 1
        else:
            l1.misses += 1
            if line2 in d2:
                l2.hits += 1
            elif line3 in d3:
                l2.misses += 1
                l3.hits += 1
            else:
                l2.misses += 1
                l3.misses += 1
        # Write-allocate at every level.
        if line1 in d1:
            d1.move_to_end(line1)
        else:
            d1[line1] = True
            while len(d1) > l1.capacity_lines:
                d1.popitem(last=False)
        if line2 in d2:
            d2.move_to_end(line2)
        else:
            d2[line2] = True
            while len(d2) > l2.capacity_lines:
                d2.popitem(last=False)
        if line3 in d3:
            d3.move_to_end(line3)
        else:
            d3[line3] = True
            while len(d3) > l3.capacity_lines:
                d3.popitem(last=False)

    def reset(self) -> None:
        self.accesses = 0
        for level in self.levels:
            level.reset()

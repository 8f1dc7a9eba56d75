"""Value-pattern profiling for software value prediction (paper §7.2).

Given a set of *watched* definitions (the critical violation candidates
the cost model flags), the profiler records the sequence of values each
definition produces and classifies its predictability:

* **stride**: successive values differ by a constant (``x = bar(x)``
  often incrementing by 2 in the paper's Figure 13 example);
* **last-value**: the value rarely changes;
* **unpredictable**: neither pattern holds often enough.

The SVP transformation only fires when the best pattern's hit rate
clears ``SptConfig.svp_min_hit_rate``.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Set

from repro.ir.block import Block
from repro.ir.function import Function, Module
from repro.ir.instr import Instr
from repro.profiling.interp import Tracer

#: Cap on recorded values per watched definition.
MAX_SAMPLES = 4096


class ValuePattern:
    """Classification of one definition's value stream."""

    def __init__(self, kind: str, stride, hit_rate: float, samples: int):
        #: "stride" | "last" | "unpredictable"
        self.kind = kind
        #: The constant stride (stride patterns only).
        self.stride = stride
        #: Fraction of transitions the best predictor would have gotten
        #: right.
        self.hit_rate = hit_rate
        self.samples = samples

    @property
    def predictable(self) -> bool:
        return self.kind != "unpredictable"

    def __repr__(self) -> str:
        return (
            f"ValuePattern({self.kind}, stride={self.stride}, "
            f"hit={self.hit_rate:.2f}, n={self.samples})"
        )


class ValueProfile(Tracer):
    """Records values produced by watched definitions."""

    def __init__(self, watched: List[Instr] = ()):
        self._watched_ids = {id(instr) for instr in watched}
        self._instrs: Dict[int, Instr] = {id(i): i for i in watched}
        self.samples: Dict[int, List] = {id(i): [] for i in watched}

    def watch(self, instr: Instr) -> None:
        self._watched_ids.add(id(instr))
        self._instrs[id(instr)] = instr
        self.samples.setdefault(id(instr), [])

    def on_def(self, instr: Instr, value) -> None:
        key = id(instr)
        if key not in self._watched_ids:
            return
        bucket = self.samples[key]
        if len(bucket) < MAX_SAMPLES:
            bucket.append(value)

    # -- the fast tier's view ------------------------------------------

    def op_scope(self, module: Module) -> Dict[str, Set[str]]:
        """The blocks that hold a watched def: ``on_def`` ignores every
        other op."""
        scope: Dict[str, Set[str]] = {}
        for func in module.functions.values():
            for block in func.blocks:
                if any(id(i) in self._watched_ids for i in block.instrs):
                    scope.setdefault(func.name, set()).add(block.label)
        return scope

    def op_recorder(
        self, func: Function, block: Block, instr: Instr, run: Callable
    ) -> Optional[Callable]:
        """``run`` itself for an unwatched def, a sampling closure for a
        watched one; a subclass overriding ``on_instr`` or ``on_def``
        gets none."""
        cls = type(self)
        if (
            cls.on_def is not ValueProfile.on_def
            or cls.on_instr is not Tracer.on_instr
        ):
            return None
        key = id(instr)
        if key not in self._watched_ids:
            return run
        bucket = self.samples[key]

        def op(env):
            value = run(env)
            if len(bucket) < MAX_SAMPLES:
                bucket.append(value)
            return value

        return op

    # -- analysis ----------------------------------------------------------

    def pattern_for(self, instr: Instr, min_samples: int = 8) -> ValuePattern:
        """Classify the recorded value stream of ``instr``."""
        values = self.samples.get(id(instr), [])
        if len(values) < min_samples:
            return ValuePattern("unpredictable", None, 0.0, len(values))
        if not all(isinstance(v, (int, float)) for v in values):
            return ValuePattern("unpredictable", None, 0.0, len(values))

        transitions = len(values) - 1
        diffs = [values[i + 1] - values[i] for i in range(transitions)]
        diff_counts = Counter(diffs)
        best_stride, stride_hits = diff_counts.most_common(1)[0]
        stride_rate = stride_hits / transitions
        last_hits = sum(1 for d in diffs if d == 0)
        last_rate = last_hits / transitions

        if last_rate >= stride_rate and last_rate > 0:
            best = ValuePattern("last", 0, last_rate, len(values))
        else:
            best = ValuePattern("stride", best_stride, stride_rate, len(values))
        if best.hit_rate <= 0.0:
            return ValuePattern("unpredictable", None, 0.0, len(values))
        return best

    def predictable_instrs(self, min_hit_rate: float) -> List[Instr]:
        """Watched instrs whose best pattern clears ``min_hit_rate``."""
        result = []
        for key, instr in self._instrs.items():
            pattern = self.pattern_for(instr)
            if pattern.predictable and pattern.hit_rate >= min_hit_rate:
                result.append(instr)
        return result

"""Bimodal branch predictor.

Each static branch gets a two-bit saturating counter; a misprediction
costs 5 cycles (paper §8: "branch misprediction penalty is 5 cycles").
"""

from __future__ import annotations

from typing import Dict

#: Two-bit counter states: 0,1 predict not-taken; 2,3 predict taken.
_WEAKLY_TAKEN = 2


class BranchPredictor:
    """Per-static-branch two-bit saturating counters."""

    def __init__(self):
        self._counters: Dict[int, int] = {}
        self.predictions = 0
        self.mispredictions = 0

    def predict_and_update(self, branch_key: int, taken: bool) -> bool:
        """Record an executed branch; returns True when mispredicted."""
        counter = self._counters.get(branch_key, _WEAKLY_TAKEN)
        predicted_taken = counter >= 2
        mispredicted = predicted_taken != taken
        self.predictions += 1
        if mispredicted:
            self.mispredictions += 1
        if taken:
            counter = min(3, counter + 1)
        else:
            counter = max(0, counter - 1)
        self._counters[branch_key] = counter
        return mispredicted

    @property
    def misprediction_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions

    def reset(self) -> None:
        self._counters.clear()
        self.predictions = 0
        self.mispredictions = 0

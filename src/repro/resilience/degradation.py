"""The degradation taxonomy: structured records of contained faults.

Every fault a phase firewall contains -- and every budget the anytime
machinery exhausts -- becomes one :class:`DegradationRecord` with a
``kind`` from the closed taxonomy below.  Records are attached to the
:class:`~repro.core.selection.LoopCandidate` they degraded (or to the
:class:`~repro.core.pipeline.CompilationResult` for module-level
phases like profiling), serialized into summaries and manifests, and
counted into telemetry, so a production batch can alert on *which*
safety valve is firing without ever aborting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.resilience.watchdog import WatchdogTimeout

__all__ = [
    "ALL_KINDS",
    "DegradationRecord",
    "KIND_ANALYSIS_ERROR",
    "KIND_PROFILE_BUDGET",
    "KIND_RESOURCE_GUARD",
    "KIND_SEARCH_BUDGET",
    "KIND_TRANSFORM_ERROR",
    "KIND_WATCHDOG_TIMEOUT",
    "classify_exception",
]

#: Any exception from dependence/cost analysis the taxonomy does not
#: recognize more precisely.
KIND_ANALYSIS_ERROR = "analysis_error"
#: The partition search exhausted its node budget or anytime deadline
#: and returned a best-so-far (legal, possibly sub-optimal) partition.
KIND_SEARCH_BUDGET = "search_budget"
#: A profiling run exhausted ``Workload.fuel``; profiles are partial.
KIND_PROFILE_BUDGET = "profile_budget"
#: The SPT transformation refused or failed on this loop.
KIND_TRANSFORM_ERROR = "transform_error"
#: A wall-clock watchdog expired inside the phase.
KIND_WATCHDOG_TIMEOUT = "watchdog_timeout"
#: A process resource ran out (Python's recursion limit, memory).
KIND_RESOURCE_GUARD = "resource_guard"

ALL_KINDS = (
    KIND_ANALYSIS_ERROR,
    KIND_SEARCH_BUDGET,
    KIND_PROFILE_BUDGET,
    KIND_TRANSFORM_ERROR,
    KIND_WATCHDOG_TIMEOUT,
    KIND_RESOURCE_GUARD,
)


def classify_exception(exc: BaseException) -> str:
    """Map a contained exception to its taxonomy kind."""
    # Imported lazily to avoid cycles: this package must stay importable
    # before (and without) repro.core / repro.profiling.
    from repro.core.transform import TransformError
    from repro.profiling.interp import FuelExhausted

    if isinstance(exc, WatchdogTimeout):
        return KIND_WATCHDOG_TIMEOUT
    if isinstance(exc, FuelExhausted):
        return KIND_PROFILE_BUDGET
    if isinstance(exc, TransformError):
        return KIND_TRANSFORM_ERROR
    if isinstance(exc, (RecursionError, MemoryError)):
        return KIND_RESOURCE_GUARD
    return KIND_ANALYSIS_ERROR


@dataclass
class DegradationRecord:
    """One contained fault (or exhausted budget), fully attributed."""

    #: The firewalled phase ("depgraph", "search", "profile", "svp",
    #: "transform", "region_splits", "worker").
    phase: str
    #: Taxonomy kind (one of :data:`ALL_KINDS`).
    kind: str
    #: Human-readable cause (exception message or budget description).
    message: str = ""
    #: Exception class name, when an exception was contained.
    error_type: Optional[str] = None
    #: ``func:header`` when the degradation is scoped to one loop.
    loop: Optional[str] = None
    #: Ladder rung that finally applied ("full", "no_incremental",
    #: "small_budget", "skip") -- None for budget records that did not
    #: go through the retry ladder.
    rung: Optional[str] = None

    @classmethod
    def from_exception(
        cls,
        phase: str,
        exc: BaseException,
        loop: Optional[str] = None,
        rung: Optional[str] = None,
    ) -> "DegradationRecord":
        return cls(
            phase=phase,
            kind=classify_exception(exc),
            message=str(exc),
            error_type=exc.__class__.__name__,
            loop=loop,
            rung=rung,
        )

    def to_dict(self) -> Dict:
        """Deterministic JSON form (key order fixed, no volatile data)."""
        out: Dict = {"phase": self.phase, "kind": self.kind}
        if self.loop is not None:
            out["loop"] = self.loop
        if self.error_type is not None:
            out["error_type"] = self.error_type
        if self.message:
            out["message"] = self.message
        if self.rung is not None:
            out["rung"] = self.rung
        return out

    def __str__(self) -> str:
        where = f" [{self.loop}]" if self.loop else ""
        rung = f" (rung: {self.rung})" if self.rung else ""
        detail = f": {self.message}" if self.message else ""
        return f"{self.phase}/{self.kind}{where}{rung}{detail}"

"""Fault containment for the two-pass SPT pipeline.

The SPT execution model's universal recovery path is "run the loop
sequentially" -- which means *no* per-loop failure ever needs to abort
a compilation.  This package makes that operational:

* :mod:`~repro.resilience.degradation` -- the closed error taxonomy and
  the :class:`DegradationRecord` every contained fault becomes;
* :mod:`~repro.resilience.containment` -- :func:`run_contained`, the
  phase firewall wrapping each per-loop phase of pass 1 and each
  per-loop transform of pass 2;
* :mod:`~repro.resilience.ladder` -- the graceful-degradation retry
  ladder (full → no_incremental → small_budget → skip);
* :mod:`~repro.resilience.watchdog` -- wall-clock guards
  shared by the interpreters, the partition search, and the firewalls;
* :mod:`~repro.resilience.faults` -- the ``$REPRO_FAULT`` chaos hook
  (phase → raise / hang / slow) behind the chaos test suite and CI.

See ``docs/resilience.md``.
"""

from repro.resilience.containment import PASSTHROUGH, run_contained
from repro.resilience.degradation import (
    ALL_KINDS,
    DegradationRecord,
    KIND_ANALYSIS_ERROR,
    KIND_PROFILE_BUDGET,
    KIND_RESOURCE_GUARD,
    KIND_SEARCH_BUDGET,
    KIND_TRANSFORM_ERROR,
    KIND_WATCHDOG_TIMEOUT,
    classify_exception,
)
from repro.resilience.faults import (
    FAULT_ENV_VAR,
    FaultInjected,
    HANG_ENV_VAR,
    maybe_inject,
    parse_fault_specs,
    reset_fault_state,
)
from repro.resilience.ladder import (
    RUNG_FULL,
    RUNG_NO_INCREMENTAL,
    RUNG_SKIP,
    RUNG_SMALL_BUDGET,
    degraded_retry_overrides,
    ladder_rungs,
)
from repro.resilience.watchdog import (
    ProgramTimeout,
    Watchdog,
    WatchdogTimeout,
)

__all__ = [
    "ALL_KINDS",
    "DegradationRecord",
    "FAULT_ENV_VAR",
    "FaultInjected",
    "HANG_ENV_VAR",
    "KIND_ANALYSIS_ERROR",
    "KIND_PROFILE_BUDGET",
    "KIND_RESOURCE_GUARD",
    "KIND_SEARCH_BUDGET",
    "KIND_TRANSFORM_ERROR",
    "KIND_WATCHDOG_TIMEOUT",
    "PASSTHROUGH",
    "ProgramTimeout",
    "RUNG_FULL",
    "RUNG_NO_INCREMENTAL",
    "RUNG_SKIP",
    "RUNG_SMALL_BUDGET",
    "Watchdog",
    "WatchdogTimeout",
    "classify_exception",
    "degraded_retry_overrides",
    "ladder_rungs",
    "maybe_inject",
    "parse_fault_specs",
    "reset_fault_state",
    "run_contained",
]

"""Performance tracking: run recording into the ledger and cross-run
regression comparison.

This layer sits above ``repro.core`` + ``repro.obs`` + ``repro.machine``
and powers the ``repro perf`` CLI family:

* :func:`~repro.perf.runner.record_program` -- compile (and optionally
  simulate) one program under an observing telemetry and produce a
  ledger record carrying phase self-times, deterministic counters, and
  simulated cycles;
* :func:`~repro.perf.runner.simulate_program` -- the one simulation
  driver's compile-result -> SPT-machine-model entry point, used by
  ``repro simulate``, ``perf record --kind simulate`` and the suite
  evaluation (:mod:`repro.perf.runner` builds every timed machine);
* :func:`~repro.perf.compare.diff_text` / :func:`~repro.perf.compare.
  check_regression` -- align ledger records on fingerprint x workload x
  host and render deltas or a noise-aware CI verdict.
"""

from repro.perf.compare import (
    CheckReport,
    check_regression,
    diff_text,
    match_key,
)
from repro.perf.runner import SimOutcome, record_program, simulate_program

__all__ = [
    "CheckReport",
    "SimOutcome",
    "check_regression",
    "diff_text",
    "match_key",
    "record_program",
    "simulate_program",
]

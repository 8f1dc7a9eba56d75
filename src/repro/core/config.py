"""All tunables of the SPT compilation framework in one place.

The thresholds mirror the paper's selection criteria (§6.1) and search
constraints (§5).  Sizes are measured in elementary-operation units
(``Instr.cost``), the same unit the misspeculation cost is expressed in.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from typing import Optional


@dataclass
class SptConfig:
    """Configuration for the cost-driven speculative parallelization."""

    # -- §5: optimal partition search -----------------------------------
    #: Pre-fork region size threshold, as a fraction of loop body size
    #: (criterion 2 of §6.1 and pruning heuristic 1 of §5.2.1).
    prefork_fraction: float = 0.4
    #: Loops with more violation candidates than this are skipped (§5.2:
    #: "loops with too many violation candidates are skipped"; the paper
    #: reports using 30).
    max_violation_candidates: int = 30
    #: Hard cap on branch-and-bound search nodes (safety valve; the
    #: monotone pruning normally keeps the search tiny).  Exhaustion is
    #: surfaced as ``PartitionResult.budget_exhausted`` (and a
    #: ``search_budget`` degradation record), never silent.
    max_search_nodes: int = 200_000
    #: Anytime-search wall-clock deadline in milliseconds (None = no
    #: deadline).  On expiry the search returns its best-so-far legal
    #: partition flagged ``optimal: false`` -- the empty pre-fork set is
    #: always a legal seed, so a result always exists.
    search_deadline_ms: Optional[float] = None

    # -- fault containment (repro.resilience) ---------------------------------
    #: Wall-clock watchdog armed around each firewalled pipeline phase,
    #: in milliseconds (None = phases are firewalled but not timed).  A
    #: phase overrunning it degrades that loop with a
    #: ``watchdog_timeout`` record instead of wedging the compilation.
    phase_deadline_ms: Optional[float] = None
    #: Retry a faulted loop analysis on cheaper configurations
    #: (no_incremental → small_budget) before skipping the loop.
    enable_degradation_ladder: bool = True

    # -- §6.1: SPT loop selection ------------------------------------------
    #: Misspeculation cost threshold, as a fraction of loop body size
    #: (criterion 1).
    cost_fraction: float = 0.15
    #: Minimum loop body size in elementary operations (criterion 3a).
    min_body_size: int = 12
    #: Maximum loop body size (criterion 3b; the paper's experiments used
    #: a maximum loop size limit of 1000).
    max_body_size: int = 1000
    #: Minimum expected iteration count (criterion 4: "a number smaller
    #: than 2 means the next iteration is not likely to be executed").
    min_trip_count: float = 2.0

    # -- §7.1: loop unrolling ------------------------------------------------
    #: Whether to unroll loops at all ("loop unrolling is always enabled
    #: in all our experiments").
    enable_unrolling: bool = True
    #: Whether while-loops (non-counted loops) may be unrolled.  The
    #: paper's ORC could only unroll DO loops; while-loop unrolling is
    #: part of the *anticipated* compilation.
    unroll_while_loops: bool = False
    #: Target body size the unroller aims for (the paper's SPT loops
    #: average ~400 dynamic instructions per iteration; fork/commit
    #: overheads need bodies well above the minimum).
    unroll_target_size: int = 64
    #: Maximum unroll factor.
    max_unroll_factor: int = 8

    # -- §7.2: software value prediction ------------------------------------
    enable_svp: bool = False
    #: Minimum profiled hit rate before SVP code is inserted ("both the
    #: value-prediction overhead and the mis-prediction cost are
    #: acceptably low").
    svp_min_hit_rate: float = 0.85

    # -- §7.3: dependence profiling -------------------------------------------
    enable_dep_profiling: bool = False
    #: Static probability assumed for unprofiled may-alias memory deps.
    static_mem_prob: float = 0.5
    #: Static probability assumed for impure-call dependences.
    static_call_prob: float = 0.5

    # -- §9 future work: general code regions ---------------------------------
    #: Evaluate intra-iteration region splits for loops rejected with
    #: too-large bodies (off by default: the paper left this as future
    #: work; see repro.core.regions).
    enable_region_speculation: bool = False

    # -- anticipated-compilation extras (§8, third bar of Figure 14) ---------
    #: Use interprocedural mod/ref summaries for calls to local functions
    #: instead of worst-case aliasing (stands in for the paper's manual
    #: "export of global variables beyond their visible scopes").
    enable_modref_summaries: bool = False
    #: Enable scalar/array privatization of provably iteration-local
    #: buffers (part of the anticipated compilation).
    enable_privatization: bool = False

    # -- framework fast paths (infrastructure, not paper semantics) ----------
    #: Profile and simulate workloads on the fast tier: the
    #: block-compiled interpreter with hot traces
    #: (repro.profiling.compiled, repro.profiling.traces) and, for timed
    #: runs, the vectorized timing engine (repro.machine.vector_timing).
    #: ``False`` selects the reference interpreter with per-op timing,
    #: which stays available as the oracle for differential testing.
    fast_interp: bool = True
    #: Evaluate misspeculation costs incrementally during the partition
    #: search: only cost-graph nodes downstream of the pseudo nodes that
    #: changed are re-propagated.  ``False`` selects the full-recompute
    #: reference evaluator.
    incremental_cost: bool = True
    #: LRU bound on memoized cost evaluations / incremental states per
    #: partition search.
    cost_cache_size: int = 4096

    # -- machine overheads (used by selection gain estimates) ---------------
    fork_overhead_cycles: float = 6.0
    commit_overhead_cycles: float = 5.0
    #: Average cycles one elementary operation retires in on the target
    #: core (multi-issue makes it well under 1); converts the cost
    #: model's op-unit sizes into cycles for the benefit estimate.
    cycles_per_op: float = 0.55
    #: Safety margin: a loop is selected only when the predicted SPT
    #: round beats sequential execution by at least this factor.
    selection_margin: float = 0.95

    def __post_init__(self):
        if not 0.0 <= self.prefork_fraction <= 1.0:
            raise ValueError("prefork_fraction must be in [0, 1]")
        if self.cost_fraction < 0.0:
            raise ValueError("cost_fraction must be non-negative")
        if self.min_body_size < 0 or self.max_body_size < self.min_body_size:
            raise ValueError("need 0 <= min_body_size <= max_body_size")
        if self.max_violation_candidates < 1:
            raise ValueError("max_violation_candidates must be positive")
        if self.max_unroll_factor < 1:
            raise ValueError("max_unroll_factor must be positive")
        if not 0.0 <= self.svp_min_hit_rate <= 1.0:
            raise ValueError("svp_min_hit_rate must be in [0, 1]")
        if self.cycles_per_op <= 0:
            raise ValueError("cycles_per_op must be positive")
        if self.cost_cache_size < 1:
            raise ValueError("cost_cache_size must be positive")
        if self.search_deadline_ms is not None and self.search_deadline_ms <= 0:
            raise ValueError("search_deadline_ms must be positive when set")
        if self.phase_deadline_ms is not None and self.phase_deadline_ms <= 0:
            raise ValueError("phase_deadline_ms must be positive when set")

    def with_overrides(self, **kwargs) -> "SptConfig":
        """A copy with selected fields replaced."""
        return replace(self, **kwargs)

    def fingerprint(self) -> str:
        """A stable SHA-256 hex digest over every tunable.

        Two configs with identical field values always fingerprint
        identically (across processes and sessions), and any field
        change -- including of fields added in future versions --
        produces a new digest.  The batch result cache
        (:mod:`repro.batch.cache`) keys every entry on this, so cached
        analyses can never be served under a different configuration.
        """
        parts = [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)]
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()

    # -- derived thresholds ----------------------------------------------------

    def prefork_size_threshold(self, body_size: float) -> float:
        return self.prefork_fraction * body_size

    def cost_threshold(self, body_size: float) -> float:
        return self.cost_fraction * body_size


def basic_config() -> SptConfig:
    """The paper's *basic compilation*: cost model + code reordering +
    loop unrolling, with control-flow edge profiling only."""
    return SptConfig()


def best_config() -> SptConfig:
    """The paper's *current best compilation*: basic plus software value
    prediction and data-dependence profiling feedback."""
    return SptConfig(enable_svp=True, enable_dep_profiling=True)


def anticipated_config() -> SptConfig:
    """The paper's *anticipated best compilation*: best plus while-loop
    unrolling, privatization and interprocedural summaries."""
    return SptConfig(
        enable_svp=True,
        enable_dep_profiling=True,
        unroll_while_loops=True,
        enable_modref_summaries=True,
        enable_privatization=True,
    )


#: The paper's three compilations (Figure 14) by name: the one preset
#: table behind ``--config``, batch and serve tasks, and the figures.
CONFIG_FACTORIES = {
    "basic": basic_config,
    "best": best_config,
    "anticipated": anticipated_config,
}

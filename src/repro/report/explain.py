"""Decision-provenance reports: why each loop was (not) selected.

Backs the ``repro explain`` CLI command.  For every loop candidate the
report reconstructs the §6.1 selection decision from recorded evidence:
the measured value and threshold of the failed criterion, the optimal
partition's cost breakdown per violation candidate, the pre-fork region
contents, the branch-and-bound pruning statistics, and any transform
failure.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import SptConfig
from repro.core.pipeline import CompilationResult
from repro.core.selection import (
    CATEGORY_VALID,
    LoopCandidate,
    estimated_benefit,
)
from repro.ir.printer import format_instr

__all__ = ["cache_probe_text", "explain_loop_text", "explain_text"]


def _describe_instr(instr) -> str:
    try:
        return format_instr(instr)
    except Exception:
        return repr(instr)


def explain_loop_text(
    candidate: LoopCandidate, config: SptConfig, verbose: bool = True
) -> str:
    """The provenance report for one loop candidate."""
    lines: List[str] = []
    verdict = "SELECTED" if candidate.selected else "rejected"
    lines.append(f"loop {candidate.key} — {candidate.category} ({verdict})")

    lines.append(
        f"  body size      {candidate.dynamic_body_size:10.2f} ops/iter"
        f"   (selectable range [{config.min_body_size}, "
        f"{config.max_body_size}])"
    )
    lines.append(
        f"  trip count     {candidate.trip_count:10.2f} iter/entry"
        f"   (minimum {config.min_trip_count:g})"
    )
    lines.append(
        f"  iterations     {candidate.total_iterations:10d} profiled"
    )
    if candidate.svp_applied:
        lines.append("  svp            applied (loop re-analyzed after SVP)")

    partition = candidate.partition
    if partition is not None and not partition.skipped_too_many_vcs:
        size = candidate.dynamic_body_size
        lines.append(
            f"  misspec cost   {partition.cost:10.4f}"
            f"   (threshold {config.cost_threshold(size):.4f}"
            f" = {config.cost_fraction:g} × body size)"
        )
        lines.append(
            f"  prefork size   {partition.prefork_size:10.2f}"
            f"   (threshold {config.prefork_size_threshold(size):.2f}"
            f" = {config.prefork_fraction:g} × body size)"
        )
        lines.append(
            "  search         "
            f"{partition.search_nodes} nodes, "
            f"{partition.evaluations} cost evaluations "
            f"({partition.cache_hit_rate:.0%} cache hits), "
            f"{partition.cost_node_visits} node visits"
        )
        lines.append(
            "  pruning        "
            f"{partition.pruned_size} subtrees cut by size bound, "
            f"{partition.pruned_bound} by cost lower bound"
        )
        if not partition.optimal:
            causes = []
            if partition.budget_exhausted:
                causes.append(
                    f"node budget ({config.max_search_nodes}) exhausted"
                )
            if partition.deadline_exhausted:
                causes.append(
                    f"anytime deadline ({config.search_deadline_ms:g} ms)"
                    " expired"
                )
            lines.append(
                "  optimality     best-so-far, NOT proven optimal: "
                + "; ".join(causes)
            )
        else:
            lines.append("  optimality     proven optimal (search completed)")
        if partition.vc_breakdown:
            lines.append(
                f"  violation candidates ({len(partition.vc_breakdown)}):"
            )
            for vc, in_prefork, marginal in partition.vc_breakdown:
                placement = "pre-fork " if in_prefork else "post-fork"
                impact = (
                    f"evicting costs +{marginal:.4f}"
                    if in_prefork
                    else f"admitting saves {marginal:.4f}"
                )
                lines.append(
                    f"    [{placement}] p_violate={vc.violation_prob:.3f}"
                    f"  {impact}   {_describe_instr(vc.instr)}"
                )
        if verbose and partition.prefork_stmts:
            lines.append(
                f"  prefork region ({len(partition.prefork_stmts)} statements):"
            )
            for instr in sorted(
                partition.prefork_stmts, key=lambda i: _describe_instr(i)
            ):
                lines.append(f"    {_describe_instr(instr)}")
    elif partition is not None:
        lines.append(
            f"  partition      skipped: {len(partition.candidates)} violation"
            f" candidates exceed the limit of"
            f" {config.max_violation_candidates} (§5.2)"
        )

    if candidate.category == CATEGORY_VALID or candidate.selected:
        benefit = estimated_benefit(candidate, config)
        lines.append(
            f"  est. benefit   {benefit:10.1f} cycles saved over the run"
        )
    if candidate.rejection is not None:
        lines.append(f"  rejection      {candidate.rejection}")
    if candidate.transform_error is not None:
        lines.append(f"  transform err  {candidate.transform_error}")
    if candidate.degradation is not None:
        lines.append(f"  degradation    {candidate.degradation}")
    verdict_line = (
        "selected as SPT loop and transformed"
        if candidate.selected
        else f"not selected ({candidate.category})"
    )
    lines.append(f"  verdict        {verdict_line}")
    return "\n".join(lines)


def explain_text(
    result: CompilationResult,
    config: SptConfig,
    loop: Optional[str] = None,
    verbose: bool = True,
) -> str:
    """Provenance reports for every candidate (or just ``loop``,
    given as ``func:header``)."""
    candidates = result.candidates
    if loop is not None:
        candidates = [c for c in candidates if c.key == loop]
        if not candidates:
            known = ", ".join(c.key for c in result.candidates) or "<none>"
            return f"no loop candidate {loop!r} (known: {known})"
    sections = [
        explain_loop_text(candidate, config, verbose=verbose)
        for candidate in candidates
    ]
    histogram = result.category_histogram()
    summary = ", ".join(
        f"{category}={count}"
        for category, count in histogram.items()
        if count
    )
    header = (
        f"{len(result.candidates)} loop candidates, "
        f"{len(result.selected)} selected  [{summary}]"
    )
    if result.degradations:
        degradation_lines = [
            f"{len(result.degradations)} contained degradation(s):"
        ] + [f"  {record}" for record in result.degradations]
        sections.append("\n".join(degradation_lines))
    if loop is None and result.trace_stats:
        sections.append(trace_stats_text(result.trace_stats))
    return "\n\n".join([header] + sections)


def trace_stats_text(trace_stats: dict) -> str:
    """Render the profiling run's hot-trace compilation statistics
    (``CompilationResult.trace_stats``): per-trace compile counts,
    guard-failure rates, and the fraction of dynamic ops that retired
    inside compiled traces."""
    traces = trace_stats.get("traces", {})
    executed = trace_stats.get("executed", 0)
    lines = [f"hot-trace compilation ({len(traces)} trace(s) in profiling run):"]
    on_trace = 0
    for key in sorted(traces):
        entry = traces[key]
        on_trace += entry["ops_on_trace"]
        shape = "cyclic" if entry["cyclic"] else "linear"
        lines.append(
            f"  {key:<28} {shape:<6} {len(entry['path'])} blocks"
            f"  compiles={entry['compiles']}"
            f"  passes={entry['passes']}"
            f"  guard-fail={entry['guard_failure_rate'] * 100:.1f}%"
            f"  ops={entry['ops_on_trace']}"
        )
    if executed:
        lines.append(
            f"  {on_trace}/{executed} dynamic ops"
            f" ({on_trace / executed * 100:.1f}%) retired on traces"
        )
    return "\n".join(lines)


def cache_probe_text(probe: dict) -> str:
    """Render a batch-cache probe (``repro explain --cache-dir``).

    ``probe`` is the dict :func:`repro.batch.worker.probe_cache`
    produces: whether this exact (program, config, workload) is warm in
    the persistent result cache."""
    lines = [f"result cache ({probe['cache_dir']}):"]
    lines.append(f"  program key    {probe['program_key'][:16]}…")
    if probe["program_hit"]:
        lines.append("  program entry  HIT")
        lines.append(
            "  note           a batch run would serve this result warm"
        )
    else:
        lines.append(
            "  program entry  MISS (a batch run would compile this"
            " program cold)"
        )
    return "\n".join(lines)

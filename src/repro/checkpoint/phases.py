"""Partition-search entries: the compile-phase checkpoints behind
``--checkpoint-phases``.

The partition search is the one compilation phase whose cost is
unbounded in the worst case, and the one the resilience ladder retries
on ever-cheaper rungs.  With ``--checkpoint-phases`` every completed
search becomes a ``search`` entry of a
:class:`~repro.batch.cache.ResultCache` (fsynced, under
``<checkpoint-dir>/phases``): a compile that crashed (or was
SIGKILLed) mid-run re-runs, and every loop whose search already
completed restores its :class:`~repro.core.partition.PartitionResult`
instead of searching again.

The entry key (:meth:`ResultCache.search_key`) extends the loop key of
the *program key* -- canonical module IR x config x workload -- with
the rung config fingerprint and the post-SSA function text.  Pass 1
derives its probabilities from one training run's profiles, so a
search is reusable only for the same module *and* workload; a
different workload, config, or an SVP rewrite of the function misses.

A :class:`~repro.core.partition.PartitionResult` holds live
:class:`~repro.core.violation.ViolationCandidate` and IR instruction
objects, which cannot be serialized directly.  Two facts make a compact
durable form possible:

* ``find_violation_candidates(graph)`` is cheap and deterministic --
  re-running it on the freshly rebuilt dependence graph reproduces the
  exact candidate list, so the entry only needs to *name* the pre-fork
  members, not embed them;
* instructions are named by their stable ``block<US>position``
  coordinate within the (post-SSA) function, exactly like
  :class:`repro.checkpoint.state.InstrIndex` does module-wide, and the
  dependence graph's inner-loop summary nodes by ``summary<US>header``.

An entry whose candidate count differs from rediscovery, or that names
an instruction the function does not have, is a corrupt miss; the
search then simply runs.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.batch.cache import ResultCache
from repro.checkpoint.store import default_checkpoint_dir
from repro.ir.printer import format_function, format_module

__all__ = ["load_search", "module_key", "phase_cache", "save_search"]

_SEP = "\x1f"

#: PartitionResult attributes stored verbatim: JSON round-trips int vs
#: float exactly, and manifests must stay byte-identical whether the
#: search ran or restored.
_SCALARS = (
    "cost", "prefork_size", "body_size", "search_nodes",
    "skipped_too_many_vcs", "evaluations", "cache_hits",
    "cost_node_visits", "pruned_size", "pruned_bound",
    "budget_exhausted", "deadline_exhausted",
)


def phase_cache(checkpoint_dir: Optional[str] = None) -> ResultCache:
    """The result cache search entries live in:
    ``<checkpoint-dir>/phases``, fsynced, with the ``checkpoint.save``
    / ``checkpoint.restore`` fault sites."""
    return ResultCache(
        os.path.join(checkpoint_dir or default_checkpoint_dir(), "phases"),
        fsync=True, fault_site="checkpoint",
    )


def module_key(module, config, workload) -> str:
    """The result-cache program key of ``module`` before compilation --
    the same key a batch run derives from the module's source."""
    return ResultCache.program_key(
        format_module(module, name="m"),
        config.fingerprint(),
        ResultCache.workload_token(
            workload.entry, workload.args, workload.fuel
        ),
    )


def _search_key(program_key: str, func, loop_header: str, config) -> str:
    return ResultCache.search_key(
        program_key, func.name, loop_header, config.fingerprint(),
        format_function(func),
    )


def _instr_index(func, graph) -> Tuple[Dict[int, str], Dict[str, object]]:
    """``id(instr) -> key`` and ``key -> instr`` over one function's
    instructions and one loop graph's inner-loop summary nodes."""
    named = [
        (_SEP.join((block.label, str(position))), instr)
        for block in func.blocks
        for position, instr in enumerate(block.instrs)
    ]
    named += [
        (_SEP.join(("summary", header)), summary)
        for header, summary in graph.summaries.items()
    ]
    key_by_id = {id(instr): key for key, instr in named}
    return key_by_id, dict(named)


def save_search(cache: ResultCache, program_key: str, func,
                loop_header: str, config, graph, partition) -> None:
    """Durably record a completed partition search of ``program_key``
    (see :func:`module_key`).  A partition naming an instruction the coordinate
    index cannot name is counted as a failed write; the next compile
    just searches again."""
    key_by_id, _ = _instr_index(func, graph)
    try:
        state = {
            "n_candidates": len(partition.candidates),
            "prefork_vc_keys": [
                key_by_id[id(vc.instr)] for vc in partition.prefork_vcs
            ],
            "prefork_stmt_keys": sorted(
                key_by_id[id(instr)] for instr in partition.prefork_stmts
            ),
            "vc_breakdown": [
                [key_by_id[id(vc.instr)], bool(in_prefork), marginal]
                for vc, in_prefork, marginal in partition.vc_breakdown
            ],
            "scalars": {name: getattr(partition, name) for name in _SCALARS},
        }
    except KeyError:
        cache.stats.write_failures += 1
        return
    cache.put(
        _search_key(program_key, func, loop_header, config), "search", state
    )


def load_search(cache: ResultCache, program_key: str, func,
                loop_header: str, config, graph):
    """Rebuild the stored :class:`PartitionResult` for this exact
    (program, workload, function, loop, rung config), or None.

    Re-runs the cheap, deterministic violation-candidate discovery on
    ``graph`` and grafts the stored pre-fork assignment onto the
    rediscovered objects; only the expensive branch-and-bound is
    skipped."""
    from repro.core.partition import PartitionResult
    from repro.core.violation import find_violation_candidates

    def decode(state):
        candidates = find_violation_candidates(graph)
        if len(candidates) != int(state["n_candidates"]):
            raise ValueError("candidate count mismatch")
        key_by_id, instr_by_key = _instr_index(func, graph)
        vc_by_key = {key_by_id[id(vc.instr)]: vc for vc in candidates}
        partition = PartitionResult(
            graph.loop,
            candidates,
            [vc_by_key[k] for k in state["prefork_vc_keys"]],
            {instr_by_key[k] for k in state["prefork_stmt_keys"]},
            **{name: state["scalars"][name] for name in _SCALARS},
        )
        partition.vc_breakdown = [
            (vc_by_key[coord], in_prefork, marginal)
            for coord, in_prefork, marginal in state["vc_breakdown"]
        ]
        return partition

    return cache.get(
        _search_key(program_key, func, loop_header, config), "search",
        decode=decode,
    )

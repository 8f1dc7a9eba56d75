"""Violation-candidate identification (paper §4.2.1).

A *violation candidate* (VC) is the source of a cross-iteration true
data dependence: if it executes in the main thread's post-fork region,
the speculative thread (running the next iteration) may consume a stale
value and must re-execute the affected computation.

Register-carried candidates come from SSA structure: the definitions
feeding a loop-header phi around the back edge.  When the latch-incoming
value is itself a non-header phi (a conditional update, or the
check-and-recovery merge that software value prediction introduces), the
phi is *expanded* into the set of real definitions feeding it; each
inherits the phi's readers and a violation probability equal to its own
reaching probability.  This is what step 1 of §4.2.3 calls the violation
ratio: "how often the main thread will reach it and modify its results".

Memory-carried candidates are the sources of cross-iteration store->load
(or call) edges from the dependence graph.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.depgraph import LoopDepGraph
from repro.ir.instr import Instr, Phi


class ViolationCandidate:
    """One violation candidate with its cross-iteration readers."""

    def __init__(self, instr: Instr, violation_prob: float):
        self.instr = instr
        #: Probability, per iteration, that this statement executes and
        #: modifies the carried value (§4.2.3 step 1).
        self.violation_prob = violation_prob
        #: (reader instr, dependence probability) pairs -- the edges the
        #: cost graph draws from this candidate's pseudo node.
        self.readers: List[Tuple[Instr, float]] = []

    def add_reader(self, reader: Instr, prob: float) -> None:
        for index, (existing, old_prob) in enumerate(self.readers):
            if existing is reader:
                # Independent carriers combine: 1 - (1-p1)(1-p2).
                self.readers[index] = (existing, 1 - (1 - old_prob) * (1 - prob))
                return
        self.readers.append((reader, prob))

    def __repr__(self) -> str:
        return (
            f"VC({self.instr!r}, p_violate={self.violation_prob:.2f}, "
            f"{len(self.readers)} readers)"
        )


def _expand_phi_sources(
    graph: LoopDepGraph, instr: Instr, path_prob: float = 1.0, seen=None
) -> List[Tuple[Instr, float]]:
    """Resolve a non-header phi into the concrete defs feeding it.

    Each source carries the probability that *its* value is the one the
    phi selects (the product of phi-selection probabilities along the
    chain) -- this is what makes a rarely-taken SVP recovery path a
    low-probability violation candidate.
    """
    if seen is None:
        seen = set()
    if id(instr) in seen:
        return []
    seen.add(id(instr))

    header_label = graph.loop.header
    info = graph.info.get(instr)
    is_header_phi = (
        isinstance(instr, Phi) and info is not None and info.block == header_label
    )
    if is_header_phi:
        # Reaching a header phi means the value survived the iteration
        # unmodified -- no statement to blame, no violation.
        return []
    if not isinstance(instr, Phi):
        return [(instr, path_prob)]

    sources: List[Tuple[Instr, float]] = []
    for edge in graph.intra_preds(instr, kinds=("true",)):
        sources.extend(
            _expand_phi_sources(graph, edge.src, path_prob * edge.prob, seen)
        )
    return sources


def find_violation_candidates(graph: LoopDepGraph) -> List[ViolationCandidate]:
    """All violation candidates of the loop, with readers attached.

    Candidates are returned in program order (deterministic).
    """
    by_instr: Dict[int, ViolationCandidate] = {}

    def candidate_for(instr: Instr, prob: float) -> ViolationCandidate:
        vc = by_instr.get(id(instr))
        if vc is None:
            vc = ViolationCandidate(instr, prob)
            by_instr[id(instr)] = vc
        else:
            # The same statement reached through several carriers is
            # still one modification event: keep the strongest estimate.
            vc.violation_prob = max(vc.violation_prob, prob)
        return vc

    for edge in graph.cross_true_edges():
        sources = _expand_phi_sources(graph, edge.src)
        for src, path_prob in sources:
            if src not in graph.info:
                continue
            prob = min(graph.reach(src), path_prob)
            vc = candidate_for(src, prob)
            vc.add_reader(edge.dst, edge.prob)

    candidates = list(by_instr.values())
    candidates.sort(key=lambda vc: graph.order(vc.instr))
    return candidates

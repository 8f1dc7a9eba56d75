"""The violation-candidate dependence graph (paper §5.1) and the
pre-fork legality closure.

Legality (§5): a partition is legal iff no forward intra-iteration
dependence becomes backward -- equivalently, the pre-fork region must be
closed under intra-iteration dependence *predecessors*.  The closure
covers:

* true data dependences (operand producers must move along),
* anti and output memory dependences (a store may not be hoisted above
  an aliasing earlier load/store),
* control dependences (the guarding branch condition is replicated into
  the pre-fork region -- Figure 12).

The search itself only enumerates violation candidates; every other
statement is dragged in (or not) by this closure.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import add, itemgetter
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.analysis.depgraph import LoopDepGraph
from repro.core.violation import ViolationCandidate
from repro.ir.instr import Instr, Phi

#: Dependence kinds that constrain statement ordering (legality).
ORDERING_KINDS = ("true", "anti", "output", "control")

#: bytes.translate table from binary digits to compress() selectors.
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def statement_closure(
    graph: LoopDepGraph, seeds: Iterable[Instr]
) -> Set[Instr]:
    """All statements that must join the pre-fork region with ``seeds``.

    Transitive intra-iteration predecessor closure over ordering
    dependences.  Header phis terminate the walk: they resolve at the
    very start of the iteration and are implicitly pre-fork already.
    """
    header = graph.loop.header
    closure: Set[Instr] = set()
    stack: List[Instr] = list(seeds)
    while stack:
        instr = stack.pop()
        if instr in closure:
            continue
        closure.add(instr)
        info = graph.info.get(instr)
        if info is None:
            continue
        if isinstance(instr, Phi) and info.block == header:
            continue  # iteration-start value; nothing to drag along
        if isinstance(instr, Phi):
            # A replicated join phi needs the branch that decides which
            # incoming wins: drag in its predecessor blocks' terminators
            # (their control dependences then pull the deciding branch).
            block_map = graph.func.block_map()
            for pred_label in instr.incomings:
                pred = block_map.get(pred_label)
                if pred is None:
                    continue
                term = pred.terminator
                if term is not None and term in graph.info and term not in closure:
                    stack.append(term)
        for edge in graph.intra_preds(instr, kinds=ORDERING_KINDS):
            if edge.src not in closure:
                stack.append(edge.src)
    return closure


def closure_size(graph: LoopDepGraph, closure: Iterable[Instr]) -> float:
    """Pre-fork region size in elementary operations.

    Weighted by reaching probability so a rarely executed conditional
    statement contributes its expected (dynamic) size.
    """
    # A left fold in topological order: float addition is not
    # associative, and ``closure`` is a set whose iteration order varies
    # per process, so an unordered sum could flip partition decisions
    # that sit within the search's 1e-12 tie tolerance from one run to
    # the next.  Builtin sum() would compensate the rounding from Python
    # 3.12 on and so disagree with mask_size and with earlier Pythons.
    terms = sorted(_size_term(graph, instr) for instr in closure)
    return reduce(add, map(itemgetter(1), terms), 0)


def _size_term(graph: LoopDepGraph, instr: Instr) -> Tuple[int, float]:
    """``(topological order, expected size)`` of one statement."""
    info = graph.info.get(instr)
    reach = info.reach if info is not None else 1.0
    order = info.order if info is not None else -1
    return order, instr.cost * reach


class VCDepGraph:
    """Dependences among violation candidates (nodes in topological
    order, i.e. program order within the iteration)."""

    def __init__(
        self,
        graph: LoopDepGraph,
        candidates: Sequence[ViolationCandidate],
    ):
        self.graph = graph
        #: Candidates sorted by topological order number.
        self.candidates = sorted(
            candidates, key=lambda vc: graph.order(vc.instr)
        )
        n = len(self.candidates)
        #: preds[i] = indices of candidates that candidate i depends on.
        self.preds: List[Set[int]] = [set() for _ in range(n)]
        self.succs: List[Set[int]] = [set() for _ in range(n)]
        #: closures[i] = statement closure of candidate i alone.
        self.closures: List[Set[Instr]] = []

        index_of = {id(vc.instr): i for i, vc in enumerate(self.candidates)}
        for i, vc in enumerate(self.candidates):
            closure = statement_closure(graph, [vc.instr])
            self.closures.append(closure)
            for instr in closure:
                j = index_of.get(id(instr))
                if j is not None and j != i:
                    self.preds[i].add(j)
                    self.succs[j].add(i)

        # Sizes by bitmask: one bit per closure statement, ranked as
        # closure_size sorts them, so summing a union's set bits from
        # the lowest up repeats closure_size's additions exactly.
        terms = {
            instr: _size_term(graph, instr)
            for closure in self.closures for instr in closure
        }
        ranked = sorted(terms, key=terms.__getitem__)
        bit = {instr: 1 << rank for rank, instr in enumerate(ranked)}
        self._weights = [terms[instr][1] for instr in ranked]
        #: masks[i] = candidate i's closure as a bitmask over the ranking.
        self.masks: List[int] = [
            sum(bit[instr] for instr in closure) for closure in self.closures
        ]
        self._sizes: Dict[int, float] = {}

    def __len__(self) -> int:
        return len(self.candidates)

    def addable(self, selected: Set[int], min_index: int) -> List[int]:
        """Candidate indices that may be added next: topological number
        above ``min_index`` (canonical enumeration, §5.2) and all
        VC-dep predecessors already selected."""
        result = []
        for i in range(min_index + 1, len(self.candidates)):
            if i in selected:
                continue
            if self.preds[i] <= selected:
                result.append(i)
        return result

    def downward_closed(self, selected: Set[int]) -> bool:
        """Whether ``selected`` contains all of its own predecessors."""
        return all(self.preds[i] <= selected for i in selected)

    def union_closure(self, selected: Iterable[int]) -> Set[Instr]:
        """Statements moved pre-fork for this candidate selection."""
        result: Set[Instr] = set()
        for i in selected:
            result |= self.closures[i]
        return result

    def mask_size(self, mask: int) -> float:
        """Pre-fork size of the statements in ``mask``: bit for bit
        ``closure_size`` of the same statements, memoized per mask.
        The set bits' weights are folded from the lowest rank up."""
        size = self._sizes.get(mask)
        if size is None:
            # bin() reversed lists the bits lowest first; the table
            # turns its digits into the 0/1 selectors compress() takes.
            selectors = bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)
            size = reduce(add, compress(self._weights, selectors), 0)
            self._sizes[mask] = size
        return size

    def partition_size(self, selected: Iterable[int]) -> float:
        mask = 0
        for i in selected:
            mask |= self.masks[i]
        return self.mask_size(mask)

"""The annotated loop data-dependence graph (paper §4.1).

For one loop body (in SSA form) we build a graph whose nodes are the
body's instructions (header phis included) and whose edges are:

* **register true** dependences from SSA def-use chains;
* **memory** dependences (true/anti/output) from the type-based alias
  analysis, optionally sharpened by a dependence profile;
* **control** dependences from branch blocks to the statements they
  guard (used for the legality closure and branch replication, not for
  misspeculation cost);
* **cross-iteration true** dependences: register values flowing around
  the back edge into header phis, and may-alias store->load pairs
  across iterations.

Inner loops of the candidate's body are collapsed into
:class:`~repro.analysis.loopsummary.LoopSummary` nodes so the graph
stays a DAG and the paper's pass-1 evaluation of *every* nesting level
works uniformly.

Every true edge carries a probability ``prob``: for every N executions
of the source, ``prob*N`` executions of the destination read the value
the source produced (paper §4.1).  Static construction estimates it
from reaching probabilities; a dependence profile replaces the estimate
with measured frequencies (§7.3 -- "there was no change to the
underlying cost computation module": only this annotation step consumes
the profile).
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.analysis import alias as alias_mod
from repro.analysis.cfg import CFG
from repro.analysis.controldep import compute_control_deps
from repro.analysis.loops import Loop
from repro.analysis.loopsummary import DEFAULT_INNER_TRIP, LoopSummary
from repro.ir.block import Block
from repro.ir.function import Function, Module
from repro.ir.instr import Branch, Call, Instr, Phi
from repro.ir.values import Const, Var

#: Default probability for a may-alias (but unproven) memory dependence,
#: used when no dependence profile is available.  Deliberately
#: conservative -- the paper's "basic compilation" (static deps only)
#: suffers exactly this conservatism.
STATIC_MEM_PROB = 0.5

#: Static probability of an impure call clobbering any given location.
STATIC_CALL_PROB = 0.5


class DepEdge:
    """One dependence edge ``src -> dst``."""

    __slots__ = ("src", "dst", "kind", "cross", "prob", "carrier", "var")

    def __init__(
        self,
        src: Instr,
        dst: Instr,
        kind: str,
        cross: bool,
        prob: float,
        carrier: str,
        var: Optional[Var] = None,
    ):
        self.src = src
        self.dst = dst
        #: "true" | "anti" | "output" | "control"
        self.kind = kind
        #: Whether the dependence crosses the loop back edge.
        self.cross = cross
        #: Realization probability (paper §4.1).
        self.prob = prob
        #: "reg" | "mem" | "ctrl"
        self.carrier = carrier
        #: Register carrying the value (register dependences only).
        self.var = var

    def __repr__(self) -> str:
        span = "cross" if self.cross else "intra"
        return (
            f"DepEdge({self.src!r} -> {self.dst!r}, {self.kind}/{span}, "
            f"p={self.prob:.2f})"
        )


class StmtInfo:
    """Placement metadata for one loop-body node."""

    __slots__ = ("instr", "block", "index", "order", "reach")

    def __init__(self, instr: Instr, block: str, index: int, order: int, reach: float):
        self.instr = instr
        self.block = block
        self.index = index
        #: Global topological position within the iteration.
        self.order = order
        #: Probability the statement executes in an iteration.
        self.reach = reach


def expected_size(infos: Iterable[StmtInfo]) -> float:
    """Expected size of statements in elementary operations: their
    ``cost * reach`` folded left in the given order.  Never builtin
    sum(), which compensates float rounding from Python 3.12 on."""
    return reduce(add, (info.instr.cost * info.reach for info in infos), 0)


class LoopDepGraph:
    """Annotated dependence graph of one loop body."""

    def __init__(self, module: Module, func: Function, loop: Loop):
        self.module = module
        self.func = func
        self.loop = loop
        self.edges: List[DepEdge] = []
        #: instr -> StmtInfo for every body node.
        self.info: Dict[Instr, StmtInfo] = {}
        #: Inner-loop summary nodes, by child header label.
        self.summaries: Dict[str, LoopSummary] = {}
        #: Outgoing/incoming adjacency over *all* edge kinds.
        self.out_edges: Dict[Instr, List[DepEdge]] = {}
        self.in_edges: Dict[Instr, List[DepEdge]] = {}

    # -- queries -------------------------------------------------------

    @property
    def nodes(self) -> List[Instr]:
        return [
            info.instr
            for info in sorted(self.info.values(), key=lambda s: s.order)
        ]

    def reach(self, instr: Instr) -> float:
        return self.info[instr].reach

    def order(self, instr: Instr) -> int:
        return self.info[instr].order

    def cross_true_edges(self) -> List[DepEdge]:
        return [e for e in self.edges if e.cross and e.kind == "true"]

    def intra_preds(self, instr: Instr, kinds: Iterable[str]) -> List[DepEdge]:
        kind_set = set(kinds)
        return [
            e
            for e in self.in_edges.get(instr, ())
            if not e.cross and e.kind in kind_set
        ]

    def intra_succs(self, instr: Instr, kinds: Iterable[str]) -> List[DepEdge]:
        kind_set = set(kinds)
        return [
            e
            for e in self.out_edges.get(instr, ())
            if not e.cross and e.kind in kind_set
        ]

    def _add_edge(self, edge: DepEdge) -> None:
        self.edges.append(edge)
        self.out_edges.setdefault(edge.src, []).append(edge)
        self.in_edges.setdefault(edge.dst, []).append(edge)


Unit = Union[Block, Loop]


def _contracted_units(
    func: Function, loop: Loop, cfg: CFG
) -> Tuple[List[Unit], Dict[str, Loop], Dict[str, List[str]]]:
    """The loop body with immediate inner loops contracted to one unit.

    Returns (units in topological order, block->child map, contracted
    successor map keyed by representative label).
    """
    child_of: Dict[str, Loop] = {}
    for child in loop.children:
        for label in child.body:
            child_of[label] = child

    def rep(label: str) -> Optional[str]:
        """Representative label of the contracted node, or None if the
        label leaves the loop or returns to the header."""
        if label == loop.header or label not in loop.body:
            return None
        child = child_of.get(label)
        return child.header if child is not None else label

    succs: Dict[str, Set[str]] = {}
    reps: Dict[str, Unit] = {}
    block_map = func.block_map()

    def unit_for(rep_label: str) -> Unit:
        child = child_of.get(rep_label)
        return child if child is not None else block_map[rep_label]

    # Seed with the header itself (always a plain block unit).
    reps[loop.header] = block_map[loop.header]
    succs[loop.header] = set()

    worklist = [loop.header]
    while worklist:
        current = worklist.pop()
        if current == loop.header:
            out_labels = cfg.succs[current]
        else:
            unit = unit_for(current)
            if isinstance(unit, Loop):
                out_labels = [dst for _, dst in unit.exit_edges(cfg)]
            else:
                out_labels = cfg.succs[current]
        for target in out_labels:
            target_rep = rep(target)
            if target_rep is None or target_rep == current:
                continue
            succs.setdefault(current, set()).add(target_rep)
            if target_rep not in reps:
                reps[target_rep] = unit_for(target_rep)
                succs.setdefault(target_rep, set())
                worklist.append(target_rep)

    # Topological order via DFS postorder (the contracted graph is a DAG).
    visited: Set[str] = set()
    post: List[str] = []

    def visit(label: str) -> None:
        stack = [(label, iter(sorted(succs.get(label, ()))))]
        visited.add(label)
        while stack:
            current, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, iter(sorted(succs.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                post.append(current)
                stack.pop()

    visit(loop.header)
    ordered = [reps[label] for label in reversed(post)]
    succ_lists = {label: sorted(targets) for label, targets in succs.items()}
    return ordered, child_of, succ_lists


def _static_edge_prob(func: Function, loop: Loop):
    """Static branch probabilities: even split, except that edges
    staying inside the loop win over loop exits (an exit is taken at
    most once per loop invocation, so per-iteration its probability is
    ~1/trip-count; we round it to 0)."""

    def prob(src: str, dst: str) -> float:
        if not func.has_block(src):
            return 1.0
        term = func.block(src).terminator
        if isinstance(term, Branch):
            targets = set(term.targets())
            if dst not in targets:
                return 0.0
            in_loop = {t for t in targets if t in loop.body}
            if dst in in_loop and in_loop != targets:
                return 1.0 if len(in_loop) == 1 else 1.0 / len(in_loop)
            if dst not in in_loop and in_loop:
                return 0.0
            return 1.0 / len(targets)
        return 1.0

    return prob


def _unit_label(unit: Unit) -> str:
    return unit.header if isinstance(unit, Loop) else unit.label


def _contracted_edge_prob(child_of: Dict[str, Loop], base_prob):
    """Edge probability between contracted units.

    An edge out of an inner-loop unit is the inner loop's exit edge; per
    outer iteration the inner loop eventually exits, so such edges get
    probability 1 (split evenly over multiple exits).
    """

    def prob(src_rep: str, dst_rep: str) -> float:
        if src_rep in child_of:
            return 1.0
        return base_prob(src_rep, dst_rep)

    return prob


def _reach_probabilities(
    loop: Loop,
    units: List[Unit],
    succ_lists: Dict[str, List[str]],
    edge_prob,
) -> Dict[str, float]:
    """Per-unit probability of executing in one iteration."""
    preds: Dict[str, List[str]] = {}
    for src, targets in succ_lists.items():
        for dst in targets:
            preds.setdefault(dst, []).append(src)

    reach: Dict[str, float] = {loop.header: 1.0}
    for unit in units:
        label = _unit_label(unit)
        if label == loop.header:
            continue
        total = 0.0
        for pred in preds.get(label, ()):
            total += reach.get(pred, 0.0) * edge_prob(pred, label)
        reach[label] = min(total, 1.0)
    return reach


def build_dep_graph(
    module: Module,
    func: Function,
    loop: Loop,
    edge_profile=None,
    dep_profile=None,
    static_mem_prob: float = STATIC_MEM_PROB,
    static_call_prob: float = STATIC_CALL_PROB,
    modref=None,
) -> LoopDepGraph:
    """Build the annotated dependence graph for ``loop``.

    ``edge_profile`` (optional) supplies branch probabilities and inner
    trip counts; ``dep_profile`` is a
    :class:`~repro.profiling.dep_profile.LoopDepView` for this loop;
    ``modref`` (optional) supplies interprocedural call summaries used by
    the anticipated compilation.
    """
    graph = LoopDepGraph(module, func, loop)
    cfg = CFG.build(func)
    units, child_of, succ_lists = _contracted_units(func, loop, cfg)

    if edge_profile is not None:
        def raw_prob(src, dst):
            return edge_profile.branch_prob(func.name, src, dst)
    else:
        raw_prob = _static_edge_prob(func, loop)

    blocks = func.block_map()

    def base_prob(src, dst):
        # Pass-inserted branch hints (e.g. SVP's misprediction rate)
        # override both static estimates and stale profiles.
        if src in blocks:
            hint = blocks[src].annotations.get("branch_hint")
            if hint is not None and dst in hint:
                return hint[dst]
        return raw_prob(src, dst)

    edge_prob = _contracted_edge_prob(child_of, base_prob)
    unit_reach = _reach_probabilities(loop, units, succ_lists, edge_prob)

    # -- enumerate nodes ------------------------------------------------
    order = 0
    defs: Dict[Var, Instr] = {}
    for unit in units:
        label = _unit_label(unit)
        reach = unit_reach.get(label, 0.0)
        if isinstance(unit, Loop):
            trip = DEFAULT_INNER_TRIP
            if edge_profile is not None:
                measured = edge_profile.trip_count(func, unit, cfg)
                if measured > 0:
                    trip = measured
            summary = LoopSummary(unit, func, trip)
            graph.summaries[unit.header] = summary
            graph.info[summary] = StmtInfo(summary, label, -1, order, reach)
            order += 1
            for var in summary.defs:
                defs[var] = summary
        else:
            for index, instr in enumerate(unit.instrs):
                graph.info[instr] = StmtInfo(instr, label, index, order, reach)
                order += 1
                if instr.dest is not None:
                    defs[instr.dest] = instr

    header_block = func.block(loop.header)
    header_phis = list(header_block.phis())
    header_phi_ids = set(map(id, header_phis))
    latch_labels = set(loop.latches(cfg))

    # -- register true dependences --------------------------------------
    for info in list(graph.info.values()):
        instr = info.instr
        if id(instr) in header_phi_ids:
            continue  # handled below as cross-iteration carriers
        if isinstance(instr, Phi):
            # The edge probability is the chance the phi *selects* this
            # incoming: P(control arrived via pred | phi block executes).
            for pred_label, value in instr.incomings.items():
                if not isinstance(value, Var):
                    continue
                src = defs.get(value)
                if src is None or src not in graph.info or src is instr:
                    continue
                pred_reach = unit_reach.get(pred_label, info.reach)
                flow = pred_reach * edge_prob(pred_label, info.block)
                if info.reach > 0:
                    flow /= info.reach
                prob = max(0.0, min(1.0, flow))
                graph._add_edge(
                    DepEdge(src, instr, "true", False, prob, "reg", value)
                )
            continue
        for value in instr.uses():
            if not isinstance(value, Var):
                continue
            src = defs.get(value)
            if src is None or src not in graph.info or src is instr:
                continue  # loop-invariant input (or internal to a summary)
            src_info = graph.info[src]
            prob = _conditional_prob(src_info.reach, info.reach)
            graph._add_edge(DepEdge(src, instr, "true", False, prob, "reg", value))

    # -- cross-iteration register dependences ---------------------------
    for phi in header_phis:
        for pred_label, value in phi.incomings.items():
            if pred_label not in latch_labels or not isinstance(value, Var):
                continue
            src = defs.get(value)
            if src is None or src not in graph.info:
                continue
            if id(src) in header_phi_ids:
                # The carried value is the unmodified iteration-start
                # value; nothing modifies it, so no violation.
                continue
            graph._add_edge(DepEdge(src, phi, "true", True, 1.0, "reg", value))

    # -- memory dependences ----------------------------------------------
    mem_ops = [
        info.instr
        for info in sorted(graph.info.values(), key=lambda s: s.order)
        if _touches_memory(info.instr, modref)
    ]

    def measured_prob(writer: Instr, reader: Instr, cross: bool) -> Optional[float]:
        if dep_profile is None:
            return None
        writers = _concrete_mem_instrs(writer, func)
        readers = _concrete_mem_instrs(reader, func)
        return dep_profile.mem_prob_agg(writers, readers, cross)

    def offset_invariant(node: Instr) -> bool:
        """Whether a memory op's address is the same every iteration."""
        offset = getattr(node, "offset", None)
        if isinstance(offset, Const):
            return True
        if isinstance(offset, Var):
            # Defined outside the loop body => loop-invariant.
            for info in graph.info:
                if getattr(info, "dest", None) == offset:
                    return False
            return True
        return False

    def mem_prob(writer: Instr, reader: Instr, cross: bool) -> float:
        measured = measured_prob(writer, reader, cross)
        if measured is not None:
            return measured
        if alias_mod.same_location(writer, reader):
            # "Same offset register" only means same address across
            # iterations when the offset does not vary with the
            # iteration.
            if not cross or offset_invariant(writer):
                return 1.0
        if isinstance(writer, Call) or isinstance(reader, Call):
            return static_call_prob
        return static_mem_prob

    def node_may_alias(a: Instr, b: Instr) -> bool:
        if modref is not None:
            return modref.may_alias(func, a, b)
        return alias_mod.may_alias(module, func, a, b)

    for i, first in enumerate(mem_ops):
        for second in mem_ops[i:]:
            if not node_may_alias(first, second):
                continue
            intra = graph.order(first) < graph.order(second)
            first_writes = _writes_memory(first, modref)
            first_reads = _reads_memory(first, modref)
            second_writes = _writes_memory(second, modref)
            second_reads = _reads_memory(second, modref)

            if intra:
                if first_writes and second_reads:
                    prob = mem_prob(first, second, cross=False)
                    if prob > 0:
                        graph._add_edge(
                            DepEdge(first, second, "true", False, prob, "mem")
                        )
                if first_reads and second_writes:
                    graph._add_edge(DepEdge(first, second, "anti", False, 1.0, "mem"))
                if first_writes and second_writes:
                    graph._add_edge(
                        DepEdge(first, second, "output", False, 1.0, "mem")
                    )

            if first_writes and second_reads:
                prob = mem_prob(first, second, cross=True)
                if prob > 0:
                    graph._add_edge(DepEdge(first, second, "true", True, prob, "mem"))
            if second is not first and second_writes and first_reads:
                prob = mem_prob(second, first, cross=True)
                if prob > 0:
                    graph._add_edge(DepEdge(second, first, "true", True, prob, "mem"))

    # -- control dependences ----------------------------------------------
    ctrl = compute_control_deps(func, loop, cfg)
    block_map = func.block_map()
    retained_labels = {
        _unit_label(u) for u in units if not isinstance(u, Loop)
    }
    for info in list(graph.info.values()):
        for branch_label in ctrl.controlling_branches(info.block):
            if branch_label == loop.header:
                # The pre-fork region sits after the header test, so the
                # header branch guards it naturally; no replication (and
                # hence no ordering constraint) is needed.
                continue
            if branch_label not in retained_labels:
                continue  # decision internal to a contracted inner loop
            branch_instr = block_map[branch_label].terminator
            if branch_instr is info.instr or branch_instr not in graph.info:
                continue
            graph._add_edge(
                DepEdge(branch_instr, info.instr, "control", False, 1.0, "ctrl")
            )

    return graph


def _touches_memory(instr: Instr, modref) -> bool:
    return _reads_memory(instr, modref) or _writes_memory(instr, modref)


def _reads_memory(instr: Instr, modref) -> bool:
    if modref is not None and isinstance(instr, Call):
        return modref.call_reads(instr)
    return instr.reads_memory


def _writes_memory(instr: Instr, modref) -> bool:
    if modref is not None and isinstance(instr, Call):
        return modref.call_writes(instr)
    return instr.writes_memory


def _concrete_mem_instrs(node: Instr, func: Function) -> List[Instr]:
    """Expand a summary node to the memory instructions it contains."""
    if isinstance(node, LoopSummary):
        return node.contained_mem_instrs(func)
    return [node]


def _conditional_prob(src_reach: float, dst_reach: float) -> float:
    """P(dst executes | src executed), approximated from reach ratios."""
    if src_reach <= 0.0:
        return 0.0
    return max(0.0, min(1.0, dst_reach / src_reach))

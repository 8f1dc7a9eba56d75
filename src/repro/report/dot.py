"""Graphviz (dot) dumps of the framework's graphs.

Handy for inspecting what the compiler sees:

* :func:`cfg_to_dot` -- a function's control-flow graph;
* :func:`depgraph_to_dot` -- one loop's annotated dependence graph
  (cross-iteration edges dashed, like the paper's Figure 5);
* :func:`costgraph_to_dot` -- the cost graph with pseudo nodes
  (the paper's Figure 6);
* :func:`vcdep_to_dot` -- the violation-candidate dependence graph
  (the paper's Figure 7).

Render with ``dot -Tsvg out.dot -o out.svg``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.depgraph import LoopDepGraph
from repro.core.costgraph import CostGraph
from repro.core.vcdep import VCDepGraph
from repro.ir.function import Function
from repro.ir.instr import Instr
from repro.ir.printer import format_instr


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _instr_label(instr: Instr, limit: int = 40) -> str:
    try:
        text = format_instr(instr)
    except TypeError:
        text = repr(instr)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def cfg_to_dot(func: Function) -> str:
    """The function's CFG; each node lists its instructions."""
    lines: List[str] = [f"digraph {_quote('cfg_' + func.name)} {{"]
    lines.append("  node [shape=box, fontname=monospace, fontsize=9];")
    for block in func.blocks:
        body = "\\l".join(
            [block.label + ":"] + [_instr_label(i, 60) for i in block.instrs]
        )
        lines.append(f"  {_quote(block.label)} [label={_quote(body + chr(92) + 'l')}];")
    for block in func.blocks:
        for succ in block.successors():
            lines.append(f"  {_quote(block.label)} -> {_quote(succ)};")
    lines.append("}")
    return "\n".join(lines)


def depgraph_to_dot(graph: LoopDepGraph, kinds=("true", "anti", "output")) -> str:
    """One loop's dependence graph.  Cross-iteration edges are dashed
    and red; anti/output edges dotted."""
    lines: List[str] = [f"digraph {_quote('dep_' + graph.loop.header)} {{"]
    lines.append("  node [shape=box, fontname=monospace, fontsize=9];")
    node_ids: Dict[int, str] = {}
    for index, instr in enumerate(graph.nodes):
        node_id = f"n{index}"
        node_ids[id(instr)] = node_id
        label = _instr_label(instr)
        lines.append(f"  {node_id} [label={_quote(label)}];")
    for edge in graph.edges:
        if edge.kind not in kinds:
            continue
        src = node_ids.get(id(edge.src))
        dst = node_ids.get(id(edge.dst))
        if src is None or dst is None:
            continue
        attrs = [f"label={_quote(f'{edge.prob:.2f}')}"]
        if edge.cross:
            attrs.append("style=dashed")
            attrs.append("color=red")
        elif edge.kind in ("anti", "output"):
            attrs.append("style=dotted")
        lines.append(f"  {src} -> {dst} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines)


def costgraph_to_dot(cg: CostGraph) -> str:
    """The cost graph: pseudo nodes as ellipses (D' in the paper),
    operation nodes as boxes annotated with their cost."""
    lines: List[str] = ['digraph costgraph {']
    lines.append("  node [fontname=monospace, fontsize=9];")
    ids: Dict[object, str] = {}
    for index, (key, pseudo) in enumerate(cg.pseudos.items()):
        node_id = f"p{index}"
        ids[pseudo] = node_id
        label = _node_key_label(key) + f"'\\nv0={pseudo.violation_prob:.2f}"
        lines.append(f"  {node_id} [shape=ellipse, label={_quote(label)}];")
    for index, key in enumerate(cg.topo_nodes):
        node_id = f"o{index}"
        ids[key] = node_id
        label = _node_key_label(key) + f"\\ncost={cg.costs[key]:.1f}"
        lines.append(f"  {node_id} [shape=box, label={_quote(label)}];")
    for dst, preds in cg.in_edges.items():
        dst_id = ids.get(dst)
        if dst_id is None:
            continue
        for pred, prob in preds:
            src_id = ids.get(pred)
            if src_id is None:
                continue
            lines.append(
                f"  {src_id} -> {dst_id} [label={_quote(f'{prob:.2f}')}];"
            )
    lines.append("}")
    return "\n".join(lines)


def vcdep_to_dot(vcdep: VCDepGraph) -> str:
    """The violation-candidate dependence graph (paper Figure 7)."""
    lines: List[str] = ["digraph vcdep {"]
    lines.append("  node [shape=box, fontname=monospace, fontsize=9];")
    for index, vc in enumerate(vcdep.candidates):
        label = _instr_label(vc.instr) + f"\\np={vc.violation_prob:.2f}"
        lines.append(f"  v{index} [label={_quote(label)}];")
    for index in range(len(vcdep)):
        for pred in sorted(vcdep.preds[index]):
            lines.append(f"  v{pred} -> v{index};")
    lines.append("}")
    return "\n".join(lines)


def _node_key_label(key) -> str:
    if isinstance(key, Instr):
        return _instr_label(key)
    return str(key)

"""Dominator tree and dominance frontier tests.

Besides hand-written CFGs, every function of the suite and of generated
programs (lowered, and compiled under best so the SPT transformation's
pre-fork regions are covered) is checked against a naive set-based
reference."""

import random

import pytest

from repro.analysis.cfg import CFG
from repro.analysis.dominators import DominatorTree
from repro.benchsuite import SUITE
from repro.core.config import best_config
from repro.core.pipeline import Workload, compile_spt
from repro.frontend import compile_minic
from repro.ir import parse_function
from repro.testkit.generator import generate_program, random_gen_config

DIAMOND = """\
func diamond(x) {
entry:
  c = lt x, 10
  br c, left, right
left:
  a = add x, 1
  jump join
right:
  b = add x, 2
  jump join
join:
  ret x
}
"""

LOOP = """\
func looped(n) {
entry:
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  i = add i, 1
  jump head
exit:
  ret i
}
"""


def test_diamond_idoms():
    func = parse_function(DIAMOND)
    domtree = DominatorTree.build(func)
    assert domtree.idom["entry"] is None
    assert domtree.idom["left"] == "entry"
    assert domtree.idom["right"] == "entry"
    assert domtree.idom["join"] == "entry"


def test_diamond_frontiers():
    func = parse_function(DIAMOND)
    domtree = DominatorTree.build(func)
    frontiers = domtree.dominance_frontiers()
    assert frontiers["left"] == {"join"}
    assert frontiers["right"] == {"join"}
    assert frontiers["entry"] == set()


def test_loop_idoms_and_frontier():
    func = parse_function(LOOP)
    domtree = DominatorTree.build(func)
    assert domtree.idom["head"] == "entry"
    assert domtree.idom["body"] == "head"
    assert domtree.idom["exit"] == "head"
    frontiers = domtree.dominance_frontiers()
    assert frontiers["body"] == {"head"}
    assert frontiers["head"] == {"head"}


def test_dominates_is_reflexive_and_transitive():
    func = parse_function(LOOP)
    domtree = DominatorTree.build(func)
    for label in ("entry", "head", "body", "exit"):
        assert domtree.dominates(label, label)
    assert domtree.dominates("entry", "body")
    assert not domtree.dominates("body", "exit")
    assert domtree.strictly_dominates("entry", "exit")
    assert not domtree.strictly_dominates("entry", "entry")


def test_reverse_postorder_starts_at_entry():
    func = parse_function(LOOP)
    cfg = CFG.build(func)
    rpo = cfg.reverse_postorder()
    assert rpo[0] == "entry"
    assert set(rpo) == {"entry", "head", "body", "exit"}
    assert rpo.index("head") < rpo.index("body")


def test_back_edge_detection():
    func = parse_function(LOOP)
    cfg = CFG.build(func)
    assert cfg.back_edges() == [("body", "head")]


# -- against a naive reference ------------------------------------------------

GENERATED = 30

#: A label no function has.
OUTSIDE = "no.such.block"


def reference(func):
    """``(rpo, dom)``: reachable labels in reverse postorder and each
    one's full dominator set, by iterating the dataflow equations to a
    fixpoint."""
    cfg = CFG.build(func)
    rpo = cfg.reverse_postorder()
    reachable = set(rpo)
    entry = func.entry.label
    dom = {label: set(reachable) for label in rpo}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for label in rpo:
            if label == entry:
                continue
            preds = [p for p in cfg.preds[label] if p in reachable]
            new = set.intersection(*(dom[p] for p in preds)) | {label}
            if new != dom[label]:
                dom[label] = new
                changed = True
    return cfg, rpo, dom


def check_function(func):
    cfg, rpo, dom = reference(func)
    tree = DominatorTree.build(func, cfg=cfg)
    # The immediate dominator is the strict dominator with most dominators.
    idom = {
        label: max(dom[label] - {label}, key=lambda d: len(dom[d]), default=None)
        for label in rpo
    }
    assert tree.idom == idom
    for label in rpo:
        assert tree.depth(label) == len(dom[label]) - 1
        assert tree.children(label) == [c for c in rpo if idom[c] == label]
    assert tree.children(OUTSIDE) == []

    frontiers = {label: set() for label in rpo}
    for label in rpo:
        for pred in cfg.preds[label]:
            if pred not in dom:
                continue
            for runner in dom[pred]:
                if runner == label or runner not in dom[label]:
                    frontiers[runner].add(label)
    assert tree.dominance_frontiers() == frontiers

    outside = [OUTSIDE] + [b.label for b in func.blocks if b.label not in dom]
    for a in rpo + outside:
        for b in rpo + outside:
            expected = a == b or (b in dom and a in dom[b])
            assert tree.dominates(a, b) is expected, (func.name, a, b)
            assert tree.strictly_dominates(a, b) is (expected and a != b)


def generated_source(index: int) -> str:
    rng = random.Random(f"dominators:{index}")
    return generate_program(rng, random_gen_config(rng)).source()


@pytest.mark.parametrize("bench", SUITE, ids=lambda b: b.name)
def test_suite_functions_match_the_reference(bench):
    module = compile_minic(bench.source, name=bench.name)
    for func in module.functions.values():
        check_function(func)


def test_generated_functions_match_the_reference():
    for index in range(GENERATED):
        source = generated_source(index)
        module = compile_minic(source, name=f"g{index}")
        for func in module.functions.values():
            check_function(func)
        compile_spt(module, best_config(), Workload(args=(16,)))
        for func in module.functions.values():
            check_function(func)

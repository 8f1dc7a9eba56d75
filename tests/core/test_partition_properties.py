"""Property-based partition-search tests: on randomly generated loops
the branch-and-bound must match the brute-force optimum under any size
threshold, and its prunings must never change the answer; on the
suite's loops its memoized bitmask sizes equal ``closure_size``."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.depgraph import build_dep_graph
from repro.analysis.loops import LoopNest
from repro.benchsuite import SUITE
from repro.core import partition
from repro.core.config import SptConfig, best_config
from repro.core.partition import brute_force_partition, find_optimal_partition
from repro.core.pipeline import Workload, compile_spt
from repro.core.vcdep import VCDepGraph, closure_size
from repro.frontend import compile_minic
from repro.ir import parse_module
from repro.ssa import build_ssa

#: Accumulator-statement templates; `{v}` is the variable, `{w}` a peer.
_UPDATES = [
    "  {v} = add {v}, {k}",
    "  {v} = add {v}, {w}",
    "  {v} = mul {v}, 3",
    "  t{t} = mul {w}, {k}\n  {v} = add {v}, t{t}",
    "  t{t} = add {w}, {k}\n  {v} = xor {v}, t{t}",
]


@st.composite
def random_loop(draw):
    n_vars = draw(st.integers(2, 5))
    names = [f"v{i}" for i in range(n_vars)]
    lines = []
    temp = 0
    for index, v in enumerate(names):
        template = draw(st.sampled_from(_UPDATES))
        w = draw(st.sampled_from(names[: index + 1]))
        lines.append(
            template.format(v=v, w=w, k=draw(st.integers(1, 9)), t=temp)
        )
        temp += 1
    decls = "\n".join(f"  {v} = copy 0" for v in names)
    body = "\n".join(lines)
    source = f"""\
module t
func main(n) {{
entry:
{decls}
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
{body}
  i = add i, 1
  jump head
exit:
  ret v0
}}
"""
    return source


@settings(max_examples=30, deadline=None)
@given(random_loop(), st.sampled_from([0.2, 0.4, 0.6, 0.9]))
def test_search_matches_brute_force(source, fraction):
    module = parse_module(source)
    func = module.function("main")
    build_ssa(func)
    nest = LoopNest.build(func)
    graph = build_dep_graph(module, func, nest.loops[0])
    config = SptConfig(prefork_fraction=fraction)

    optimal = find_optimal_partition(graph, config)
    brute = brute_force_partition(graph, config)
    assert math.isclose(optimal.cost, brute.cost, abs_tol=1e-9), source


@settings(max_examples=30, deadline=None)
@given(random_loop())
def test_pruning_never_changes_the_optimum(source):
    module = parse_module(source)
    func = module.function("main")
    build_ssa(func)
    nest = LoopNest.build(func)
    graph = build_dep_graph(module, func, nest.loops[0])
    config = SptConfig(prefork_fraction=0.7)

    pruned = find_optimal_partition(graph, config, use_pruning=True)
    unpruned = find_optimal_partition(graph, config, use_pruning=False)
    assert math.isclose(pruned.cost, unpruned.cost, abs_tol=1e-9)
    assert pruned.search_nodes <= unpruned.search_nodes


@settings(max_examples=20, deadline=None)
@given(random_loop())
def test_threshold_monotonicity(source):
    """A looser size threshold can only lower (or keep) the optimum."""
    module = parse_module(source)
    func = module.function("main")
    build_ssa(func)
    nest = LoopNest.build(func)
    graph = build_dep_graph(module, func, nest.loops[0])

    costs = []
    for fraction in (0.1, 0.4, 0.9):
        result = find_optimal_partition(graph, SptConfig(prefork_fraction=fraction))
        costs.append(result.cost)
    assert costs[0] >= costs[1] - 1e-9
    assert costs[1] >= costs[2] - 1e-9


@pytest.fixture(scope="module")
def suite_vcdeps():
    """The VC dependence graph of every loop the suite's best-config
    compiles search, as the search built it."""
    built = []

    class Recorded(VCDepGraph):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partition, "VCDepGraph", Recorded)
        for bench in SUITE:
            compile_spt(compile_minic(bench.source, name=bench.name),
                        best_config(), Workload("main", (bench.train_n,)))
    return built


def test_partition_size_is_closure_size_bit_for_bit(suite_vcdeps):
    """The memoized bitmask size of a selection repeats closure_size's
    sorted sum exactly (same float, same int 0 for the empty set) over
    random downward-closed selections of every searched suite loop."""
    assert sum(len(vcdep) > 10 for vcdep in suite_vcdeps) >= 3
    rng = random.Random(0)
    for vcdep in suite_vcdeps:
        for _ in range(40):
            share = rng.random()
            selected = set()
            for i in range(len(vcdep)):
                if vcdep.preds[i] <= selected and rng.random() < share:
                    selected.add(i)
            assert vcdep.downward_closed(selected)
            expected = closure_size(vcdep.graph,
                                    vcdep.union_closure(selected))
            assert repr(vcdep.partition_size(selected)) == repr(expected)

"""Property tests: the incremental misspeculation-cost evaluator must
be bitwise identical to the full recompute (`misspeculation_cost`) on
every query, for arbitrary cost graphs and arbitrary prefork-set walks
(the access pattern the branch-and-bound search produces)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CostEvaluator,
    CostGraph,
    IncrementalCostEvaluator,
    make_cost_evaluator,
    misspeculation_cost,
    reexecution_probabilities,
)
from repro.core.config import best_config


def _random_cost_graph(rng, n_vcs, n_ops):
    cg = CostGraph()
    vcs = [f"vc{i}" for i in range(n_vcs)]
    ops = [f"op{i}" for i in range(n_ops)]
    for vc in vcs:
        cg.add_pseudo(vc, rng.random())
    for op in ops:
        cg.add_node(op, rng.uniform(0.5, 4.0))
    for vc in vcs:
        for op in rng.sample(ops, k=min(rng.randint(1, 4), n_ops)):
            cg.add_edge_from_pseudo(vc, op, rng.random())
    for i in range(n_ops):
        succs = range(i + 1, n_ops)
        for j in rng.sample(succs, k=min(rng.randint(0, 3), len(succs))):
            cg.add_edge(ops[i], ops[j], rng.random())
    return cg, vcs


def _random_walk(rng, vcs, steps):
    """Yield a sequence of prefork sets mimicking a search: mostly
    single-VC flips from the previous set, occasionally a jump."""
    prefork = set()
    for _ in range(steps):
        if rng.random() < 0.15:
            prefork = set(rng.sample(vcs, k=rng.randint(0, len(vcs))))
        else:
            vc = rng.choice(vcs)
            if vc in prefork:
                prefork.discard(vc)
            else:
                prefork.add(vc)
        yield frozenset(prefork)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_incremental_matches_full(seed):
    rng = random.Random(seed)
    cg, vcs = _random_cost_graph(
        rng, n_vcs=rng.randint(1, 8), n_ops=rng.randint(2, 40)
    )
    inc = IncrementalCostEvaluator(cg)
    for prefork in _random_walk(rng, vcs, steps=40):
        expected = misspeculation_cost(cg, prefork)
        assert inc.cost(prefork) == expected  # bitwise, not approx
        assert inc.cost(prefork) == expected  # cached re-query stays exact


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_incremental_probabilities_match(seed):
    rng = random.Random(seed)
    cg, vcs = _random_cost_graph(rng, n_vcs=5, n_ops=25)
    inc = IncrementalCostEvaluator(cg)
    for prefork in _random_walk(rng, vcs, steps=15):
        expected = reexecution_probabilities(cg, prefork)
        assert inc.probabilities(prefork) == expected


def test_incremental_visits_fewer_nodes():
    """On a search-like walk the incremental evaluator touches far
    fewer cost-graph nodes than full recomputation."""
    rng = random.Random(7)
    cg, vcs = _random_cost_graph(rng, n_vcs=10, n_ops=200)
    full = CostEvaluator(cg)
    inc = IncrementalCostEvaluator(cg)
    for prefork in _random_walk(rng, vcs, steps=200):
        assert inc.cost(prefork) == full.cost(prefork)
    assert inc.evaluations == full.evaluations
    assert inc.node_visits * 2 < full.node_visits


def test_state_eviction_preserves_correctness():
    """Even with a pathologically small state cache the results stay
    exact -- eviction only costs recomputation."""
    rng = random.Random(11)
    cg, vcs = _random_cost_graph(rng, n_vcs=6, n_ops=30)
    inc = IncrementalCostEvaluator(cg, max_states=2)
    for prefork in _random_walk(rng, vcs, steps=60):
        assert inc.cost(prefork) == misspeculation_cost(cg, prefork)


def test_make_cost_evaluator_respects_config():
    cg, _ = _random_cost_graph(random.Random(3), n_vcs=3, n_ops=10)
    cfg = best_config()
    assert isinstance(make_cost_evaluator(cg, cfg), IncrementalCostEvaluator)
    slow = make_cost_evaluator(cg, cfg.with_overrides(incremental_cost=False))
    assert isinstance(slow, CostEvaluator)
    assert not isinstance(slow, IncrementalCostEvaluator)
    assert isinstance(make_cost_evaluator(cg), IncrementalCostEvaluator)


def test_cache_bound_is_respected():
    cg, vcs = _random_cost_graph(random.Random(5), n_vcs=8, n_ops=20)
    ev = CostEvaluator(cg, max_size=4)
    for prefork in _random_walk(random.Random(6), vcs, steps=50):
        ev.cost(prefork)
    assert len(ev._cache) <= 4
    assert 0.0 <= ev.hit_rate <= 1.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_cost_mask_matches_cost_of_keys(seed):
    """A pre-fork mask (bit j = the graph's j-th candidate) costs
    bitwise what the same set of keys costs, on both evaluators."""
    rng = random.Random(seed)
    cg, vcs = _random_cost_graph(
        rng, n_vcs=rng.randint(1, 8), n_ops=rng.randint(2, 40)
    )
    for evaluator in (CostEvaluator(cg), IncrementalCostEvaluator(cg)):
        keyed = type(evaluator)(cg)
        for _ in range(30):
            mask = rng.getrandbits(len(vcs))
            keys = [vc for j, vc in enumerate(vcs) if mask >> j & 1]
            assert evaluator.mask_of(keys) == mask
            assert evaluator.cost_mask(mask) == keyed.cost(keys)
            assert evaluator.cost_mask(mask) == misspeculation_cost(cg, keys)


def test_keys_without_pseudo_nodes_get_zero_cone_bits():
    """A key the graph has no pseudo node for moves no probability but
    still keys a state of its own, re-propagated from its one-removed
    parent without visiting a node."""
    rng = random.Random(13)
    cg, vcs = _random_cost_graph(rng, n_vcs=4, n_ops=20)
    prefork = {vcs[0], vcs[2]}
    expected = misspeculation_cost(cg, prefork)
    for evaluator in (CostEvaluator(cg), IncrementalCostEvaluator(cg)):
        assert evaluator.cost(prefork) == expected
        visits = evaluator.node_visits
        stranger = evaluator.mask_of({"stranger"})
        assert stranger == 1 << len(vcs)
        assert evaluator.cost(prefork | {"stranger"}) == expected
        assert (evaluator.evaluations, evaluator.cache_hits) == (2, 0)
        assert evaluator.cost_mask(evaluator.mask_of(prefork) | stranger) == (
            expected
        )
        assert evaluator.cache_hits == 1
        if isinstance(evaluator, IncrementalCostEvaluator):
            assert evaluator.node_visits == visits
            assert evaluator.probabilities(prefork | {"stranger"}) == (
                reexecution_probabilities(cg, prefork)
            )


def test_parent_probe_prefers_the_smallest_cone():
    """With a one-added parent one node away and the most recent state
    ten nodes away, the query re-propagates from the one-added parent."""
    cg = CostGraph()
    cg.add_pseudo("wide", 0.5)
    cg.add_pseudo("narrow", 0.25)
    for i in range(11):
        cg.add_node(f"op{i}", 1.0)
    cg.add_edge_from_pseudo("wide", "op0", 0.5)
    for i in range(9):
        cg.add_edge(f"op{i}", f"op{i + 1}", 0.5)
    cg.add_edge_from_pseudo("narrow", "op10", 0.5)
    inc = IncrementalCostEvaluator(cg)
    inc.cost({"wide", "narrow"})
    inc.cost(set())  # the most recent state: "wide" (10 nodes) away
    visits = inc.node_visits
    assert inc.cost({"wide"}) == misspeculation_cost(cg, {"wide"})
    assert inc.node_visits - visits == 1

"""Golden regression test: the heaviest partition searches.

Two generated programs whose loops carry many violation candidates make
the §5.2 branch-and-bound do tens of thousands of cost queries:
perfbench's batch-rerun corpus program ``batch-rerun:19`` at that
workload's train argument, and the generator's seed 0 at train 20.
Each is compiled under best with an observing telemetry.
``tests/golden/expected/heavy_search.json`` stores, per searched loop,
``PartitionResult.to_dict()``, the exact ``repr`` of the cost and the
pre-fork size, the pre-fork candidates in order and every candidate's
marginal cost, and per program every ``partition.`` counter.  Any
change to the search or its cost evaluators that moves a cost, a
decision or a search counter shows up here.  Regenerate intentionally
with::

    pytest tests/golden/test_heavy_search.py --update-goldens
"""

import json
import os
import random

import pytest

from repro.core.config import best_config
from repro.core.pipeline import Workload, compile_spt
from repro.frontend import compile_minic
from repro.obs import Telemetry
from repro.testkit.generator import generate_program, random_gen_config

EXPECTED_PATH = os.path.join(
    os.path.dirname(__file__), "expected", "heavy_search.json"
)


def heavy_programs():
    """``{tag: (MiniC source, train argument)}`` of the pinned programs."""
    rng = random.Random("batch-rerun:19")
    batch = generate_program(rng, random_gen_config(rng)).source()
    # perfbench's draw_args: the train argument is the first draw.
    batch_train = random.Random("batch-rerun:args").randint(0, 40)
    rng = random.Random(0)
    seed0 = generate_program(rng, random_gen_config(rng)).source()
    return {"batch-rerun:19": (batch, batch_train), "seed-0": (seed0, 20)}


def search_entry(source: str, train: int) -> dict:
    """The golden fields of one program's searches under best."""
    telemetry = Telemetry()
    result = compile_spt(
        compile_minic(source, name="heavy"), best_config(),
        Workload(args=(train,)), telemetry=telemetry,
    )
    loops = {}
    for candidate in result.candidates:
        partition = candidate.partition
        if partition is None:
            continue
        loops[f"{candidate.func_name}:{candidate.loop.header}"] = {
            "result": partition.to_dict(),
            "cost": repr(partition.cost),
            "prefork_size": repr(partition.prefork_size),
            "prefork_vcs": [repr(vc.instr) for vc in partition.prefork_vcs],
            "breakdown": [
                [repr(vc.instr), in_prefork, repr(marginal)]
                for vc, in_prefork, marginal in partition.vc_breakdown
            ],
        }
    counters = {
        name: value
        for name, value in sorted(telemetry.counters.items())
        if name.startswith("partition.")
    }
    return {"train": train, "loops": loops, "counters": counters}


@pytest.fixture(scope="module")
def actual():
    entries = {
        tag: search_entry(source, train)
        for tag, (source, train) in heavy_programs().items()
    }
    return json.loads(json.dumps(entries))


def test_heavy_searches_match_golden(actual, update_goldens):
    if update_goldens:
        with open(EXPECTED_PATH, "w") as handle:
            json.dump(actual, handle, indent=2, sort_keys=True)
            handle.write("\n")
        pytest.skip("golden snapshot regenerated")
    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle)
    changed = sorted(
        f"{tag}/{loop}/{field}"
        for tag in expected
        for loop in expected[tag]["loops"]
        for field in expected[tag]["loops"][loop]
        if actual.get(tag, {}).get("loops", {}).get(loop, {}).get(field)
        != expected[tag]["loops"][loop][field]
    )
    assert not changed and actual == expected, (
        f"partition searches deviate from the golden snapshot on {changed}; "
        "if the change is intentional, refresh with --update-goldens"
    )


def test_heavy_searches_stay_heavy(actual):
    """Both programs keep a search of thousands of nodes, or the
    snapshot stops guarding the evaluator's parent probe."""
    for tag, entry in actual.items():
        assert entry["counters"]["partition.search_nodes"] >= 5000, tag


#: Each summed ``partition.`` counter and the ``PartitionResult.to_dict()``
#: field it sums over the searched loops.
SUMMED_COUNTERS = {
    "partition.search_nodes": "search_nodes",
    "partition.cost_evaluations": "evaluations",
    "partition.cost_cache_hits": "cache_hits",
    "partition.cost_node_visits": "cost_node_visits",
    "partition.pruned_size": "pruned_size",
    "partition.pruned_bound": "pruned_bound",
}


def test_counters_are_the_sums_of_the_per_loop_results(actual):
    """The telemetry counters and the per-loop numbers count the same
    queries: none from the post-search cost breakdown."""
    for tag, entry in actual.items():
        loops = entry["loops"].values()
        assert entry["counters"]["partition.loops_searched"] == len(loops)
        for counter, field in SUMMED_COUNTERS.items():
            total = sum(loop["result"][field] for loop in loops)
            assert entry["counters"][counter] == total, (tag, counter)

"""Golden regression test: simulated numbers of the checked-in corpus.

Each program of ``tests/golden/corpus`` is compiled under basic, best
and anticipated with the corpus workload (``--args 96``) under an
observing telemetry, and, when a loop is selected, run through the SPT
machine model on the same telemetry.
``tests/golden/expected/corpus_simulate.json`` stores, per program and
config, the selected loop headers, the degradation records, the
program result, the sequential and SPT cycles, every ``SptLoopStats``
field of every simulated loop, and every deterministic counter (the
``partition.``, ``selection.``, ``transform.``, ``unroll.`` and
``spt.`` families).  All of it must match exactly.  Regenerate
intentionally with::

    pytest tests/golden/test_corpus_simulate.py --update-goldens
"""

import dataclasses
import json
import os

import pytest

from repro.core.config import CONFIG_FACTORIES
from repro.core.pipeline import Workload, compile_spt
from repro.frontend import compile_minic
from repro.obs import Telemetry
from repro.perf import simulate_program

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
EXPECTED_PATH = os.path.join(
    os.path.dirname(__file__), "expected", "corpus_simulate.json"
)

ARGS = (96,)
CONFIGS = ("basic", "best", "anticipated")
DETERMINISTIC_COUNTER_PREFIXES = (
    "partition.",
    "selection.",
    "transform.",
    "unroll.",
    "spt.",
)


def simulate_entry(name: str, config: str) -> dict:
    """The golden fields of one program under one config."""
    with open(os.path.join(CORPUS_DIR, name)) as handle:
        module = compile_minic(handle.read(), name=name.split(".")[0])
    telemetry = Telemetry()
    result = compile_spt(
        module, CONFIG_FACTORIES[config](), Workload(args=ARGS),
        telemetry=telemetry,
    )
    entry = {
        "selected": [info.header for info in result.spt_loops],
        "degradations": [record.to_dict() for record in result.degradations],
        "simulation": None,
    }
    if result.spt_loops:
        outcome = simulate_program(
            module, result, args=list(ARGS), telemetry=telemetry
        )
        entry["simulation"] = {
            "result": outcome.result,
            "seq_cycles": outcome.seq_cycles,
            "spt_cycles": outcome.spt_cycles,
            "loops": [dataclasses.asdict(stats) for stats in outcome.loops],
        }
    entry["counters"] = {
        name: value
        for name, value in sorted(telemetry.counters.items())
        if name.startswith(DETERMINISTIC_COUNTER_PREFIXES)
    }
    return entry


@pytest.fixture(scope="module")
def actual():
    entries = {
        name: {config: simulate_entry(name, config) for config in CONFIGS}
        for name in sorted(os.listdir(CORPUS_DIR))
        if name.endswith(".c")
    }
    # Compare what the JSON file can hold: lists for tuples, floats
    # through their shortest round-tripping repr.
    return json.loads(json.dumps(entries))


def test_corpus_simulation_matches_golden(actual, update_goldens):
    if update_goldens:
        with open(EXPECTED_PATH, "w") as handle:
            json.dump(actual, handle, indent=2, sort_keys=True)
            handle.write("\n")
        pytest.skip("golden snapshot regenerated")
    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle)
    changed = sorted(
        f"{name}/{config}/{field}"
        for name in expected
        for config in expected[name]
        for field in expected[name][config]
        if actual.get(name, {}).get(config, {}).get(field)
        != expected[name][config][field]
    )
    assert not changed and actual == expected, (
        f"simulated numbers deviate from the golden snapshot on {changed}; "
        "if the change is intentional, refresh with --update-goldens"
    )


def test_corpus_simulates_spt_loops(actual):
    """Some programs keep selecting and simulating SPT loops under every
    config, or the snapshot stops guarding the machine model."""
    for config in CONFIGS:
        assert any(
            entries[config]["simulation"] for entries in actual.values()
        ), config

"""Golden regression test: compiler output on generated programs.

The checked-in corpus (``test_golden_manifest.py``) and the suite
(``test_suite_stats.py``) pin compiler output on hand-written programs.
This test pins it on the fuzz generator's shapes: the first
:data:`PROGRAM_COUNT` programs drawn under this file's own fixed tags
(through ``random_gen_config``, as the fuzz campaign draws them), each
compiled under basic, best and anticipated.  Per program and config,
``tests/golden/expected/generated_compile.json`` stores the sha256 of
the transformed module's textual IR plus ``CompilationResult.to_dict()``;
any change to an IR pass, the search or the selection shows up as a
changed digest.  Regenerate intentionally with::

    pytest tests/golden/test_generated_compile.py --update-goldens
"""

import hashlib
import json
import os
import random

import pytest

from repro.core.config import CONFIG_FACTORIES
from repro.core.pipeline import Workload, compile_spt
from repro.frontend import compile_minic
from repro.ir import format_module
from repro.testkit.generator import generate_program, random_gen_config

EXPECTED_PATH = os.path.join(
    os.path.dirname(__file__), "expected", "generated_compile.json"
)

PROGRAM_COUNT = 20
CONFIGS = ("basic", "best", "anticipated")


def program(index: int):
    """``(tag, MiniC source, train argument)`` of generated program
    ``index``."""
    tag = f"generated-compile:{index:04d}"
    rng = random.Random(tag)
    source = generate_program(rng, random_gen_config(rng)).source()
    train = random.Random(f"{tag}:args").randint(8, 40)
    return tag, source, train


def compile_program(source: str, tag: str, train: int, config: str):
    """The transformed module and its ``CompilationResult``."""
    module = compile_minic(source, name=tag)
    result = compile_spt(
        module, CONFIG_FACTORIES[config](), Workload(args=(train,))
    )
    return module, result


def output_digest(module, result) -> str:
    text = format_module(module) + json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def actual():
    digests = {}
    selected = 0
    for index in range(PROGRAM_COUNT):
        tag, source, train = program(index)
        entry = {"train": train}
        for config in CONFIGS:
            module, result = compile_program(source, tag, train, config)
            entry[config] = output_digest(module, result)
            selected += len(result.selected)
        digests[tag] = entry
    return digests, selected


def test_generated_compile_matches_golden(actual, update_goldens):
    digests, _ = actual
    if update_goldens:
        with open(EXPECTED_PATH, "w") as handle:
            json.dump(digests, handle, indent=2, sort_keys=True)
            handle.write("\n")
        pytest.skip("golden snapshot regenerated")
    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle)
    changed = sorted(
        f"{tag}/{key}"
        for tag in expected
        for key in expected[tag]
        if digests.get(tag, {}).get(key) != expected[tag][key]
    )
    assert not changed and set(digests) == set(expected), (
        f"compile output deviates from the golden snapshot on {changed}; "
        "if the change is intentional, refresh with --update-goldens"
    )


def test_generated_programs_select_loops(actual):
    """The programs keep selecting SPT loops, or the digests stop
    guarding the transformation."""
    _, selected = actual
    assert selected >= PROGRAM_COUNT

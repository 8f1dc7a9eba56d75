"""Property test: over generated MiniC programs, a warm cache hit is
bitwise identical to the cold compute that populated it.

Programs come from the fuzzing subsystem's generator
(:mod:`repro.testkit.generator`), so the property is exercised over
arbitrary loop shapes -- nests, while loops, irregular control flow,
aliased arrays -- not just the hand-written corpus.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch import ResultCache, compile_program_task
from repro.testkit import GenConfig, generate_program

#: Small programs keep each example fast; shape variety stays on.
GEN_CONFIG = GenConfig(
    max_depth=2,
    max_stmts=3,
    max_outer_trip=12,
    max_inner_trip=4,
    array_size=32,
)


def make_task(source):
    return {
        "index": 0,
        "path": "generated.c",
        "name": "generated",
        "source": source,
        "config": "best",
        "config_overrides": {},
        "entry": "main",
        "args": [],
        "fuel": 50_000_000,
    }


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_cache_hit_bitwise_identical(tmp_path_factory, seed):
    spec = generate_program(seed, GEN_CONFIG)
    source = spec.source()
    cache = ResultCache(
        str(tmp_path_factory.mktemp("propcache") / f"s{seed}")
    )

    cold, cold_stats = compile_program_task(make_task(source), cache)
    warm, warm_stats = compile_program_task(make_task(source), cache)

    if cold["status"] != "ok":
        # Generator produced a program the pipeline rejects: both runs
        # must at least fail identically (errors are never cached).
        assert warm["status"] == cold["status"]
        assert warm.get("error") == cold.get("error")
        return

    assert warm["cached"] is True, warm
    assert warm_stats["misses"] == 0
    assert warm_stats["hits"] == cold_stats["misses"] == 1  # program entry

    cold.pop("cached"), warm.pop("cached")
    assert json.dumps(cold, sort_keys=True) == json.dumps(
        warm, sort_keys=True
    )

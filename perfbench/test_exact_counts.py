"""Exact-count test: the traced run's counts and ``sim_speedup`` repeat
exactly across runs and across ``PYTHONHASHSEED`` values, so a change
may claim a count and timing spread can be blamed on the host.

Run from the repository root::

    python3 -m pytest perfbench/test_exact_counts.py -q
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: Two runs under one hash seed and one under another.
HASH_SEEDS = ("0", "0", "1")
#: Units of the values that must repeat exactly; times and rates may not.
EXACT_UNITS = ("count", "ratio", "x")
#: Counts each workload must reach, so a layer that silently stopped
#: being traced fails the test instead of repeating zeros.
REACHED = {
    "suite-eval": ("machine.spt_run.ops", "profiling.base_run.instructions",
                   "core.search.nodes", "core.loops.selected",
                   "frontend.calls", "sim_speedup"),
    "cli-simulate": ("machine.spt_run.ops", "core.search.nodes",
                     "core.loops.selected", "frontend.calls", "sim_speedup"),
    "batch-rerun": ("core.search.nodes", "frontend.calls", "batch.cache.hits",
                    "batch.cache.misses", "batch.cache.writes",
                    "batch.programs_cached", "batch.programs_recomputed"),
}


def traced_counts(workload: str, hash_seed: str) -> dict:
    """The exact-unit metrics of one reduced-size traced run."""
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", "1", "--small", "--trace", "1"],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if metric["unit"] in EXACT_UNITS}


@pytest.mark.parametrize("workload", sorted(REACHED))
def test_counts_repeat_exactly(workload):
    first, *others = [traced_counts(workload, seed) for seed in HASH_SEEDS]
    for other in others:
        assert other == first
    for name in REACHED[workload]:
        assert first[name] > 0, name

"""Compile-phase checkpoints: a restored partition search must be
indistinguishable from a fresh one, a search from another workload must
never be restored, and the resilience ladder must reuse work across
rungs."""

import json
import os

import pytest

from repro.checkpoint.phases import phase_cache
from repro.core.config import best_config
from repro.core.pipeline import Workload, compile_spt
from repro.frontend import compile_minic
from repro.obs.telemetry import Telemetry
from repro.resilience.faults import reset_fault_state

SOURCE = """
global int data[512];
global int out[512];

int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int x = data[i & 511];
        int a = x * 3 + i;
        int b = (a << 2) ^ x;
        out[i & 511] = b & 1023;
        s += b & 31;
    }
    return s;
}
"""

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "golden", "corpus")


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    reset_fault_state()
    yield
    reset_fault_state()


def _compiled_bytes(result):
    """The summary plus every full partition, canonically serialized."""
    partitions = {
        f"{func}:{header}": partition.to_dict()
        for (func, header), partition in result.partitions.items()
    }
    return json.dumps([result.to_dict(), partitions], sort_keys=True)


def test_restored_search_is_byte_identical_to_fresh(tmp_path):
    reference = compile_spt(
        compile_minic(SOURCE), best_config(), Workload(args=(48,))
    )

    store = phase_cache(str(tmp_path))
    saved = compile_spt(
        compile_minic(SOURCE), best_config(), Workload(args=(48,)),
        phase_checkpoints=store,
    )
    assert store.stats.writes > 0 and store.stats.hits == 0

    restored = compile_spt(
        compile_minic(SOURCE), best_config(), Workload(args=(48,)),
        phase_checkpoints=store,
    )
    assert store.stats.hits == store.stats.writes
    assert (
        _compiled_bytes(reference)
        == _compiled_bytes(saved)
        == _compiled_bytes(restored)
    )


@pytest.mark.parametrize(
    "program", sorted(p for p in os.listdir(CORPUS) if p.endswith(".c"))
)
def test_search_entries_are_workload_keyed(tmp_path, program):
    """Pass 1 takes its probabilities from one training run, so a search
    checkpointed under one workload must never answer for another."""
    with open(os.path.join(CORPUS, program)) as handle:
        source = handle.read()

    def compile_with(args, store=None):
        return compile_spt(
            compile_minic(source), best_config(), Workload(args=args),
            phase_checkpoints=store,
        )

    compile_with((8,), phase_cache(str(tmp_path)))
    other = phase_cache(str(tmp_path))
    result = compile_with((200,), other)
    assert _compiled_bytes(result) == _compiled_bytes(compile_with((200,)))
    assert other.stats.hits == 0 and other.stats.corrupt == 0

    # ...while the same workload again restores every search.
    again = phase_cache(str(tmp_path))
    repeated = compile_with((200,), again)
    assert again.stats.hits == other.stats.writes > 0
    assert again.stats.misses == again.stats.writes == 0
    assert _compiled_bytes(repeated) == _compiled_bytes(result)


def test_corrupt_phase_checkpoint_misses_and_recovers(tmp_path):
    store = phase_cache(str(tmp_path))
    compile_spt(
        compile_minic(SOURCE), best_config(), Workload(args=(48,)),
        phase_checkpoints=store,
    )
    # Corrupt every stored document.
    corrupted = 0
    for path in store.entry_paths():
        with open(path, "w") as handle:
            handle.write("{not json")
        corrupted += 1
    assert corrupted > 0

    fresh = phase_cache(str(tmp_path))
    result = compile_spt(
        compile_minic(SOURCE), best_config(), Workload(args=(48,)),
        phase_checkpoints=fresh,
    )
    assert fresh.stats.corrupt == corrupted  # every load degraded to a miss
    assert result.spt_loops  # ...and the compile just searched again


def test_save_fault_never_fails_the_compile(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT", "checkpoint.save:raise")
    store = phase_cache(str(tmp_path))
    result = compile_spt(
        compile_minic(SOURCE), best_config(), Workload(args=(48,)),
        phase_checkpoints=store,
    )
    assert result.spt_loops
    assert store.stats.writes == 0 and store.stats.write_failures > 0


def test_ladder_reuses_depgraph_across_rungs(monkeypatch):
    """A search fault on the full rung must not rebuild the dependence
    graph on the retry rung."""
    monkeypatch.setenv("REPRO_FAULT", "search:raise:1")
    reset_fault_state()
    telemetry = Telemetry()
    result = compile_spt(
        compile_minic(SOURCE), best_config(), Workload(args=(48,)),
        telemetry=telemetry,
    )
    telemetry.close()
    assert result.spt_loops  # recovered on a later rung
    assert telemetry.counters.get("resilience.ladder.graph_reused", 0) > 0

"""The on-disk snapshot store: durability, fault tolerance, and the
checkpointed simulation driver's resume-identity guarantee.  (Entry
corruption is covered for every store in tests/util/test_store.py.)"""

import os

import pytest

from repro.checkpoint import CheckpointStore, simulation_key
from repro.checkpoint.runner import run_checkpointed_simulation
from repro.core.config import best_config
from repro.core.pipeline import Workload, compile_spt
from repro.frontend import compile_minic
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


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    reset_fault_state()
    yield
    reset_fault_state()


@pytest.fixture()
def compiled():
    module = compile_minic(SOURCE)
    result = compile_spt(module, best_config(), Workload(args=(48,)))
    assert result.spt_loops
    return module, result


def _outcome_tuple(outcome):
    return (
        outcome.result, outcome.seq_cycles, outcome.ipc, outcome.spt_cycles,
        [
            (l.func_name, l.header, l.loop_speedup, l.misspeculation_ratio,
             l.iterations, l.seq_cycles, l.spt_cycles)
            for l in outcome.loops
        ],
    )


def test_save_load_roundtrip(tmp_path):
    store = CheckpointStore(str(tmp_path))
    state = {"interp": {"executed": 7}, "timing": {}, "collectors": []}
    path = store.save("k" * 64, 7, state)
    assert path is not None and os.path.exists(path)
    assert store.available("k" * 64) == [7]
    assert store.load("k" * 64, 7) == state
    assert store.stats.writes == 1 and store.stats.hits == 1


def test_corrupt_snapshot_is_counted_removed_and_skipped(tmp_path):
    store = CheckpointStore(str(tmp_path))
    key = "k" * 64
    store.save(key, 5, {"a": 1})
    path = store.save(key, 9, {"a": 2})
    # Tear the newer snapshot on disk.
    with open(path, "w") as handle:
        handle.write('{"schema": "repro-checkpoint/1", "trunc')
    loaded = store.load_latest(key)
    assert loaded == (5, {"a": 1})  # fell back past the corrupt one
    assert store.stats.corrupt == 1
    assert not os.path.exists(path)  # removed best-effort


def test_injected_save_fault_suppresses_without_crashing(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT", "checkpoint.save:raise")
    store = CheckpointStore(str(tmp_path))
    assert store.save("k" * 64, 5, {"a": 1}) is None
    assert store.stats.write_failures == 1
    assert store.available("k" * 64) == []


def test_injected_restore_fault_misses_but_keeps_the_snapshot(
    tmp_path, monkeypatch
):
    store = CheckpointStore(str(tmp_path))
    key = "k" * 64
    path = store.save(key, 5, {"a": 1})
    monkeypatch.setenv("REPRO_FAULT", "checkpoint.restore:raise")
    assert store.load(key, 5) is None
    assert os.path.exists(path)  # healthy snapshot must survive the fault
    monkeypatch.delenv("REPRO_FAULT")
    assert store.load(key, 5) == {"a": 1}


def test_torn_save_cold_starts_cleanly(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT", "checkpoint.save:torn")
    store = CheckpointStore(str(tmp_path))
    key = "k" * 64
    store.save(key, 5, {"a": 1})  # published, but deliberately truncated
    assert store.load(key, 5) is None  # corrupt => miss, not crash
    assert store.stats.corrupt == 1


def test_checkpointed_simulation_resumes_bitwise_identically(
    tmp_path, compiled
):
    module, result = compiled
    cold, report = run_checkpointed_simulation(
        module, result, best_config(), args=(96,),
        checkpoint_every=500, checkpoint_dir=str(tmp_path),
    )
    assert report.saved_at, "cadence must save at least one snapshot"
    assert report.resumed_from is None

    for executed in report.saved_at:
        resumed, resumed_report = run_checkpointed_simulation(
            module, result, best_config(), args=(96,),
            resume_from=executed, checkpoint_dir=str(tmp_path),
        )
        assert resumed_report.resumed_from == executed
        assert _outcome_tuple(resumed) == _outcome_tuple(cold)

    latest, latest_report = run_checkpointed_simulation(
        module, result, best_config(), args=(96,),
        resume_from="latest", checkpoint_dir=str(tmp_path),
    )
    assert latest_report.resumed_from == max(report.saved_at)
    assert _outcome_tuple(latest) == _outcome_tuple(cold)


def test_resume_with_no_snapshot_cold_starts(tmp_path, compiled):
    module, result = compiled
    outcome, report = run_checkpointed_simulation(
        module, result, best_config(), args=(96,),
        resume_from="latest", checkpoint_dir=str(tmp_path),
    )
    assert report.resumed_from is None  # nothing stored: clean cold start
    assert outcome.result is not None


def test_simulation_key_separates_workloads_and_configs(compiled):
    module, _ = compiled
    base = simulation_key(module, best_config(), entry="main", args=(96,),
                          fuel=1000)
    assert base != simulation_key(module, best_config(), entry="main",
                                  args=(97,), fuel=1000)
    assert base != simulation_key(module, best_config(), entry="main",
                                  args=(96,), fuel=1001)

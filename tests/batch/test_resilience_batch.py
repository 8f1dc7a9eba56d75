"""Batch-layer resilience: per-program timeouts and exact crash charging.

``--program-timeout`` arms a SIGALRM in each worker; an overrunning
program gets exactly one retry on the degraded ladder configuration
before it is reported as ``status: "timeout"``.  A worker that exits
-- cleanly or not -- while it holds a program has that program charged
to it at once: there is no silence to wait out.
"""

import os
import signal

import pytest

from repro.batch import run_batch
from repro.resilience.faults import FAULT_ENV_VAR, reset_fault_state

PROGRAM = """
global int data[64];

int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int x = data[i & 63];
        int y = (x * 11 + i) ^ (x >> 1);
        data[i & 63] = y & 127;
        s += y & 7;
    }
    return s;
}
"""

needs_sigalrm = pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="platform has no SIGALRM"
)


@pytest.fixture
def prog(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(PROGRAM)
    return path


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv(FAULT_ENV_VAR, raising=False)
    reset_fault_state()
    yield
    reset_fault_state()


@needs_sigalrm
def test_program_timeout_recovers_on_degraded_ladder(
    prog, tmp_path, monkeypatch
):
    # The SVP round sleeps past the program budget; the degraded retry
    # disables SVP, so the second attempt completes well inside it.
    monkeypatch.setenv(FAULT_ENV_VAR, "svp:slow:3")
    result = run_batch(
        [str(prog)], args=(32,), jobs=1,
        cache_dir=str(tmp_path / "cache"), program_timeout=1.0,
    )
    assert result.ok
    entry = result.manifest["programs"][0]
    assert entry["status"] == "ok"
    assert entry["degraded"] is True
    assert "exceeded" in entry["degraded_reason"]
    assert result.stats["degraded_programs"] == 1
    assert result.stats["timeouts"] == 0

    # The degraded result ran under a different config fingerprint, so
    # it cannot have poisoned the full configuration's cache entries.
    monkeypatch.delenv(FAULT_ENV_VAR)
    clean = run_batch(
        [str(prog)], args=(32,), jobs=1,
        cache_dir=str(tmp_path / "cache"),
    )
    clean_entry = clean.manifest["programs"][0]
    assert clean_entry["status"] == "ok"
    assert not clean_entry.get("degraded")
    assert not clean.entries[0].get("cached")


@needs_sigalrm
def test_double_timeout_reports_timeout_status(prog, tmp_path, monkeypatch):
    # Profiling runs on both attempts, so both overrun: one degraded
    # retry, then a structured timeout entry -- never an abort.
    monkeypatch.setenv(FAULT_ENV_VAR, "profile:slow:5")
    result = run_batch(
        [str(prog)], args=(32,), jobs=1,
        cache_dir=str(tmp_path / "cache"), program_timeout=0.75,
    )
    assert not result.ok
    entry = result.manifest["programs"][0]
    assert entry["status"] == "timeout"
    assert entry["error"]["type"] == "ProgramTimeout"
    assert "degraded retry" in entry["error"]["message"]
    assert result.stats["timeouts"] == 1
    assert result.stats["ok"] == 0


def _program_swallowing_worker(conn, *args):
    # Pathological worker: takes a program, reports nothing and exits
    # cleanly.
    conn.recv()
    os._exit(0)


def test_a_clean_exit_while_holding_a_program_is_charged_at_once(
    prog, tmp_path, monkeypatch
):
    monkeypatch.setattr(
        "repro.batch.lifecycle.worker_main", _program_swallowing_worker
    )
    result = run_batch(
        [str(prog)], args=(32,), jobs=1,
        cache_dir=str(tmp_path / "cache"),
    )
    entry = result.manifest["programs"][0]
    assert entry["status"] == "crashed"
    assert entry["error"] == {
        "exitcode": 0,
        "message": "worker process died (exit code 0) while compiling "
                   "this program",
    }
    assert result.stats["crashed"] == 1
    # Charged when the exit is seen, not after some silence window.
    assert result.stats["wall_seconds"] < 20


@pytest.mark.parametrize(
    "kwargs",
    [
        {"program_timeout": 0},
        {"program_timeout": -5.0},
    ],
)
def test_non_positive_timeouts_are_rejected(prog, kwargs):
    with pytest.raises(ValueError):
        run_batch([str(prog)], args=(32,), **kwargs)

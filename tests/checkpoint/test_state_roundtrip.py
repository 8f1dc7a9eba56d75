"""Snapshot/restore round-trip properties.

The checkpoint contract is *bitwise* fidelity: ``restore(snapshot(s))``
re-snapshots to the same document, and a run resumed from any boundary
snapshot finishes identically (result, memory, fuel odometer, cycles,
per-loop statistics) to the uninterrupted run -- including after the
snapshot takes a trip through JSON, exactly as the on-disk store does.
"""

import json

import pytest

from repro.checkpoint import (
    InstrIndex,
    restore_simulation,
    snapshot_simulation,
)
from repro.core.config import best_config
from repro.core.pipeline import Workload, compile_spt
from repro.frontend import compile_minic
from repro.perf.runner import (
    build_simulation,
    finalize_simulation,
    spt_loop_sites,
)
from repro.profiling.interp import Machine

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

FUEL = 4_000_000


def _capture_machine_snapshots(source, n, every=64):
    module = compile_minic(source)
    machine = Machine(module, fuel=FUEL)
    snapshots = []
    last = [-every]

    def hook(m, frame):
        if m.executed - last[0] < every:
            return
        last[0] = m.executed
        snapshots.append(m.snapshot_state(frame))

    machine.checkpoint_hook = hook
    result = machine.run("main", [n])
    return module, machine, result, snapshots


def test_restore_of_snapshot_resnapshots_identically():
    """restore(snapshot(s)) == s, through a JSON round trip."""
    _, _, _, snapshots = _capture_machine_snapshots(SOURCE, 40)
    assert snapshots
    for state in snapshots:
        wire = json.loads(json.dumps(state))
        machine = Machine(compile_minic(SOURCE), fuel=FUEL)
        frame = machine.restore_state(wire)
        assert machine.snapshot_state(frame) == state


def test_resume_from_every_boundary_is_bitwise_identical():
    _, reference, result, snapshots = _capture_machine_snapshots(SOURCE, 40)
    assert snapshots
    for state in snapshots:
        machine = Machine(compile_minic(SOURCE), fuel=FUEL)
        frame = machine.restore_state(json.loads(json.dumps(state)))
        assert machine.resume_frame(frame) == result
        assert machine.executed == reference.executed
        assert machine.memory == reference.memory


def _outcome_tuple(outcome):
    return (
        outcome.result,
        outcome.seq_cycles,
        outcome.ipc,
        outcome.spt_cycles,
        [
            (
                loop.func_name, loop.header, loop.loop_speedup,
                loop.misspeculation_ratio, loop.iterations,
                loop.seq_cycles, loop.spt_cycles,
            )
            for loop in outcome.loops
        ],
    )


def test_full_simulation_snapshot_resume_identity():
    """The whole triple -- interpreter, timing tracer, SPT collectors --
    resumes bitwise-identically from a mid-loop snapshot."""
    module = compile_minic(SOURCE)
    compiled = compile_spt(module, best_config(), Workload(args=(48,)))
    assert compiled.spt_loops, "fixture must select an SPT loop"
    index = InstrIndex(module)

    loops = spt_loop_sites(compiled)
    # The reference tier: only it has the checkpoint hook.
    machine, tracer, collectors = build_simulation(
        module, loops, fuel=FUEL, fast=False
    )
    snapshots = []
    last = [-500]

    def hook(m, frame):
        if m.executed - last[0] < 500:
            return
        last[0] = m.executed
        snapshots.append(
            json.loads(
                json.dumps(
                    snapshot_simulation(m, frame, tracer, collectors, index)
                )
            )
        )

    machine.checkpoint_hook = hook
    result = machine.run("main", [96])
    reference = _outcome_tuple(
        finalize_simulation(result, tracer, collectors)
    )
    reference_memory = machine.memory
    reference_executed = machine.executed
    assert snapshots, "cadence must produce at least one snapshot"

    for state in snapshots:
        re_machine, re_tracer, re_collectors = build_simulation(
            module, loops, fuel=FUEL, fast=False
        )
        frame = restore_simulation(
            re_machine, state, re_tracer, re_collectors, index
        )
        resumed_result = re_machine.resume_frame(frame)
        assert re_machine.memory == reference_memory
        assert re_machine.executed == reference_executed
        assert (
            _outcome_tuple(
                finalize_simulation(
                    resumed_result, re_tracer, re_collectors
                )
            )
            == reference
        )


def test_instr_index_is_stable_across_processes():
    """Two independent compiles of the same module agree on every key."""
    a = InstrIndex(compile_minic(SOURCE))
    b = InstrIndex(compile_minic(SOURCE))
    assert len(a) == len(b) > 0
    for key in list(a._instr_by_key):
        b.instr_of(key)  # must not raise


def test_restore_into_wrong_module_raises():
    from repro.checkpoint import CheckpointError
    from repro.profiling.interp import InterpError

    _, _, _, snapshots = _capture_machine_snapshots(SOURCE, 40)
    other = compile_minic("int main(int n) { return n; }")
    machine = Machine(other, fuel=FUEL)
    with pytest.raises((CheckpointError, InterpError, KeyError)):
        frame = machine.restore_state(snapshots[-1])
        machine.resume_frame(frame)


# -- property: generated programs, every boundary ---------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402

from repro.testkit.generator import GenConfig  # noqa: E402
from repro.testkit.strategies import minic_sources  # noqa: E402

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

_SMALL = GenConfig(max_depth=2, max_stmts=3, n_scalars=3, n_arrays=1)


@_SETTINGS
@given(source=minic_sources(config=_SMALL))
def test_property_roundtrip_on_generated_programs(source):
    module, reference, result, snapshots = _capture_machine_snapshots(
        source, 17, every=32
    )
    for state in snapshots:
        wire = json.loads(json.dumps(state))
        machine = Machine(compile_minic(source), fuel=FUEL)
        frame = machine.restore_state(wire)
        assert machine.snapshot_state(frame) == state
        assert machine.resume_frame(frame) == result
        assert machine.executed == reference.executed
        assert machine.memory == reference.memory

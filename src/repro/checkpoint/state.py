"""Snapshot/restore of live simulation state.

A checkpoint is taken at an **entry-frame block boundary**: the single
family of execution points where the reference interpreter's whole
state is plain data -- the entry frame's environment, the pending block
label, flat memory, the fuel odometer -- and every attached tracer is
between instructions (no unresolved branch, no call aggregation in
flight).  :attr:`repro.profiling.interp.Machine.checkpoint_hook` fires
exactly there.

Cross-process identity of instructions is the one non-trivial problem:
the branch predictor, the timing memoization and every
:class:`~repro.machine.spt_sim.OpRecord` key state by ``id(instr)``,
which is meaningless outside the producing process.  :class:`InstrIndex`
gives every instruction the stable coordinate ``(function, block
label, position in block)``, derived deterministically from the module
-- two processes that loaded/compiled the same module agree on every
key, which is what makes restore-into-a-fresh-process exact.

Everything *derived* (timing tick memos, loop-nest caches) is
deliberately not captured: it is recomputed on demand and cannot affect
results, only wall-clock.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = [
    "CheckpointError",
    "InstrIndex",
    "restore_simulation",
    "snapshot_simulation",
]

_SEP = "\x1f"


class CheckpointError(RuntimeError):
    """A snapshot cannot be taken or restored (caller bug or a
    checkpoint that does not match the module it is applied to)."""


class InstrIndex:
    """Stable, process-independent instruction identity for a module.

    Keys are ``function<US>block<US>index`` strings; the index holds a
    reference to every instruction, pinning ids against recycling for
    the lifetime of the index.
    """

    def __init__(self, module):
        self._key_by_id: Dict[int, str] = {}
        self._instr_by_key: Dict[str, object] = {}
        for func in module.functions.values():
            for block in func.blocks:
                for position, instr in enumerate(block.instrs):
                    key = _SEP.join((func.name, block.label, str(position)))
                    self._key_by_id[id(instr)] = key
                    self._instr_by_key[key] = instr

    def key_of(self, instr_id: int) -> str:
        """The stable key of a live ``id(instr)``."""
        try:
            return self._key_by_id[instr_id]
        except KeyError:
            raise CheckpointError(
                "instruction not in module (stale id in snapshot source)"
            ) from None

    def instr_of(self, key: str):
        """The live instruction at a stable key."""
        try:
            return self._instr_by_key[key]
        except KeyError:
            raise CheckpointError(
                f"snapshot references unknown instruction {key!r} "
                "(module mismatch)"
            ) from None

    def id_of(self, key: str) -> int:
        return id(self.instr_of(key))

    def __len__(self) -> int:
        return len(self._instr_by_key)


def snapshot_simulation(machine, frame, tracer, collectors, index) -> Dict:
    """Capture one simulation (machine + timing tracer + SPT
    collectors) as a JSON-serializable document.

    Must be called from the machine's checkpoint hook (or with the
    machine otherwise parked at an entry-frame block boundary)."""
    key_of = index.key_of
    return {
        "interp": machine.snapshot_state(frame),
        "timing": tracer.snapshot_state(key_of),
        "collectors": [
            collector.snapshot_state(key_of) for collector in collectors
        ],
    }


def restore_simulation(machine, state, tracer, collectors, index):
    """Load a :func:`snapshot_simulation` document into freshly built
    components; returns the entry frame to pass to
    :meth:`~repro.profiling.interp.Machine.resume_frame`.

    The caller guarantees the components were built the same way as at
    snapshot time (same module, same collector set in the same order)
    -- the checkpoint store's content-addressed key makes that a
    structural property, and the collector count is still re-checked
    here because a mismatch would corrupt silently."""
    collector_states = state["collectors"]
    if len(collector_states) != len(collectors):
        raise CheckpointError(
            f"snapshot has {len(collector_states)} collectors, "
            f"simulation has {len(collectors)}"
        )
    frame = machine.restore_state(state["interp"])
    tracer.restore_state(state["timing"], index.id_of)
    for collector, collector_state in zip(collectors, collector_states):
        collector.restore_state(collector_state, index.instr_of, index.id_of)
    return frame

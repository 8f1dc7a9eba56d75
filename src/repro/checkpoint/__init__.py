"""Deterministic checkpoint / record-replay of simulations.

Layers (bottom up):

* :mod:`repro.checkpoint.state` -- the :class:`InstrIndex` stable
  instruction identity and the snapshot/restore orchestration over one
  simulation's interpreter + timing + SPT-collector state;
* :mod:`repro.checkpoint.store` -- the on-disk snapshot store
  (``repro-checkpoint/3``), a :class:`repro.util.ContentStore` written
  with atomic rename + fsync, corruption-tolerant on load;
* :mod:`repro.checkpoint.runner` -- the checkpointing simulation
  driver behind ``repro simulate --checkpoint-every/--resume-from``.

See docs/checkpointing.md for the format, keys, and resume semantics.
"""

from repro.checkpoint.state import (
    CheckpointError,
    InstrIndex,
    restore_simulation,
    snapshot_simulation,
)
from repro.checkpoint.store import (
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    default_checkpoint_dir,
)
from repro.checkpoint.runner import (
    CheckpointReport,
    run_checkpointed_simulation,
    simulation_key,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "CheckpointReport",
    "CheckpointStore",
    "InstrIndex",
    "default_checkpoint_dir",
    "restore_simulation",
    "run_checkpointed_simulation",
    "simulation_key",
    "snapshot_simulation",
]

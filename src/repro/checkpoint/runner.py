"""The checkpointing simulation driver.

``run_checkpointed_simulation`` is :func:`repro.perf.runner.
simulate_program` with two extra moves: it installs a checkpoint hook
that durably snapshots the whole simulation every N executed
instructions (at the next entry-frame block boundary), and it can start
from the newest stored snapshot instead of from zero.  The resumed run
is bitwise-identical to the uninterrupted one -- same result, same
cycle counts, same per-loop statistics -- which the ``checkpoint``
testkit oracle enforces at every boundary.

Checkpointed runs use the reference tier, the only one with
``checkpoint_hook`` / ``resume_frame``; its outcome equals the fast
tier's bit for bit.

Anything that goes wrong around checkpointing (unloadable snapshot,
failed save, module mismatch) degrades to the uncheckpointed behavior:
a cold start and/or a skipped save, counted on the store's stats, never
an error surfaced to the simulation.  A snapshot that loads but does
not apply is a corrupt entry like an unreadable one: removed, and the
next older snapshot is tried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.batch.cache import ResultCache
from repro.checkpoint.state import (
    InstrIndex,
    restore_simulation,
    snapshot_simulation,
)
from repro.checkpoint.store import CheckpointStore
from repro.ir.printer import format_module
from repro.perf.runner import (
    SimOutcome, build_simulation, finalize_simulation, spt_loop_sites)

__all__ = [
    "CheckpointReport",
    "run_checkpointed_simulation",
    "simulation_key",
]


def simulation_key(
    module, config, *, entry: str, args: Sequence[int], fuel: int
) -> str:
    """The content-addressed run key for simulating ``module`` (already
    transformed) under ``config`` with the given workload.

    Same discipline as the batch result cache: canonical textual IR x
    config fingerprint x workload token, so a snapshot can only ever be
    applied to the exact run that produced it."""
    return CheckpointStore.run_key(
        format_module(module),
        config.fingerprint(),
        ResultCache.workload_token(entry, args, fuel),
    )


@dataclass
class CheckpointReport:
    """What checkpointing did around one simulation."""

    key: str
    directory: str
    checkpoint_every: int
    #: Executed-index the run resumed from (None = cold start).
    resumed_from: Optional[int] = None
    #: Executed-indices of snapshots published during this run.
    saved_at: List[int] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "directory": self.directory,
            "checkpoint_every": self.checkpoint_every,
            "resumed_from": self.resumed_from,
            "saved_at": list(self.saved_at),
            "stats": dict(self.stats),
        }


def run_checkpointed_simulation(
    module,
    compile_result,
    config,
    *,
    entry: str = "main",
    args: Sequence[int] = (),
    fuel: int = 50_000_000,
    checkpoint_every: int = 0,
    resume_from: Union[None, str, int] = None,
    store: Optional[CheckpointStore] = None,
    checkpoint_dir: Optional[str] = None,
    telemetry=None,
) -> Tuple[SimOutcome, CheckpointReport]:
    """Simulate ``compile_result`` with periodic snapshots and optional
    resume.

    ``checkpoint_every`` is the snapshot cadence in executed
    instructions (0 disables saving); ``resume_from`` is ``None`` (cold
    start), ``"latest"``, or an executed-index upper bound.  Returns
    the :class:`~repro.perf.runner.SimOutcome` -- identical to what
    :func:`~repro.perf.runner.simulate_program` would produce -- plus a
    :class:`CheckpointReport`.
    """
    if store is None:
        store = CheckpointStore(checkpoint_dir)
    key = simulation_key(module, config, entry=entry, args=args, fuel=fuel)
    index = InstrIndex(module)
    loops = spt_loop_sites(compile_result)

    def build():
        return build_simulation(
            module, loops, fuel=fuel, fast=False, telemetry=telemetry
        )

    def resume(state):
        # Fresh components for every snapshot tried: one that fails to
        # apply half-way may have mutated them.
        machine, tracer, collectors = build()
        try:
            frame = restore_simulation(
                machine, state, tracer, collectors, index
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # noqa: BLE001 - unusable => corrupt entry
            raise ValueError(f"snapshot does not apply: {exc}") from None
        return machine, tracer, collectors, frame

    frame = None
    resumed_from = None
    found = None
    if resume_from is not None:
        at_or_before = None if resume_from == "latest" else int(resume_from)
        found = store.load_latest(
            key, at_or_before=at_or_before, apply=resume
        )
    if found is not None:
        resumed_from, (machine, tracer, collectors, frame) = found
    else:
        machine, tracer, collectors = build()

    report = CheckpointReport(
        key=key,
        directory=store.root,
        checkpoint_every=checkpoint_every,
        resumed_from=resumed_from,
    )

    if checkpoint_every > 0:
        last_saved = machine.executed

        def hook(m, entry_frame):
            nonlocal last_saved
            if m.executed - last_saved < checkpoint_every:
                return
            # Advance the cadence marker even when the save is
            # suppressed: a lost checkpoint costs resume granularity,
            # and retry storms under a persistent fault cost far more.
            last_saved = m.executed
            try:
                state = snapshot_simulation(
                    m, entry_frame, tracer, collectors, index
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception:  # noqa: BLE001 - snapshot must not kill the run
                store.stats.write_failures += 1
                return
            if store.save(key, m.executed, state) is not None:
                report.saved_at.append(m.executed)

        machine.checkpoint_hook = hook

    if frame is not None:
        result_value = machine.resume_frame(frame)
    else:
        result_value = machine.run(entry, list(args))

    outcome = finalize_simulation(
        result_value, tracer, collectors, telemetry=telemetry
    )
    report.stats = store.stats.to_dict()
    if telemetry is not None:
        telemetry.merge_counters(store.stats.as_counters("checkpoint"))
    return outcome, report

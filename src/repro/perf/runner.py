"""The one simulation driver, and run recording for the ledger.

Every timed run on the machine model is built here, on one of two
tiers with bitwise-identical outcomes: the fast tier (a
:class:`~repro.profiling.compiled.CompiledMachine` with hot traces and a
:class:`~repro.machine.vector_timing.VectorTimingEngine`), or the
reference tier (:class:`~repro.profiling.interp.Machine` with a per-op
:class:`~repro.machine.timing.TimingTracer`), which is the oracle and
the only tier that checkpoints.  ``repro simulate``, ``perf record``,
the suite evaluation, the checkpoint runner and the fuzz oracles all
simulate through :func:`build_simulation` / :func:`simulate_program`;
``repro run --timing`` and the suite's base run take a bare
:func:`timed_machine`.

``record_program`` is the engine behind ``repro perf record``: it
compiles (and for ``kind="simulate"`` also simulates) one source file
under a throwaway observing telemetry, then distills the run into one
:func:`repro.obs.ledger.make_record` record -- phase self-times from the
span tree, the deterministic counters, degradations and cycles.
"""

from __future__ import annotations

import gc
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.loops import LoopNest
from repro.machine import spt_sim
from repro.machine.timing import TimingModel, TimingTracer
from repro.machine.vector_timing import VectorTimingEngine
from repro.obs.ledger import make_record
from repro.obs.telemetry import Telemetry
from repro.profiling.compiled import CompiledMachine, make_machine

__all__ = ["SimOutcome", "build_simulation", "record_program", "simulate_program"]


@dataclass
class SimOutcome:
    """One program's trip through the SPT machine model (equality is
    exact: both tiers must produce the same outcome bit for bit)."""

    result: int
    seq_cycles: float
    ipc: float
    spt_cycles: float
    #: One per simulated SPT loop, in selection order.
    loops: List[spt_sim.SptLoopStats] = field(default_factory=list)
    #: (function, loop header) -> sequential cycles attributed to every
    #: loop the run entered, SPT loop or not.
    loop_cycles: Dict[Tuple[str, str], float] = field(default_factory=dict)

    @property
    def program_speedup(self) -> float:
        return self.seq_cycles / self.spt_cycles if self.spt_cycles else 1.0


def spt_loop_sites(compile_result) -> List[Tuple[str, str, int]]:
    """``(function, header, loop id)`` of every loop ``compile_result``
    transformed, in selection order."""
    return [
        (candidate.func_name, candidate.loop.header, info.loop_id)
        for candidate, info in zip(
            compile_result.selected, compile_result.spt_loops
        )
    ]


def timed_machine(
    module, *, fuel: int = 50_000_000, fast: bool = True, telemetry=None
):
    """The ``(machine, cycle accounting)`` pair one timed run executes
    on: the fast tier, or with ``fast=False`` the reference tier."""
    if fast:
        accounting = VectorTimingEngine(TimingModel())
        machine = make_machine(
            module, fuel=fuel, telemetry=telemetry, timing_engine=accounting
        )
    else:
        accounting = TimingTracer(TimingModel())
        machine = make_machine(module, fuel=fuel, fast=False, telemetry=telemetry)
        machine.add_tracer(accounting)
    return machine, accounting


def build_simulation(
    module,
    loops: Iterable[Tuple[str, str, int]],
    *,
    fuel: int = 50_000_000,
    fast: bool = True,
    telemetry=None,
    collector_type=spt_sim.SptTraceCollector,
):
    """Assemble the ``(machine, cycle accounting, SPT collectors)``
    triple one simulation runs on; ``loops`` are ``(function, header,
    loop id)`` sites in the (already transformed) ``module``.  The
    collectors share the accounting's timing model -- they read each
    load's latency from the cache it has just charged -- and are
    attached after it.  They emit their ``spt.round`` events into
    ``telemetry`` as the run folds them; ``collector_type`` lets a
    checker substitute a
    :class:`~repro.machine.spt_sim.SptTraceCollector` subclass.

    Deterministic: the same module and sites always build the same
    collector sequence, which is what lets a checkpoint restored in a
    fresh process (:mod:`repro.checkpoint`) line up its per-collector
    state positionally."""
    machine, accounting = timed_machine(
        module, fuel=fuel, fast=fast, telemetry=telemetry
    )
    collectors = []
    for func_name, header, loop_id in loops:
        nest = LoopNest.build(module.function(func_name))
        loop = next((l for l in nest.loops if l.header == header), None)
        if loop is not None:
            collectors.append(collector_type(
                func_name, header, loop.body, loop_id, accounting.model,
                telemetry=telemetry,
            ))
    for collector in collectors:
        machine.add_tracer(collector)
    return machine, accounting, collectors


def run_machine(machine, entry: str, args: Sequence[int]):
    """Run ``machine`` from ``entry`` and return the result.

    The caller owns the machine, so once the run returns its compiled
    code is dropped: the compiled blocks and trace namespaces point back
    at the machine, and would otherwise keep it and its tracers alive
    until the cyclic garbage collector runs."""
    try:
        return machine.run(entry, list(args))
    finally:
        if isinstance(machine, CompiledMachine):
            machine.release_code()


def finalize_simulation(
    result_value, accounting, collectors, telemetry=None
) -> SimOutcome:
    """Finish every collector's loop into the program-level outcome:
    each SPT loop's simulated two-core time replaces its sequential
    time."""
    # Called through the module: perfbench/tracing.py wraps the attribute.
    loops = [
        spt_sim.simulate_spt_loop(collector, telemetry=telemetry)
        for collector in collectors
    ]
    total_delta = 0.0
    for stats in loops:
        total_delta += stats.spt_cycles - stats.seq_cycles
    return SimOutcome(
        result=result_value,
        seq_cycles=accounting.cycles,
        ipc=accounting.ipc,
        spt_cycles=accounting.cycles + total_delta,
        loops=loops,
        loop_cycles=accounting.loop_cycles,
    )


def simulate_program(
    module,
    compile_result,
    *,
    entry: str = "main",
    args: Sequence[int] = (),
    fuel: int = 50_000_000,
    fast: bool = True,
    telemetry=None,
) -> SimOutcome:
    """Run the SPT machine model over ``compile_result``'s selected
    loops and aggregate program-level cycles, on the fast tier or with
    ``fast=False`` the reference tier.

    ``module`` must be the (already transformed) module that
    ``compile_spt`` returned ``compile_result`` for.
    """
    machine, accounting, collectors = build_simulation(
        module, spt_loop_sites(compile_result), fuel=fuel, fast=fast,
        telemetry=telemetry,
    )
    result_value = run_machine(machine, entry, args)
    return finalize_simulation(
        result_value, accounting, collectors, telemetry=telemetry
    )


def _workload_dict(
    source_path: str, source: str, entry: str, args: Sequence[int]
) -> Dict:
    return {
        "name": os.path.basename(source_path),
        "sha256": hashlib.sha256(source.encode()).hexdigest(),
        "entry": entry,
        "args": list(args),
    }


def record_program(
    source_path: str,
    *,
    kind: str = "compile",
    config=None,
    entry: str = "main",
    args: Sequence[int] = (),
    fuel: int = 50_000_000,
    extra: Optional[Dict] = None,
) -> Tuple[Dict, object]:
    """Compile (``kind="compile"``) or compile+simulate
    (``kind="simulate"``) ``source_path`` under an observing telemetry
    and return ``(ledger_record, compile_result)``.

    The record is *not* appended anywhere; the caller owns the
    :class:`~repro.obs.ledger.Ledger`.
    """
    from repro.cli import load_module
    from repro.core.config import best_config
    from repro.core.pipeline import Workload, compile_spt

    if kind not in ("compile", "simulate"):
        raise ValueError(f"unknown perf record kind {kind!r}")
    if config is None:
        config = best_config()
    with open(source_path) as handle:
        source = handle.read()

    telemetry = Telemetry()
    # Collect what earlier work in this process left behind first: a
    # full collection of that garbage (tens of ms in a large heap) would
    # otherwise be charged to whichever phase of this run it lands in.
    gc.collect()
    start = time.perf_counter()
    module = load_module(source_path)
    workload = Workload(entry=entry, args=tuple(args))
    result = compile_spt(module, config, workload, telemetry=telemetry)

    cycles = None
    extra_out: Dict = dict(extra or {})
    extra_out["selected_loops"] = [info.header for info in result.spt_loops]
    if kind == "simulate" and result.spt_loops:
        outcome = simulate_program(
            module, result, entry=entry, args=args, fuel=fuel,
            fast=config.fast_interp, telemetry=telemetry,
        )
        cycles = outcome.spt_cycles
        extra_out["seq_cycles"] = outcome.seq_cycles
        extra_out["program_speedup"] = outcome.program_speedup
    wall_s = time.perf_counter() - start
    telemetry.close()

    record = make_record(
        kind,
        _workload_dict(source_path, source, entry, args),
        config.fingerprint(),
        wall_s=wall_s,
        telemetry=telemetry,
        cycles=cycles,
        degradations=[r.to_dict() for r in result.degradations],
        extra=extra_out,
    )
    return record, result
